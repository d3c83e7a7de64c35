// Reusable RSSI scan buffers behind a lock-free free list — the storage of
// the engine's admission copy.
//
// submit() copies each admitted scan into a pooled buffer instead of a
// fresh heap vector, and the worker that serves the scan trades that buffer
// for one it already holds (a swap, no copy) and returns the slot. Buffers
// are allocated on first use and then only change hands, so in steady state
// no worker frees memory a submitter allocated. Such a free takes the lock
// of the submitter's allocator arena; a submitter descheduled inside malloc
// then holds it, and every worker freeing into that arena stalls until the
// submitter runs again — under a shedding flood that froze the whole worker
// pool for milliseconds at a time.
//
// The free list is a Treiber stack of slot indices. Its head carries a
// version tag next to the index, so a pop that races a pop-then-push of the
// same slot fails its compare-exchange instead of linking a taken slot back
// in (the ABA problem). Nothing here ever blocks or holds a lock.
#ifndef NOBLE_ENGINE_SCAN_POOL_H_
#define NOBLE_ENGINE_SCAN_POOL_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <memory>
#include <vector>

#include "common/check.h"
#include "serve/fix.h"

namespace noble::engine {

class ScanPool {
 public:
  static constexpr std::uint32_t kNoSlot = std::numeric_limits<std::uint32_t>::max();

  explicit ScanPool(std::size_t slots)
      : buffers_(slots), next_(std::make_unique<std::atomic<std::uint32_t>[]>(slots)) {
    NOBLE_EXPECTS(slots < kNoSlot);
    for (std::size_t i = 0; i < slots; ++i) {
      next_[i].store(i + 1 < slots ? static_cast<std::uint32_t>(i + 1) : kNoSlot);
    }
    head_.store(pack(slots > 0 ? 0 : kNoSlot, 0));
  }

  ScanPool(const ScanPool&) = delete;
  ScanPool& operator=(const ScanPool&) = delete;

  /// A free slot, now owned by the caller; kNoSlot when every slot is
  /// taken (the caller keeps an owned copy instead).
  std::uint32_t acquire() {
    std::uint64_t head = head_.load();
    for (;;) {
      const auto slot = static_cast<std::uint32_t>(head);
      if (slot == kNoSlot) return kNoSlot;
      // Read through a slot that may be taken concurrently: harmless, since
      // any such pop bumped the tag and this compare-exchange then fails.
      const std::uint32_t next = next_[slot].load();
      if (head_.compare_exchange_weak(head, pack(next, tag_of(head) + 1))) return slot;
    }
  }

  /// Returns an acquired slot. Writes to its buffer happen-before the next
  /// owner's acquire().
  void release(std::uint32_t slot) {
    std::uint64_t head = head_.load();
    for (;;) {
      next_[slot].store(static_cast<std::uint32_t>(head));
      if (head_.compare_exchange_weak(head, pack(slot, tag_of(head) + 1))) return;
    }
  }

  /// The buffer of a slot the caller owns.
  serve::RssiVector& buffer(std::uint32_t slot) { return buffers_[slot]; }

 private:
  static std::uint64_t pack(std::uint32_t slot, std::uint32_t tag) {
    return (std::uint64_t{tag} << 32) | slot;
  }
  static std::uint32_t tag_of(std::uint64_t head) {
    return static_cast<std::uint32_t>(head >> 32);
  }

  std::vector<serve::RssiVector> buffers_;
  /// Free-list links, one per slot; meaningful only while the slot is free.
  std::unique_ptr<std::atomic<std::uint32_t>[]> next_;
  /// (tag << 32) | index of the first free slot.
  std::atomic<std::uint64_t> head_{0};
};

}  // namespace noble::engine

#endif  // NOBLE_ENGINE_SCAN_POOL_H_
