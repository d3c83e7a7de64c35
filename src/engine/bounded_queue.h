// Bounded MPMC queue with class-aware admission, priority-ordered batched
// consumption and deadline expiry — the admission-control and micro-batching
// substrate of noble::engine.
//
// Producers never block: `try_push` reports kFull/kClosed instead of
// waiting, so overload turns into an explicit reject the caller can surface
// (degrade predictably, don't OOM). Every entry carries a RequestClass:
// interactive traffic (latency is the product) and bulk traffic (throughput
// is) share the queue but not its behavior —
//
//  * per-class capacity caps bound how much of the queue one class may
//    occupy, so a bulk flood can never take the headroom interactive
//    admissions rely on;
//  * `pop_batch` drains interactive entries first within the batching
//    window, bulk fills the remainder of the batch;
//  * entries may carry a deadline: ones that expire before a consumer
//    reaches them are handed back separately instead of wasting a slot in
//    the batch (the caller fails their promises; no GEMM is spent on them);
//  * optionally the bulk lane orders by earliest deadline first (EDF)
//    instead of arrival: under a deadline-diverse backlog, draining the
//    most urgent work first converts entries that FIFO would have let
//    expire into completions — more goodput from the same queue. Ties (and
//    deadline-less entries, which sort last) break by admission sequence,
//    so the order is total and deterministic. Interactive stays FIFO: its
//    product is arrival-order latency, not deadline goodput.
//
// Neither side allocates while holding the queue lock: the lanes draw their
// storage from a pool the queue owns (blocks freed by a pop are reused by
// later pushes), and `pop_batch` sizes its batch before locking. A malloc
// or free under the lock could wait on an allocator arena that a
// descheduled thread holds, stalling every producer and consumer with it.
//
// Consumers block in `pop_batch`, which gathers up to `max_items` entries.
// Batching is work-conserving (the adaptive-batching rule of Clipper,
// Crankshaw et al., NSDI 2017): a consumer holding an under-full batch
// waits at most `max_wait` after its first take for stragglers — the
// micro-batching window — but only while every other consumer is busy.
// It dispatches at once if another consumer is blocked idle, and a
// consumer that goes idle on the empty queue releases every window holder:
// a straggler is better served by the idle consumer than by holding a
// lone entry back. A single consumer never sees another idle, so it always
// holds the full window.
#ifndef NOBLE_ENGINE_BOUNDED_QUEUE_H_
#define NOBLE_ENGINE_BOUNDED_QUEUE_H_

#include <algorithm>
#include <array>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory_resource>
#include <mutex>
#include <optional>
#include <utility>
#include <vector>

#include "common/check.h"

namespace noble::engine {

enum class PushResult {
  kOk,      ///< item enqueued
  kFull,    ///< capacity (total or per-class) reached; item not enqueued
  kClosed,  ///< queue closed; item not enqueued
};

/// Admission class of one request. Interactive fixes are served first;
/// bulk re-localization sweeps fill whatever capacity and batch slots
/// remain, and are the first to shed under overload.
enum class RequestClass {
  kInteractive,  ///< a user is waiting on this fix
  kBulk,         ///< background sweep; throughput over latency
};

inline constexpr std::size_t kNumRequestClasses = 2;

constexpr const char* request_class_name(RequestClass cls) {
  return cls == RequestClass::kInteractive ? "interactive" : "bulk";
}

/// Canonical class -> array index mapping, shared by every per-class table
/// (queue lanes, engine counters, latency histograms) so the enum's layout
/// lives in exactly one place.
constexpr std::size_t request_class_index(RequestClass cls) {
  return cls == RequestClass::kInteractive ? 0 : 1;
}

/// Per-class occupancy caps, each bounding how many queue slots one class
/// may hold at once. 0 means "no class-specific cap" (the total capacity
/// still applies). Setting `bulk` below the total capacity reserves the
/// difference as interactive-only headroom.
struct ClassCaps {
  std::size_t interactive = 0;
  std::size_t bulk = 0;

  std::size_t of(RequestClass cls) const {
    return cls == RequestClass::kInteractive ? interactive : bulk;
  }
};

template <class T>
class BoundedQueue {
 public:
  using Clock = std::chrono::steady_clock;

  /// `edf_bulk` switches the bulk lane from FIFO to earliest-deadline-first
  /// ordering (see the header comment); the interactive lane is always FIFO.
  explicit BoundedQueue(std::size_t capacity, ClassCaps caps = {},
                        bool edf_bulk = false)
      : capacity_(capacity),
        caps_(caps),
        edf_bulk_(edf_bulk),
        lanes_{Lane(&lane_storage_), Lane(&lane_storage_)} {
    NOBLE_EXPECTS(capacity >= 1);
    NOBLE_EXPECTS(caps.interactive <= capacity);
    NOBLE_EXPECTS(caps.bulk <= capacity);
  }

  /// Non-blocking enqueue; the caller owns rejection handling. kFull when
  /// either the total capacity or the item's class cap is reached. An
  /// optional deadline marks the entry expired once the clock passes it —
  /// `pop_batch` then returns it through its `expired` out-list instead of
  /// the batch.
  PushResult try_push(T item, RequestClass cls = RequestClass::kInteractive,
                      std::optional<Clock::time_point> deadline = std::nullopt) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (closed_) return PushResult::kClosed;
      Lane& lane = lanes_[request_class_index(cls)];
      const std::size_t class_cap = caps_.of(cls);
      if (class_cap > 0 && lane.size() >= class_cap) return PushResult::kFull;
      if (size_locked() >= capacity_) return PushResult::kFull;
      Entry entry{std::move(item), deadline, next_seq_++};
      if (edf_bulk_ && cls == RequestClass::kBulk) {
        // Sorted insertion keeps pop_batch a plain front-pop: the deque is
        // always ordered by (deadline, seq), deadline-less entries last.
        // O(lane) memmove per insert is fine at queue-cap scale (~1k small
        // entries) — pop_batch's contended path stays untouched.
        const auto pos = std::upper_bound(
            lane.begin(), lane.end(), entry,
            [](const Entry& a, const Entry& b) { return a.key() < b.key(); });
        lane.insert(pos, std::move(entry));
      } else {
        lane.push_back(std::move(entry));
      }
    }
    cv_.notify_one();
    return PushResult::kOk;
  }

  /// Blocks until at least one entry is available (or the queue is closed),
  /// then gathers up to `max_items` live entries, waiting at most `max_wait`
  /// past the first take for more to arrive — while no other consumer is
  /// blocked idle in `pop_batch` (see the header comment). Interactive
  /// entries drain first on every sweep; bulk fills the remainder of the
  /// batch.
  ///
  /// When `expired` is non-null, entries whose deadline has passed are
  /// appended there instead of the batch (they do not count against
  /// `max_items`); with only expired entries on hand the call returns
  /// immediately so the caller can fail them without sitting out the
  /// window. When `expired` is null, deadlines are ignored.
  ///
  /// Returns an empty batch with nothing appended to `expired` only when
  /// the queue is closed and fully drained — the consumer's exit signal.
  std::vector<T> pop_batch(std::size_t max_items, std::chrono::microseconds max_wait,
                           std::vector<T>* expired = nullptr) {
    NOBLE_EXPECTS(max_items >= 1);
    std::vector<T> batch;
    batch.reserve(max_items);
    const std::size_t expired_before = expired == nullptr ? 0 : expired->size();
    std::unique_lock<std::mutex> lock(mu_);
    if (size_locked() == 0 && !closed_) {
      // Going idle: release every window holder, so their batches dispatch
      // now instead of waiting out the window for work this consumer could
      // take.
      ++idle_;
      if (holders_ > 0) cv_.notify_all();
      cv_.wait(lock, [&] { return size_locked() > 0 || closed_; });
      --idle_;
    }
    if (size_locked() == 0) return batch;  // closed and drained
    const auto window = Clock::now() + max_wait;
    for (;;) {
      // Priority sweep: interactive first, bulk fills what is left.
      const Clock::time_point now = Clock::now();
      for (Lane& lane : lanes_) {
        while (!lane.empty() && batch.size() < max_items) {
          Entry entry = std::move(lane.front());
          lane.pop_front();
          if (expired != nullptr && entry.deadline.has_value() &&
              *entry.deadline <= now) {
            expired->push_back(std::move(entry.item));
          } else {
            batch.push_back(std::move(entry.item));
          }
        }
      }
      // Another consumer is idle: it can take any straggler itself.
      if (batch.size() >= max_items || closed_ || idle_ > 0) break;
      // Everything taken so far expired: hand the corpses back now instead
      // of holding the window open over them.
      if (batch.empty() && expired != nullptr && expired->size() > expired_before) {
        break;
      }
      // Every other consumer is busy: wait out the rest of the batching
      // window for stragglers, unless a consumer goes idle first.
      ++holders_;
      const bool woken = cv_.wait_until(
          lock, window, [&] { return size_locked() > 0 || closed_ || idle_ > 0; });
      --holders_;
      if (!woken) break;  // window expired; serve what we have
    }
    return batch;
  }

  /// Closes the queue: producers get kClosed, consumers drain what remains
  /// and then receive empty batches. Idempotent.
  void close() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      closed_ = true;
    }
    cv_.notify_all();
  }

  std::size_t depth() const {
    std::lock_guard<std::mutex> lock(mu_);
    return size_locked();
  }

  std::size_t depth(RequestClass cls) const {
    std::lock_guard<std::mutex> lock(mu_);
    return lanes_[request_class_index(cls)].size();
  }

  bool closed() const {
    std::lock_guard<std::mutex> lock(mu_);
    return closed_;
  }

  std::size_t capacity() const { return capacity_; }
  const ClassCaps& class_caps() const { return caps_; }

  /// True when the bulk lane drains earliest-deadline-first.
  bool edf_bulk() const { return edf_bulk_; }

 private:
  struct Entry {
    T item;
    std::optional<Clock::time_point> deadline;
    /// Admission order, the EDF tie-breaker: equal deadlines (and the
    /// deadline-less tail) drain in arrival order, making the bulk-lane
    /// order total and deterministic.
    std::uint64_t seq = 0;

    std::pair<Clock::time_point, std::uint64_t> key() const {
      return {deadline.value_or(Clock::time_point::max()), seq};
    }
  };

  using Lane = std::pmr::deque<Entry>;

  std::size_t size_locked() const { return lanes_[0].size() + lanes_[1].size(); }

  const std::size_t capacity_;
  const ClassCaps caps_;
  const bool edf_bulk_;
  mutable std::mutex mu_;
  std::condition_variable cv_;
  /// Backs both lanes; touched only under mu_, so it needs no lock of its
  /// own. It keeps the blocks a pop frees and hands them to later pushes,
  /// so once warm the lanes never reach the global allocator.
  std::pmr::unsynchronized_pool_resource lane_storage_;
  /// One lane per class; index 0 (interactive) always drains first.
  /// Interactive is FIFO; bulk is FIFO or deadline-ordered (edf_bulk_).
  std::array<Lane, kNumRequestClasses> lanes_;
  std::uint64_t next_seq_ = 0;
  bool closed_ = false;
  /// Consumers blocked in `pop_batch` on the empty queue.
  std::size_t idle_ = 0;
  /// Consumers holding an under-full batch open for stragglers.
  std::size_t holders_ = 0;
};

}  // namespace noble::engine

#endif  // NOBLE_ENGINE_BOUNDED_QUEUE_H_
