// Bounded, sharded LRU cache — the generic substrate of the engine's
// RSSI-fingerprint result cache.
//
// The map is split into independent shards (key -> shard by hash), each with
// its own mutex, recency list and capacity slice, so concurrent lookups from
// many client threads contend only when they collide on a shard. Eviction is
// per-shard LRU. Hit/miss/eviction counters are kept under the shard locks
// and summed on `stats()`. The engine's telemetry reads only `evictions`
// and `entries` from there: it counts fingerprint-cache hits and misses
// itself, at admission, so a rejected-and-retried scan is not a miss.
//
// `get` returns a copy of the value: entries stay owned by the cache and can
// be evicted by a concurrent `put` at any moment, so handing out references
// would be a use-after-free factory.
#ifndef NOBLE_COMMON_LRU_CACHE_H_
#define NOBLE_COMMON_LRU_CACHE_H_

#include <cstdint>
#include <functional>
#include <list>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/check.h"

namespace noble {

/// Aggregate cache telemetry (summed over shards at snapshot time).
struct CacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t insertions = 0;
  std::uint64_t evictions = 0;
  std::size_t entries = 0;  ///< current resident entries
};

template <class Key, class Value, class Hash = std::hash<Key>,
          class Eq = std::equal_to<Key>>
class ShardedLruCache {
 public:
  /// `capacity` total entries split evenly across `num_shards` shards (each
  /// shard holds at least one entry, so tiny capacities still cache).
  ShardedLruCache(std::size_t capacity, std::size_t num_shards, Hash hash = Hash(),
                  Eq eq = Eq())
      : hash_(std::move(hash)), shards_(num_shards == 0 ? 1 : num_shards) {
    NOBLE_EXPECTS(capacity >= 1);
    const std::size_t per_shard = (capacity + shards_.size() - 1) / shards_.size();
    for (Shard& shard : shards_) {
      shard.capacity = per_shard < 1 ? 1 : per_shard;
      shard.index = decltype(shard.index)(8, ShardHash{&hash_}, ShardEq{eq});
    }
  }

  // Not copyable or movable: shard mutexes aside, every shard's index
  // hashes through a pointer to this object's hash_ member, which a move
  // would leave dangling.
  ShardedLruCache(const ShardedLruCache&) = delete;
  ShardedLruCache& operator=(const ShardedLruCache&) = delete;

  /// Returns a copy of the cached value, refreshing its recency; nullopt
  /// (counted as a miss) when absent.
  std::optional<Value> get(const Key& key) {
    const std::size_t h = hash_(key);
    Shard& shard = shard_of(h);
    std::lock_guard<std::mutex> lock(shard.mu);
    const auto it = shard.index.find(key);
    if (it == shard.index.end()) {
      ++shard.misses;
      return std::nullopt;
    }
    // Move to the front of the recency list (most recently used).
    shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
    ++shard.hits;
    return it->second->second;
  }

  /// Inserts or refreshes key -> value, evicting the shard's LRU entry when
  /// the shard is at capacity.
  void put(Key key, Value value) {
    const std::size_t h = hash_(key);
    Shard& shard = shard_of(h);
    std::lock_guard<std::mutex> lock(shard.mu);
    const auto it = shard.index.find(key);
    if (it != shard.index.end()) {
      it->second->second = std::move(value);
      shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
      return;
    }
    if (shard.lru.size() >= shard.capacity) {
      shard.index.erase(&shard.lru.back().first);
      shard.lru.pop_back();
      ++shard.evictions;
    }
    shard.lru.emplace_front(std::move(key), std::move(value));
    shard.index.emplace(&shard.lru.front().first, shard.lru.begin());
    ++shard.insertions;
  }

  /// Drops every entry (counters are preserved; they are lifetime totals).
  void clear() {
    for (Shard& shard : shards_) {
      std::lock_guard<std::mutex> lock(shard.mu);
      shard.index.clear();
      shard.lru.clear();
    }
  }

  CacheStats stats() const {
    CacheStats total;
    for (const Shard& shard : shards_) {
      std::lock_guard<std::mutex> lock(shard.mu);
      total.hits += shard.hits;
      total.misses += shard.misses;
      total.insertions += shard.insertions;
      total.evictions += shard.evictions;
      total.entries += shard.lru.size();
    }
    return total;
  }

  std::size_t num_shards() const { return shards_.size(); }
  /// Total capacity actually provisioned (per-shard slices may round up).
  std::size_t capacity() const {
    std::size_t total = 0;
    for (const Shard& shard : shards_) total += shard.capacity;
    return total;
  }

 private:
  // The index borrows key storage from the recency list (keys can be large —
  // a whole RSSI scan), so the unordered_map key is a pointer wrapper that
  // hashes/compares through the pointee.
  struct ShardHash {
    const Hash* hash;
    std::size_t operator()(const Key* k) const { return (*hash)(*k); }
    std::size_t operator()(const Key& k) const { return (*hash)(k); }
    using is_transparent = void;
  };
  struct ShardEq {
    Eq eq;
    bool operator()(const Key* a, const Key* b) const { return eq(*a, *b); }
    bool operator()(const Key* a, const Key& b) const { return eq(*a, b); }
    bool operator()(const Key& a, const Key* b) const { return eq(a, *b); }
    using is_transparent = void;
  };

  struct Shard {
    mutable std::mutex mu;
    std::size_t capacity = 1;
    std::list<std::pair<Key, Value>> lru;  ///< front = most recently used
    std::unordered_map<const Key*, typename std::list<std::pair<Key, Value>>::iterator,
                       ShardHash, ShardEq>
        index{8, ShardHash{nullptr}, ShardEq{}};
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t insertions = 0;
    std::uint64_t evictions = 0;
  };

  Shard& shard_of(std::size_t hash) { return shards_[hash % shards_.size()]; }

  Hash hash_;
  std::vector<Shard> shards_;
};

}  // namespace noble

#endif  // NOBLE_COMMON_LRU_CACHE_H_
