// A bounded, thread-safe LRU cache whose hit/miss/eviction counters
// live in the process-wide metrics registry.
//
// Replaces the Database's former unbounded std::map model cache and
// backs the query service's canonicalized-SQL result cache. Values
// are returned by copy (cache std::shared_ptr for heavyweight values
// such as trained generators) so entries can be evicted while callers
// still hold a reference.
#ifndef MOSAIC_COMMON_LRU_CACHE_H_
#define MOSAIC_COMMON_LRU_CACHE_H_

#include <cstdint>
#include <list>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>

#include "common/metrics.h"
#include "common/synchronization.h"

namespace mosaic {

/// Counters describing cache effectiveness, per process: every cache
/// with the same metric prefix adds into them. All monotonically
/// increasing except `entries`; only `capacity` is one cache's own.
struct CacheStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t evictions = 0;
  uint64_t insertions = 0;
  uint64_t invalidations = 0;  ///< entries dropped by Clear()/Erase()
  size_t entries = 0;
  size_t capacity = 0;

  double hit_rate() const {
    uint64_t total = hits + misses;
    return total == 0 ? 0.0 : static_cast<double>(hits) /
                                  static_cast<double>(total);
  }
};

template <typename K, typename V>
class LruCache {
 public:
  /// `capacity` = max entries; 0 disables caching (every Get misses,
  /// Put is a no-op). Counts go to the registry as `<metric_prefix>_`
  /// {hits,misses,insertions,evictions,invalidations,entries}.
  LruCache(const std::string& metric_prefix, size_t capacity)
      : capacity_(capacity) {
    auto& registry = metrics::Registry::Global();
    auto counter = [&](const char* suffix, const char* help) {
      return registry.GetCounter(metric_prefix + suffix, help);
    };
    hits_ = counter("_hits", "Lookups that found their key");
    misses_ = counter("_misses", "Lookups that missed");
    insertions_ = counter("_insertions", "Entries added");
    evictions_ = counter("_evictions", "Entries evicted over capacity");
    invalidations_ = counter("_invalidations", "Entries cleared or erased");
    entries_ = registry.GetGauge(metric_prefix + "_entries", "Entries held");
  }

  ~LruCache() {
    MutexLock lock(mu_);
    entries_->Sub(static_cast<int64_t>(order_.size()));
  }

  LruCache(const LruCache&) = delete;
  LruCache& operator=(const LruCache&) = delete;

  /// Returns the value and refreshes recency, or nullopt on miss.
  std::optional<V> Get(const K& key) {
    MutexLock lock(mu_);
    auto it = index_.find(key);
    if (it == index_.end()) {
      misses_->Inc();
      return std::nullopt;
    }
    hits_->Inc();
    order_.splice(order_.begin(), order_, it->second);
    return it->second->second;
  }

  /// Like Get, but without touching the hit/miss counters: for the
  /// re-check in double-checked locking, or to judge the value outside
  /// the cache's mutex and then count it with RecordLookup.
  std::optional<V> Peek(const K& key) {
    MutexLock lock(mu_);
    auto it = index_.find(key);
    if (it == index_.end()) return std::nullopt;
    order_.splice(order_.begin(), order_, it->second);
    return it->second->second;
  }

  /// Count one lookup that Peek served.
  void RecordLookup(bool hit) { (hit ? hits_ : misses_)->Inc(); }

  /// Insert or overwrite; evicts the least-recently-used entry when
  /// over capacity.
  void Put(const K& key, V value) {
    MutexLock lock(mu_);
    if (capacity_ == 0) return;
    auto it = index_.find(key);
    if (it != index_.end()) {
      it->second->second = std::move(value);
      order_.splice(order_.begin(), order_, it->second);
      return;
    }
    order_.emplace_front(key, std::move(value));
    index_[key] = order_.begin();
    insertions_->Inc();
    entries_->Add(1);
    EvictToCapacityLocked();
  }

  /// Drops one entry if present.
  void Erase(const K& key) {
    MutexLock lock(mu_);
    auto it = index_.find(key);
    if (it == index_.end()) return;
    order_.erase(it->second);
    index_.erase(it);
    invalidations_->Inc();
    entries_->Sub(1);
  }

  /// Drops every entry (counted as invalidations, not evictions).
  void Clear() {
    MutexLock lock(mu_);
    invalidations_->Inc(order_.size());
    entries_->Sub(static_cast<int64_t>(order_.size()));
    order_.clear();
    index_.clear();
  }

  /// Change the bound; evicts LRU entries if shrinking below the
  /// current size.
  void set_capacity(size_t capacity) {
    MutexLock lock(mu_);
    capacity_ = capacity;
    EvictToCapacityLocked();
  }

  size_t size() const {
    MutexLock lock(mu_);
    return order_.size();
  }

  /// The per-process registry counts (see CacheStats), this capacity.
  CacheStats Stats() const {
    CacheStats out;
    out.hits = hits_->Value();
    out.misses = misses_->Value();
    out.evictions = evictions_->Value();
    out.insertions = insertions_->Value();
    out.invalidations = invalidations_->Value();
    out.entries = static_cast<size_t>(entries_->Value());
    MutexLock lock(mu_);
    out.capacity = capacity_;
    return out;
  }

 private:
  void EvictToCapacityLocked() REQUIRES(mu_) {
    while (order_.size() > capacity_) {
      index_.erase(order_.back().first);
      order_.pop_back();
      evictions_->Inc();
      entries_->Sub(1);
    }
  }

  mutable Mutex mu_;
  size_t capacity_ GUARDED_BY(mu_);
  std::list<std::pair<K, V>> order_ GUARDED_BY(mu_);  ///< front = most recent
  std::unordered_map<K, typename std::list<std::pair<K, V>>::iterator>
      index_ GUARDED_BY(mu_);
  metrics::Counter* hits_;
  metrics::Counter* misses_;
  metrics::Counter* insertions_;
  metrics::Counter* evictions_;
  metrics::Counter* invalidations_;
  metrics::Gauge* entries_;
};

}  // namespace mosaic

#endif  // MOSAIC_COMMON_LRU_CACHE_H_
