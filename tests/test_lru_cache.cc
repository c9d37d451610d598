#include "common/lru_cache.h"

#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

namespace mosaic {
namespace {

TEST(LruCache, HitAndMissCounting) {
  LruCache<std::string, int> cache("test_lru_hit_and_miss", 2);
  EXPECT_FALSE(cache.Get("a").has_value());
  cache.Put("a", 1);
  auto got = cache.Get("a");
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, 1);
  CacheStats stats = cache.Stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_EQ(stats.capacity, 2u);
  EXPECT_DOUBLE_EQ(stats.hit_rate(), 0.5);
}

TEST(LruCache, EvictsLeastRecentlyUsed) {
  LruCache<std::string, int> cache("test_lru_evicts_lru", 2);
  cache.Put("a", 1);
  cache.Put("b", 2);
  ASSERT_TRUE(cache.Get("a").has_value());  // refresh a; b is now LRU
  cache.Put("c", 3);
  EXPECT_TRUE(cache.Get("a").has_value());
  EXPECT_FALSE(cache.Get("b").has_value());
  EXPECT_TRUE(cache.Get("c").has_value());
  EXPECT_EQ(cache.Stats().evictions, 1u);
}

TEST(LruCache, PutOverwritesAndRefreshes) {
  LruCache<std::string, int> cache("test_lru_put_overwrites", 2);
  cache.Put("a", 1);
  cache.Put("b", 2);
  cache.Put("a", 10);  // overwrite refreshes recency: b becomes LRU
  cache.Put("c", 3);
  EXPECT_EQ(*cache.Get("a"), 10);
  EXPECT_FALSE(cache.Get("b").has_value());
}

TEST(LruCache, ClearCountsInvalidationsNotEvictions) {
  LruCache<std::string, int> cache("test_lru_clear_counts", 4);
  cache.Put("a", 1);
  cache.Put("b", 2);
  cache.Clear();
  CacheStats stats = cache.Stats();
  EXPECT_EQ(stats.entries, 0u);
  EXPECT_EQ(stats.evictions, 0u);
  EXPECT_EQ(stats.invalidations, 2u);
}

TEST(LruCache, ZeroCapacityDisablesCaching) {
  LruCache<std::string, int> cache("test_lru_zero_capacity", 0);
  cache.Put("a", 1);
  EXPECT_FALSE(cache.Get("a").has_value());
  EXPECT_EQ(cache.size(), 0u);
}

TEST(LruCache, ShrinkingCapacityEvicts) {
  LruCache<std::string, int> cache("test_lru_shrinking_capacity", 4);
  for (int i = 0; i < 4; ++i) cache.Put(std::to_string(i), i);
  cache.set_capacity(2);
  EXPECT_EQ(cache.size(), 2u);
  // The two most recent entries survive.
  EXPECT_TRUE(cache.Get("3").has_value());
  EXPECT_TRUE(cache.Get("2").has_value());
  EXPECT_FALSE(cache.Get("0").has_value());
}

TEST(LruCache, ConcurrentMixedOperationsStayConsistent) {
  LruCache<int, int> cache("test_lru_concurrent_mixed", 64);
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&cache, t] {
      for (int i = 0; i < 2000; ++i) {
        int key = (t * 31 + i) % 100;
        if (i % 3 == 0) {
          cache.Put(key, key * 2);
        } else if (i % 7 == 0) {
          cache.Erase(key);
        } else {
          auto v = cache.Get(key);
          if (v.has_value()) {
            EXPECT_EQ(*v, key * 2);
          }
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_LE(cache.size(), 64u);
  CacheStats stats = cache.Stats();
  EXPECT_EQ(stats.entries, cache.size());
}

TEST(LruCache, CountsLiveInTheRegistryUnderItsPrefix) {
  auto& registry = metrics::Registry::Global();
  {
    LruCache<std::string, int> cache("test_lru_registry", 1);
    cache.Put("a", 1);
    cache.Put("b", 2);  // evicts a
    EXPECT_FALSE(cache.Get("a").has_value());
    EXPECT_TRUE(cache.Get("b").has_value());
    cache.Erase("b");
    cache.Put("c", 3);
    EXPECT_EQ(registry.GetCounter("test_lru_registry_hits")->Value(), 1u);
    EXPECT_EQ(registry.GetCounter("test_lru_registry_misses")->Value(), 1u);
    EXPECT_EQ(registry.GetCounter("test_lru_registry_insertions")->Value(),
              3u);
    EXPECT_EQ(registry.GetCounter("test_lru_registry_evictions")->Value(),
              1u);
    EXPECT_EQ(
        registry.GetCounter("test_lru_registry_invalidations")->Value(), 1u);
    EXPECT_EQ(registry.GetGauge("test_lru_registry_entries")->Value(), 1);
  }
  // A destroyed cache takes its entries out of the gauge; its counts
  // stay (they are per process).
  EXPECT_EQ(registry.GetGauge("test_lru_registry_entries")->Value(), 0);
  EXPECT_EQ(registry.GetCounter("test_lru_registry_hits")->Value(), 1u);
}

}  // namespace
}  // namespace mosaic
