// Tests for exp/workload_cache: hit/miss/eviction accounting, LRU-by-bytes
// eviction, use-count retirement, the disabled (--no-cache) pass-through,
// single-compute latching under concurrency, and exception recovery.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "exp/workload_cache.h"

namespace fairsched::exp {
namespace {

WorkloadCache::Computed make_value(int v, std::size_t bytes) {
  return {std::make_shared<const int>(v), bytes};
}

int as_int(const std::shared_ptr<const void>& p) {
  return *std::static_pointer_cast<const int>(p);
}

TEST(WorkloadCache, HitsAfterFirstComputeAndCountsStats) {
  WorkloadCache cache(1 << 20);
  int computes = 0;
  const auto fn = [&] {
    ++computes;
    return make_value(7, 100);
  };
  EXPECT_EQ(as_int(cache.get_or_compute("k", 3, fn)), 7);
  EXPECT_EQ(as_int(cache.get_or_compute("k", 3, fn)), 7);
  EXPECT_EQ(as_int(cache.get_or_compute("k", 3, fn)), 7);
  EXPECT_EQ(computes, 1);
  const CacheStats stats = cache.stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, 2u);
  EXPECT_EQ(stats.evictions, 0u);
  EXPECT_DOUBLE_EQ(stats.hit_rate(), 2.0 / 3.0);
  // All three planned uses are consumed: the entry retired and freed its
  // bytes without counting as an eviction.
  EXPECT_EQ(stats.bytes_in_use, 0u);
  EXPECT_EQ(stats.peak_bytes, 100u);
}

TEST(WorkloadCache, ComputedHereReportsWhoRanTheCompute) {
  WorkloadCache cache(1 << 20);
  const auto fn = [&] { return make_value(1, 10); };
  bool computed = false;
  cache.get_or_compute("k", 2, fn, &computed);
  EXPECT_TRUE(computed);
  cache.get_or_compute("k", 2, fn, &computed);
  EXPECT_FALSE(computed);
}

TEST(WorkloadCache, SingleUseKeysAreNotStored) {
  WorkloadCache cache(1 << 20);
  int computes = 0;
  const auto fn = [&] {
    ++computes;
    return make_value(1, 64);
  };
  cache.get_or_compute("once", 1, fn);
  cache.get_or_compute("once", 1, fn);  // a plan would never do this; still a
  EXPECT_EQ(computes, 2);               // fresh compute, not a stale hit
  const CacheStats stats = cache.stats();
  EXPECT_EQ(stats.misses, 2u);
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_EQ(stats.bytes_in_use, 0u);
  EXPECT_EQ(stats.peak_bytes, 0u);
}

TEST(WorkloadCache, DisabledCacheComputesInlineWithoutStats) {
  WorkloadCache cache(0);
  EXPECT_FALSE(cache.enabled());
  int computes = 0;
  bool computed = false;
  const auto fn = [&] {
    ++computes;
    return make_value(9, 10);
  };
  EXPECT_EQ(as_int(cache.get_or_compute("k", 5, fn, &computed)), 9);
  EXPECT_TRUE(computed);
  cache.get_or_compute("k", 5, fn);
  EXPECT_EQ(computes, 2);
  const CacheStats stats = cache.stats();
  EXPECT_EQ(stats.hits + stats.misses, 0u);
  EXPECT_DOUBLE_EQ(stats.hit_rate(), 0.0);
}

TEST(WorkloadCache, EvictsLeastRecentlyUsedOverBudget) {
  WorkloadCache cache(250);
  const auto value = [](int v) { return [v] { return make_value(v, 100); }; };
  cache.get_or_compute("a", 10, value(1));
  cache.get_or_compute("b", 10, value(2));
  cache.get_or_compute("a", 10, value(1));  // touch: b is now the LRU entry
  cache.get_or_compute("c", 10, value(3));  // 300 bytes > 250: evicts b
  CacheStats stats = cache.stats();
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_EQ(stats.bytes_in_use, 200u);
  // a and c still hit; b was evicted and recomputes.
  int computes = 0;
  const auto probe = [&] {
    ++computes;
    return make_value(0, 100);
  };
  cache.get_or_compute("a", 10, probe);
  cache.get_or_compute("c", 10, probe);
  EXPECT_EQ(computes, 0);
  cache.get_or_compute("b", 10, probe);
  EXPECT_EQ(computes, 1);
}

TEST(WorkloadCache, EntryLargerThanBudgetIsEvictedImmediately) {
  WorkloadCache cache(50);
  int computes = 0;
  const auto fn = [&] {
    ++computes;
    return make_value(1, 1000);
  };
  // Still returns the value (the caller holds a shared_ptr); the cache just
  // cannot keep it.
  EXPECT_EQ(as_int(cache.get_or_compute("big", 4, fn)), 1);
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_EQ(cache.stats().bytes_in_use, 0u);
  cache.get_or_compute("big", 4, fn);
  EXPECT_EQ(computes, 2);
}

TEST(WorkloadCache, RecomputeAfterEvictionStillRetiresOnSchedule) {
  // x is planned for 3 uses. After consuming 2 it is evicted by budget
  // pressure; the 3rd consumer's recompute must recognize it is the last
  // planned use and not re-store the entry with a fresh full use count —
  // a squatter would hold budget until evicted again.
  WorkloadCache cache(150);
  const auto value = [](int v) { return [v] { return make_value(v, 100); }; };
  cache.get_or_compute("x", 3, value(1));  // compute, consumed 1/3
  cache.get_or_compute("x", 3, value(1));  // hit, consumed 2/3
  cache.get_or_compute("y", 5, value(2));  // 200 bytes > 150: evicts x
  ASSERT_EQ(cache.stats().evictions, 1u);
  bool computed = false;
  EXPECT_EQ(as_int(cache.get_or_compute("x", 3, value(3), &computed)), 3);
  EXPECT_TRUE(computed);  // re-miss; and the last use, so not re-stored
  EXPECT_EQ(cache.stats().bytes_in_use, 100u);  // y only
  EXPECT_EQ(cache.stats().evictions, 1u);
}

TEST(WorkloadCache, ConcurrentGettersShareOneCompute) {
  WorkloadCache cache(1 << 20);
  std::atomic<int> computes{0};
  constexpr int kThreads = 8;
  std::vector<std::thread> threads;
  std::vector<int> seen(kThreads, 0);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      const auto value = cache.get_or_compute("shared", kThreads, [&] {
        ++computes;
        // Widen the race window so waiters really latch on the pending
        // entry instead of winning a lucky interleaving.
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
        return make_value(42, 100);
      });
      seen[t] = as_int(value);
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(computes.load(), 1);
  for (int v : seen) EXPECT_EQ(v, 42);
  const CacheStats stats = cache.stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, static_cast<std::uint64_t>(kThreads - 1));
  // kThreads planned uses, kThreads consumers: retired.
  EXPECT_EQ(stats.bytes_in_use, 0u);
}

TEST(WorkloadCache, ComputeExceptionClearsThePendingEntry) {
  WorkloadCache cache(1 << 20);
  const auto boom = [&]() -> WorkloadCache::Computed {
    throw std::runtime_error("generator failed");
  };
  EXPECT_THROW(cache.get_or_compute("k", 3, boom), std::runtime_error);
  // The key is free again: the next caller computes instead of deadlocking
  // on a pending entry that will never become ready.
  int computes = 0;
  const auto fn = [&] {
    ++computes;
    return make_value(5, 10);
  };
  EXPECT_EQ(as_int(cache.get_or_compute("k", 3, fn)), 5);
  EXPECT_EQ(computes, 1);
}

}  // namespace
}  // namespace fairsched::exp
