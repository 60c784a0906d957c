#pragma once

// Bounded, thread-safe memoization for the sweep engine's policy-independent
// work (exp/sweep.cc). A sweep cell's cost splits into a prefix — workload
// generation, instance construction, the baseline reference run, and any
// policy run that no policy-bound axis varies — and a policy-dependent
// suffix. When several cells share a prefix key (they differ only in
// policy-bound axis values, e.g. the fair-share half-life), the first task
// to reach the key computes the prefix and every other task reuses it.
//
// Entries are type-erased (shared_ptr<const void>): the driver stores both
// whole prefixes and raw synthetic workload windows in one cache so a single
// --cache-mb budget governs everything. Concurrency contract:
//   * one compute per key: concurrent callers of get_or_compute for the same
//     key block until the first caller's compute finishes (per-key latch);
//   * computes run outside the cache lock, so distinct keys never serialize;
//   * eviction is LRU by estimated bytes; entries whose planned uses are
//     exhausted retire immediately (freeing budget without an eviction);
//   * an entry evicted under budget pressure is simply recomputed on the
//     next lookup — results are deterministic functions of the key, so
//     eviction can cost time but never changes output.

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <string>

namespace fairsched::exp {

// Counters reported in sweep summaries and BENCH_*.json. Hits, misses and
// evictions are deterministic for a fixed sweep plan as long as the budget
// never forces an eviction; under pressure the exact counts may vary with
// scheduling, but the sweep output never does.
struct CacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;  // == number of computes the cache ran
  std::uint64_t evictions = 0;
  std::size_t bytes_in_use = 0;
  std::size_t peak_bytes = 0;

  // hits / (hits + misses); 0.0 before the first lookup.
  double hit_rate() const;

  // Component-wise accumulation, used when folding per-shard stats into
  // the totals a merged sweep reports (peak_bytes sums too: the shards
  // were separate processes, so their peaks were concurrent budgets).
  void accumulate(const CacheStats& other);
};

class WorkloadCache {
 public:
  // What a compute callback returns: the value plus its estimated footprint
  // (charged against the byte budget; the cache adds no overhead estimate).
  struct Computed {
    std::shared_ptr<const void> value;
    std::size_t bytes = 0;
  };
  using ComputeFn = std::function<Computed()>;

  // max_bytes == 0 disables the cache: get_or_compute degenerates to calling
  // `compute` inline — no locking, no stats. This is the --no-cache path,
  // kept inside the class so SweepDriver has a single code path.
  //
  // `retain` keeps entries past their planned use count (and stores even
  // single-use values): the session-worker mode (exp/executor.h), where
  // one cache outlives many plan executions and a re-served shard must
  // find its prefixes still warm. Entries then leave only through LRU
  // eviction under the byte budget.
  explicit WorkloadCache(std::size_t max_bytes, bool retain = false);

  WorkloadCache(const WorkloadCache&) = delete;
  WorkloadCache& operator=(const WorkloadCache&) = delete;

  bool enabled() const { return max_bytes_ > 0; }
  std::size_t max_bytes() const { return max_bytes_; }

  // Returns the value for `key`, computing it via `compute` on first touch.
  // `uses` is the total number of get_or_compute calls the caller's plan
  // will make for this key; the entry retires once consumed that often.
  // uses <= 1 short-circuits to an unstored compute (a miss). When
  // `computed_here` is non-null it is set to whether THIS call paid for a
  // fresh compute (true) or reused another task's result (false: the
  // reuser did not pay the simulation cost).
  // If `compute` throws, the pending entry is removed, waiters restart, and
  // the exception propagates to this caller.
  std::shared_ptr<const void> get_or_compute(const std::string& key,
                                             std::size_t uses,
                                             const ComputeFn& compute,
                                             bool* computed_here = nullptr);

  CacheStats stats() const;

 private:
  struct Entry {
    std::shared_ptr<const void> value;
    std::size_t bytes = 0;
    bool ready = false;
    // Position in lru_ (valid only when ready).
    std::list<std::string>::iterator lru_pos;
  };

  // Both require mu_ held.
  void retire_locked(std::map<std::string, Entry>::iterator it);
  void evict_over_budget_locked();

  const std::size_t max_bytes_;
  const bool retain_;
  mutable std::mutex mu_;
  std::condition_variable ready_cv_;
  std::map<std::string, Entry> entries_;
  // Uses consumed so far per key. Kept outside Entry so it survives a
  // budget eviction: a recomputed entry must still retire after its
  // *original* planned use count, not squat for a fresh full count.
  // Erased at retirement, so it never outgrows the live key set.
  std::map<std::string, std::size_t> consumed_;
  std::list<std::string> lru_;  // least recently used at the front
  CacheStats stats_;
};

}  // namespace fairsched::exp
