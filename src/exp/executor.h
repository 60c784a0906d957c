#pragma once

// The execution layer of the sweep engine: everything below a SweepPlan.
//
// ThreadPoolExecutor turns a plan (exp/sweep_plan.h) into a SweepResult
// in process: it shards the plan's owned tasks over the shared ThreadPool
// and folds records through a bounded reorder window in the fixed
// deterministic order (axis point, workload, instance, policy), so output
// is bit-identical whatever the thread count. Policy-independent prefixes
// flow through the WorkloadCache.
//
// It is the only executor. Work that leaves the process goes through the
// distributed dispatcher instead (dist/dispatcher.h): `dispatch` and
// `--processes=N` both hand the whole-run plan to it, and each shard-worker
// session at the other end runs its shard through a ThreadPoolExecutor.
//
// SweepDriver (exp/sweep.h) is the convenience facade over
// build_sweep_plan + ThreadPoolExecutor for whole in-process runs.

#include "exp/sweep_plan.h"

namespace fairsched::exp {

class WorkloadCache;

class ThreadPoolExecutor {
 public:
  ThreadPoolExecutor() = default;

  // Session mode (exp/dispatch_scenario.cc): `cache` is an externally
  // owned, process-lifetime WorkloadCache reused across execute() calls,
  // so a persistent shard-worker keeps prefixes warm between requests.
  // The cache should be retain-mode (planned use counts span one plan,
  // not a session) and must only be shared across plans with equal
  // fingerprints — in-memory keys are plan-positional. result.cache then
  // reports this call's *delta*, keeping artifacts comparable to a
  // per-run cache.
  explicit ThreadPoolExecutor(WorkloadCache* cache) : external_cache_(cache) {}

  // Executes the plan's owned tasks and returns the aggregate result
  // (cells the shard does not own stay empty). `sink` sees every record
  // in the deterministic fold order restricted to the plan's shard and
  // must copy what it keeps. Throws on execution failures; plans are
  // validated at build time.
  SweepResult execute(const SweepPlan& plan,
                      SweepDriver::Progress progress = nullptr,
                      SweepDriver::RecordSink sink = nullptr);

 private:
  WorkloadCache* external_cache_ = nullptr;
};

}  // namespace fairsched::exp
