#include "exp/executor.h"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <utility>

#include "exp/workload_cache.h"
#include "metrics/fairness.h"
#include "metrics/utility.h"
#include "strategy/game.h"
#include "util/rng.h"
#include "util/thread_pool.h"
#include "workload/synthetic.h"

namespace fairsched::exp {

namespace {

double elapsed_ms(std::chrono::steady_clock::time_point since) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - since)
      .count();
}

// The policy-independent prefix of one (prefix group, workload, instance)
// cell family: the constructed instance, the baseline reference outcome,
// and the records of every policy run the whole group shares. Stored in
// the WorkloadCache; immutable once published.
struct SweepPrefix {
  Instance instance;
  std::vector<HalfUtil> baseline_utilities2;
  std::int64_t baseline_work_done = 0;
  double baseline_wall_ms = 0.0;  // reported once, by the computing task
  std::vector<RunRecord> shared_records;  // group-invariant policies, p order
};

std::size_t instance_bytes(const Instance& inst) {
  return sizeof(Instance) + inst.num_jobs() * sizeof(Job) +
         inst.total_machines() * sizeof(OrgId) +
         static_cast<std::size_t>(inst.num_orgs()) *
             (sizeof(Organization) + sizeof(std::vector<Job>) +
              sizeof(MachineId) + 32 /* name storage */);
}

std::size_t prefix_bytes(const SweepPrefix& prefix) {
  return sizeof(SweepPrefix) + instance_bytes(prefix.instance) +
         prefix.baseline_utilities2.size() * sizeof(HalfUtil) +
         prefix.shared_records.size() * sizeof(RunRecord);
}

}  // namespace

SweepResult ThreadPoolExecutor::execute(const SweepPlan& plan,
                                        SweepDriver::Progress progress,
                                        SweepDriver::RecordSink sink) {
  const SweepSpec& spec = plan.spec;
  const std::size_t num_workloads = plan.num_workloads;
  const std::size_t num_policies = plan.num_policies;
  const std::size_t num_local = plan.shard_tasks.size();

  const auto run_started = std::chrono::steady_clock::now();

  // Session workers pass a process-lifetime cache so prefixes stay warm
  // across requests; everyone else gets a per-run cache. With an external
  // cache the stats reported below are this call's delta, so artifacts
  // stay comparable whichever mode produced them.
  WorkloadCache local_cache(spec.cache_bytes);
  WorkloadCache& cache = external_cache_ ? *external_cache_ : local_cache;
  const CacheStats cache_before = cache.stats();

  SweepResult result;
  result.axis_points = plan.num_points;
  result.cells.assign(plan.num_cells(), SweepCell{});
  result.cache_enabled = cache.enabled();
  result.prefix_groups = plan.num_groups;

  // Streaming ordered fold. Tasks complete in scheduling order, which is
  // thread-count dependent; a bounded reorder window buffers completed
  // tasks until every earlier task has been folded, so the fold (and the
  // sink) always observe the fixed order (axis point, workload, instance,
  // policy) restricted to this shard, and peak memory stays O(window), not
  // O(runs). A worker that races more than `window` tasks ahead of the
  // fold cursor blocks; the worker holding the cursor task never blocks
  // (its slot is always free), so the sweep cannot deadlock.
  struct TaskOutput {
    bool ready = false;
    std::vector<RunRecord> records;
    double baseline_wall = 0.0;
    std::string progress_label;
  };
  ThreadPool pool(spec.threads);
  const std::size_t window =
      std::min(std::max<std::size_t>(num_local, 1),
               std::max<std::size_t>(64, 4 * pool.size()));
  std::vector<TaskOutput> slots(window);
  std::mutex mu;
  std::condition_variable cv;
  std::size_t cursor = 0;  // next local task index to fold
  std::exception_ptr abort_error;

  auto fold_ready_tasks = [&](std::unique_lock<std::mutex>& lock) {
    bool advanced = false;
    while (cursor < num_local && slots[cursor % window].ready) {
      TaskOutput out = std::move(slots[cursor % window]);
      slots[cursor % window] = TaskOutput{};
      ++cursor;
      advanced = true;
      for (const RunRecord& record : out.records) {
        SweepCell& cell = result.cells[(record.axis_point * num_workloads +
                                        record.workload) *
                                           num_policies +
                                       record.policy];
        cell.unfairness.add(record.unfairness);
        cell.rel_distance.add(record.rel_distance);
        cell.utilization.add(record.utilization);
        if (spec.is_strategy()) {
          cell.deviator_utility.add(record.deviator_utility);
          cell.deviator_flow.add(record.deviator_flow);
          cell.honest_utility.add(record.honest_utility);
        }
        cell.work_done += record.work_done;
        cell.wall_ms += record.wall_ms;
        result.total_wall_ms += record.wall_ms;
        result.replayed_runs += record.replayed ? 1 : 0;
        if (sink) sink(record);
      }
      result.baseline_wall_ms += out.baseline_wall;
      result.total_wall_ms += out.baseline_wall;
      if (progress) progress(out.progress_label);
    }
    if (advanced) {
      lock.unlock();
      cv.notify_all();
      lock.lock();
    }
  };

  pool.parallel_for(num_local, [&](std::size_t local) {
    try {
      const std::size_t task = plan.shard_tasks[local];
      const std::size_t a = plan.task_point(task);
      const std::size_t w = plan.task_workload(task);
      const std::size_t i = plan.task_instance(task);
      const std::size_t g = plan.group_of[a];
      const SweepWorkload& workload =
          plan.bound_workloads[a * num_workloads + w];
      const Time horizon = plan.horizons[a];
      // The seed depends only on (workload, instance), so every axis point
      // reruns the same window population: axis series are paired samples,
      // and axis-free sweeps keep their pre-axis seeding bit-for-bit. It is
      // also what lets axis points of one prefix group share cached work.
      const std::uint64_t seed = mix_seed(spec.seed, w * spec.instances + i);

      // Strategy sweeps: this point's deviation of the honest instance.
      // Derived lazily once per task (every policy of the point plays the
      // same declared stream) from the shared honest prefix — which is
      // exactly what the strategy axis scope shares across the grid.
      const bool is_strategy = spec.is_strategy();
      const strategy::DeviationSpec deviation = plan.point_deviations[a];
      const OrgId deviator = plan.point_deviators[a];
      std::shared_ptr<const Instance> declared_cache;
      auto declared_for = [&](const SweepPrefix& prefix) -> const Instance& {
        if (!is_strategy ||
            deviation.kind == strategy::DeviationSpec::Kind::kHonest) {
          return prefix.instance;
        }
        if (!declared_cache) {
          declared_cache = std::make_shared<const Instance>(
              strategy::apply_deviation(prefix.instance, deviator,
                                        deviation));
        }
        return *declared_cache;
      };

      // One policy execution against a prefix's instance/baseline. Group-
      // invariant policies have equal bound specs at every point of the
      // group, so a record computed here is bit-identical wherever in the
      // group it is replayed (axis_point is patched by the consumer).
      auto run_policy = [&](const SweepPrefix& prefix, std::size_t p) {
        const auto t0 = std::chrono::steady_clock::now();
        // The registry seam: every policy runs behind the one Algorithm
        // interface, whatever its shape (engine policy, REF, RAND, or a
        // config-defined composition). Strategy sweeps schedule the
        // *declared* instance; the honest prefix instance stays the
        // metrics' ground truth.
        const Instance& exec_instance = declared_for(prefix);
        RunResult r =
            plan.registry
                ->instantiate(plan.bound_algorithms[a * num_policies + p])
                ->run(exec_instance, horizon, seed);
        RunRecord record;
        record.axis_point = a;
        record.workload = w;
        record.policy = p;
        record.instance = i;
        record.seed = seed;
        record.wall_ms = elapsed_ms(t0);
        record.work_done = r.work_done;
        record.utilization = utilization_ratio(
            r.work_done, exec_instance.total_machines(), horizon);
        if (is_strategy) {
          // Grades the schedule against true job sizes and corrects the
          // deviator's utility in r.utilities2 (misreport), so the
          // fairness metrics below compare true outcomes.
          const strategy::StrategyOutcome outcome =
              strategy::evaluate_deviation(prefix.instance, exec_instance,
                                           deviator, deviation, r.schedule,
                                           horizon, r.utilities2);
          record.deviator_utility = outcome.deviator_utility;
          record.deviator_flow = outcome.deviator_flow;
          record.honest_utility = outcome.honest_utility;
        }
        if (plan.has_baseline) {
          record.unfairness =
              unfairness_ratio(r.utilities2, prefix.baseline_utilities2,
                               prefix.baseline_work_done);
          record.rel_distance =
              relative_distance(r.utilities2, prefix.baseline_utilities2);
        }
        return record;
      };

      // Instance construction. Synthetic generation routes through the
      // shared-window sub-cache when a second prefix family will ask for
      // the window in this shard (families differing in consortium shape
      // but not horizon).
      auto make_instance = [&]() -> Instance {
        const std::size_t planned_uses = plan.window_uses.at({w, horizon});
        if (workload.kind == SweepWorkload::Kind::kSynthetic &&
            cache.enabled() && planned_uses > 1) {
          const std::string window_key = "w|" + std::to_string(w) + "|" +
                                         std::to_string(i) + "|" +
                                         std::to_string(horizon);
          const auto window = std::static_pointer_cast<const SwfTrace>(
              cache.get_or_compute(window_key, planned_uses, [&]() {
                auto trace = std::make_shared<const SwfTrace>(
                    generate_window(workload.spec, horizon, seed));
                return WorkloadCache::Computed{trace, window_bytes(*trace)};
              }));
          return assign_synthetic_window(workload.spec, *window,
                                         workload.orgs, workload.split,
                                         workload.zipf_s, seed);
        }
        return make_workload_instance(workload, horizon, seed);
      };

      // The policy-independent prefix: instance, baseline run, group-
      // invariant policy runs. Computed by the first task of the prefix
      // group to get here; the cache latches the rest until it is ready.
      auto compute_prefix = [&]() -> WorkloadCache::Computed {
        auto entry = std::make_shared<SweepPrefix>();
        entry->instance = make_instance();
        if (plan.has_baseline) {
          const auto t0 = std::chrono::steady_clock::now();
          RunResult ref = plan.registry->instantiate(plan.baseline)
                              ->run(entry->instance, horizon, seed);
          entry->baseline_wall_ms = elapsed_ms(t0);
          entry->baseline_utilities2 = std::move(ref.utilities2);
          entry->baseline_work_done = ref.work_done;
        }
        for (std::size_t p = 0; p < num_policies; ++p) {
          if (plan.shared_slot[g * num_policies + p] == SweepPlan::kNoSlot) {
            continue;
          }
          entry->shared_records.push_back(run_policy(*entry, p));
        }
        return {entry, prefix_bytes(*entry)};
      };

      bool computed_here = true;
      const std::string prefix_key = "p|" + std::to_string(g) + "|" +
                                     std::to_string(w) + "|" +
                                     std::to_string(i);
      const auto prefix = std::static_pointer_cast<const SweepPrefix>(
          cache.get_or_compute(prefix_key, plan.group_size[g],
                               compute_prefix, &computed_here));

      TaskOutput out;
      out.records.resize(num_policies);
      out.baseline_wall = computed_here ? prefix->baseline_wall_ms : 0.0;
      for (std::size_t p = 0; p < num_policies; ++p) {
        const std::size_t slot = plan.shared_slot[g * num_policies + p];
        if (slot != SweepPlan::kNoSlot) {
          RunRecord record = prefix->shared_records[slot];
          record.axis_point = a;  // any group member may have computed it
          if (!computed_here) {
            record.wall_ms = 0.0;  // walls stay with the task that paid them
            record.replayed = true;
          }
          out.records[p] = record;
        } else {
          out.records[p] = run_policy(*prefix, p);
        }
        out.records[p].run_id = plan.run_id(task, p);
      }
      out.progress_label = workload.name + " #" + std::to_string(i);
      out.ready = true;

      std::unique_lock<std::mutex> lock(mu);
      cv.wait(lock, [&] {
        return abort_error != nullptr || local < cursor + window;
      });
      if (abort_error) std::rethrow_exception(abort_error);
      slots[local % window] = std::move(out);
      fold_ready_tasks(lock);
    } catch (...) {
      {
        std::lock_guard<std::mutex> lock(mu);
        if (!abort_error) abort_error = std::current_exception();
      }
      cv.notify_all();
      throw;
    }
  });

  result.cache = cache.stats();
  if (external_cache_) {
    // Counters become this run's delta; the byte gauges stay absolute
    // (they describe the live cache, not this run).
    result.cache.hits -= cache_before.hits;
    result.cache.misses -= cache_before.misses;
    result.cache.evictions -= cache_before.evictions;
  }
  result.elapsed_ms = elapsed_ms(run_started);
  return result;
}

}  // namespace fairsched::exp
