// paper-cells and strategy-grid: one op is SweepDriver::run of a
// one-instance sweep spec, built from the op's seed only.
//
// paper-cells is the paper's Table 1 cell on LPC-EGEE (6 orgs, horizon
// 10 000, REF baseline, the six Table 1 policies): REF and RAND do most
// of the work. strategy-grid is a one-instance Theorem 4.1 deviation
// sweep (5 orgs, horizon 10 000, honest + 8 deviations x 6 policies):
// engine runs, policy mirrors, strategy transforms and the prefix cache
// do the work, and REF runs once.

#include <algorithm>
#include <cstdio>
#include <exception>
#include <map>
#include <string>
#include <vector>

#include "bench.h"
#include "exp/scenarios.h"
#include "exp/sweep.h"
#include "exp/sweep_plan.h"
#include "layers.h"
#include "metrics/fairness.h"
#include "strategy/deviation.h"
#include "strategy/game.h"
#include "util/rng.h"
#include "workload/synthetic.h"

namespace perfbench {

namespace {

using fairsched::Instance;
using fairsched::RunResult;
using fairsched::Time;
using fairsched::exp::PolicyRegistry;
using fairsched::exp::SweepDriver;
using fairsched::exp::SweepResult;
using fairsched::exp::SweepSpec;

constexpr std::size_t kWarmupOps = 6;
// Ops of the traced run: fixed, so every count repeats exactly per seed.
constexpr std::size_t kTracedOps = 40;
// Enough ops for ten samples beyond p90, even on a slow host.
constexpr std::size_t kMinOps = 110;
constexpr double kMaxTimedSeconds = 120.0;

SweepSpec make_op_spec(bool strategy, std::uint64_t seed) {
  fairsched::exp::ScenarioOptions options;
  options.instances = 1;
  options.duration = 10000;
  options.threads = 1;
  options.seed = seed;
  if (strategy) {
    options.orgs = 5;
    return fairsched::exp::make_strategy_sweep(options);
  }
  options.orgs = 6;
  SweepSpec spec = fairsched::exp::make_table_sweep("table1", options);
  const std::string lpc = fairsched::preset_lpc_egee().name;
  std::erase_if(spec.workloads,
                [&](const auto& workload) { return workload.name != lpc; });
  return spec;
}

// The op's output check; returns "" when it passes.
std::string check_op(bool strategy, const SweepSpec& spec,
                     const SweepResult& result, const SweepLayers& layers) {
  if (result.cells.size() !=
      spec.policies.size() * fairsched::exp::num_axis_points(spec)) {
    return "unexpected cell count";
  }
  if (strategy) {
    if (result.cache.hits != 8 || result.cache.misses != 1 ||
        result.replayed_runs != 0) {
      return "strategy cache accounting is not 8 hits / 1 miss / 0 replayed";
    }
    return "";
  }
  if (!layers.have_baseline) return "no REF baseline run";
  // REF against itself is perfectly fair: the schedule REF returns, graded
  // by the metrics layer, realizes the utilities REF reports.
  if (fairsched::unfairness_ratio(layers.baseline_schedule_u2,
                                  layers.baseline_u2,
                                  layers.baseline_work) != 0.0 ||
      fairsched::relative_distance(layers.baseline_schedule_u2,
                                   layers.baseline_u2) != 0.0) {
    return "REF's schedule is not fair against REF's own utilities";
  }
  // Theorem 6.2: any two greedy schedules are within 3/4 in utilization.
  double best = layers.baseline_utilization;
  for (const auto& cell : result.cells) {
    best = std::max(best, cell.utilization.mean());
  }
  for (std::size_t p = 0; p < spec.policies.size(); ++p) {
    if (result.cells[p].utilization.mean() < 0.75 * best) {
      return spec.policies[p] + " utilization below 3/4 of the best";
    }
  }
  if (layers.baseline_utilization < 0.75 * best) {
    return "REF utilization below 3/4 of the best";
  }
  return "";
}

struct OpOutcome {
  double ms = 0.0;
  std::string error;  // "" = passed
};

OpOutcome run_op(const PolicyRegistry& registry, SweepLayers& layers,
                 bool strategy, std::uint64_t seed) {
  OpOutcome outcome;
  const SweepSpec spec = make_op_spec(strategy, seed);
  layers.have_baseline = false;
  const SweepDriver driver(registry);
  const auto t0 = Clock::now();
  try {
    const SweepResult result = driver.run(spec);
    outcome.ms = ms_since(t0);
    outcome.error = check_op(strategy, spec, result, layers);
  } catch (const std::exception& e) {
    outcome.ms = ms_since(t0);
    outcome.error = e.what();
  }
  return outcome;
}

// Direct timed calls into the workload, exp and strategy layers for the
// traced op's own seed, mirroring what the executor does inside the op.
struct Probes {
  double generate_ns = 0.0;
  double assign_ns = 0.0;
  double plan_ns = 0.0;
  double apply_ns = 0.0;
  std::uint64_t jobs = 0;
  std::uint64_t declared_jobs = 0;
  std::uint64_t unmatched_runs = 0;
};

}  // namespace

Result run_sweep_workload(const Options& options, bool strategy) {
  Result result;
  const char* name = strategy ? "strategy-grid" : "paper-cells";

  // --- set-up: registry copy + warm-up ops, repeated; median reported.
  std::vector<double> setup_s;
  SweepLayers checked;
  PolicyRegistry registry = make_checking_registry(checked);
  for (std::size_t r = 0; r < kSetupRepeats; ++r) {
    const auto t0 = Clock::now();
    registry = make_checking_registry(checked);
    for (std::size_t i = 0; i < kWarmupOps; ++i) {
      const OpOutcome op =
          run_op(registry, checked, strategy, warmup_seed(i));
      if (!op.error.empty()) {
        throw std::runtime_error(std::string("warm-up op failed: ") +
                                 op.error);
      }
    }
    setup_s.push_back(ms_since(t0) / 1000.0);
  }

  if (!options.trace) {
    std::vector<double> op_ms;
    std::vector<Batch> batches;
    const auto start = Clock::now();
    for (std::size_t i = kWarmupOps;; ++i) {
      const double elapsed = ms_since(start) / 1000.0;
      if ((elapsed >= options.seconds && op_ms.size() >= kMinOps) ||
          elapsed >= kMaxTimedSeconds) {
        break;
      }
      reset_peak_rss();
      const OpOutcome op =
          run_op(registry, checked, strategy, op_seed(options.seed, i));
      ++result.attempted;
      op_ms.push_back(op.ms);
      batches.push_back({1, op.ms, peak_rss_mb()});
      if (!op.error.empty()) result.fail_op(op.error);
    }
    std::vector<double> sorted = op_ms;
    const double p50 = percentile(sorted, 0.50);
    const double p90 = percentile(sorted, 0.90);
    add_end_to_end(result, batches, p50, p90, op_ms.size(), setup_s);
    return result;
  }

  // --- traced run: the same ops untraced and traced, interleaved.
  SweepLayers traced;
  SpanLog spans;
  traced.spans = &spans;
  const PolicyRegistry traced_registry = make_traced_registry(traced);
  const TickRate tick_rate;
  Probes probes;
  double untraced_ms = 0.0;
  double traced_wall_ms = 0.0;
  fairsched::exp::CacheStats cache;
  std::uint64_t replayed = 0;

  auto traced_op = [&](std::size_t index, std::uint64_t seed) {
    const SweepSpec spec = make_op_spec(strategy, seed);
    const fairsched::exp::SweepWorkload& workload = spec.workloads.at(0);
    // The executor seeds instance 0 of workload 0 with this value.
    const std::uint64_t instance_seed = fairsched::mix_seed(spec.seed, 0);
    auto t0 = Clock::now();
    const fairsched::SwfTrace window =
        fairsched::generate_window(workload.spec, spec.horizon, instance_seed);
    auto t1 = Clock::now();
    spans.add(index, "workload.generate", "probe", t0, t1);
    probes.generate_ns += ns_between(t0, t1);
    t0 = Clock::now();
    const Instance honest = fairsched::assign_synthetic_window(
        workload.spec, window, workload.orgs, workload.split,
        workload.zipf_s, instance_seed);
    t1 = Clock::now();
    spans.add(index, "workload.assign", "probe", t0, t1);
    probes.assign_ns += ns_between(t0, t1);
    probes.jobs += honest.num_jobs();
    t0 = Clock::now();
    const fairsched::exp::SweepPlan plan =
        fairsched::exp::build_sweep_plan(spec, PolicyRegistry::global());
    t1 = Clock::now();
    spans.add(index, "exp.plan", "probe", t0, t1);
    probes.plan_ns += ns_between(t0, t1);

    // strategy-grid: declared instances of every grid entry, and the
    // per-run evaluate_deviation estimate, matched to the run by the
    // deviator's declared job stream.
    std::vector<Instance> declared;
    const fairsched::OrgId deviator =
        strategy ? fairsched::exp::sweep_point_deviator(spec, 0) : 0;
    if (strategy) {
      declared.push_back(honest);
      for (std::size_t d = 1; d < spec.deviations.size(); ++d) {
        t0 = Clock::now();
        declared.push_back(fairsched::strategy::apply_deviation(
            honest, deviator, spec.deviations[d]));
        t1 = Clock::now();
        spans.add(index, "strategy.apply", "probe", t0, t1);
        probes.apply_ns += ns_between(t0, t1);
        probes.declared_jobs += declared.back().num_jobs();
      }
      traced.after_run = [&](const Instance& inst, Time horizon,
                             const RunResult& run) {
        const auto stream = inst.jobs_of(deviator);
        for (std::size_t d = 0; d < declared.size(); ++d) {
          if (!std::ranges::equal(declared[d].jobs_of(deviator), stream)) {
            continue;
          }
          std::vector<fairsched::HalfUtil> u2 = run.utilities2;
          const auto e0 = Clock::now();
          fairsched::strategy::evaluate_deviation(
              honest, inst, deviator, spec.deviations[d], run.schedule,
              horizon, u2);
          traced.evaluate_ns += ns_between(e0, Clock::now());
          return;
        }
        ++probes.unmatched_runs;
      };
    }

    traced.op = index;
    traced.have_baseline = false;
    const SweepDriver driver(traced_registry);
    t0 = Clock::now();
    std::string error;
    try {
      const SweepResult r = driver.run(spec);
      t1 = Clock::now();
      error = check_op(strategy, spec, r, traced);
      cache.hits += r.cache.hits;
      cache.misses += r.cache.misses;
      replayed += r.replayed_runs;
    } catch (const std::exception& e) {
      t1 = Clock::now();
      error = e.what();
    }
    spans.add(index, "op", "", t0, t1);
    traced_wall_ms += ms_between(t0, t1);
    traced.after_run = nullptr;
    ++result.attempted;
    if (!error.empty()) result.fail_op(error);
  };

  for (std::size_t k = 0; k < kTracedOps; ++k) {
    const std::size_t index = kWarmupOps + k;
    const std::uint64_t seed = op_seed(options.seed, index);
    // Alternate which side runs first, so drift hits both equally.
    if (k % 2 == 1) traced_op(index, seed);
    const OpOutcome plain = run_op(registry, checked, strategy, seed);
    ++result.attempted;
    untraced_ms += plain.ms;
    if (!plain.error.empty()) result.fail_op(plain.error);
    if (k % 2 == 0) traced_op(index, seed);
  }

  const double n = static_cast<double>(kTracedOps);
  const double ns_per_tick = tick_rate.ns_per_tick();
  const double op_ms = (traced_wall_ms - traced.probe_ns / 1e6) / n;
  std::map<std::string, double> m;
  m["workload.generate_ms"] = probes.generate_ns / 1e6 / n;
  m["workload.assign_ms"] = probes.assign_ns / 1e6 / n;
  m["workload.jobs"] = static_cast<double>(probes.jobs) / n;
  m["ref.ms"] = traced.ref_ns / 1e6 / n;
  m["ref.share"] = m["ref.ms"] / op_ms;
  m["ref.engine_events"] = static_cast<double>(traced.ref_engine_events) / n;
  m["ref.decisions"] = static_cast<double>(traced.ref_decisions) / n;
  m["rand.ms"] = traced.rand_ns / 1e6 / n;
  m["rand.share"] = m["rand.ms"] / op_ms;
  m["rand.coalitions"] = static_cast<double>(traced.rand_coalitions) / n;
  m["policy.ms"] = traced.policy_ns / 1e6 / n;
  m["policy.share"] = m["policy.ms"] / op_ms;
  m["policy.runs"] = static_cast<double>(traced.policy_runs) / n;
  const std::uint64_t events = traced.calls.releases + traced.calls.completions;
  m["sim.events"] = static_cast<double>(events) / n;
  m["sched.decisions"] = static_cast<double>(traced.calls.select.calls) / n;
  m["sim.events_per_s"] =
      traced.policy_ns > 0.0 ? static_cast<double>(events) /
                                   (traced.policy_ns / 1e9)
                             : 0.0;
  m["sched.select_ns_p50"] =
      static_cast<double>(traced.calls.select_hist.p50()) * ns_per_tick;
  m["sched.select_ns_p99"] =
      static_cast<double>(traced.calls.select_hist.p99()) * ns_per_tick;
  m["metrics.ms"] = traced.metrics_ns / 1e6 / n;
  m["exp.plan_ms"] = probes.plan_ns / 1e6 / n;
  m["exp.cache_hits"] = static_cast<double>(cache.hits) / n;
  m["exp.cache_misses"] = static_cast<double>(cache.misses) / n;
  m["exp.hit_rate"] = cache.hit_rate();
  m["exp.replayed_runs"] = static_cast<double>(replayed) / n;
  m["strategy.apply_ms"] = probes.apply_ns / 1e6 / n;
  m["strategy.evaluate_ms"] = traced.evaluate_ns / 1e6 / n;
  m["strategy.declared_jobs"] = static_cast<double>(probes.declared_jobs) / n;
  double layers_ms = 0.0;
  for (const char* layer :
       {"workload.generate_ms", "workload.assign_ms", "ref.ms", "rand.ms",
        "policy.ms", "metrics.ms", "exp.plan_ms", "strategy.apply_ms",
        "strategy.evaluate_ms"}) {
    layers_ms += m[layer];
  }
  m["exp.self_ms"] = op_ms - layers_ms;
  m["trace.overhead"] = traced_wall_ms / untraced_ms - 1.0;
  m["trace.layer_sum_share"] = op_ms / (untraced_ms / n);
  char line[256];
  std::snprintf(line, sizeof(line),
                "%s traced: %zu ops, untraced %.3f ms/op, traced %.3f ms/op "
                "(probes excluded), %llu unmatched strategy runs",
                name, kTracedOps, untraced_ms / n, op_ms,
                static_cast<unsigned long long>(probes.unmatched_runs));
  result.note(line);

  // The op leaves the serve and dist layers idle; measure them here at a
  // reduced size, so every layer has a reading on a gated workload.
  for (const auto& [metric, value] :
       trace_serve_layer(options, result, spans)) {
    m[metric] = value;
  }
  for (const auto& [metric, value] :
       trace_dist_layer(options, result, spans)) {
    m[metric] = value;
  }
  add_per_layer(result, m);
  const std::string path = options.out_dir + "/trace-" + name + ".jsonl";
  if (!spans.write(path)) result.note("could not write " + path);
  return result;
}

}  // namespace perfbench
