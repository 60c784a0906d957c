#pragma once

// Decorators over the public seams of the sched, sim and metrics layers,
// used by the traced runs. Nothing here reaches inside the library: the
// traced registry is a copy of PolicyRegistry::global() whose factories
// return wrapped algorithms and policies, and REF/RAND counts come from
// the public RefScheduler / RandScheduler accessors on the instance the
// sweep hands to the algorithm.

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "bench.h"
#include "core/instance.h"
#include "exp/policy_registry.h"
#include "sched/algorithm.h"
#include "sim/policy.h"
#include "util/latency_histogram.h"

namespace perfbench {

// Timing of a hot call (a select(), a notification, an event pull),
// sampled: every call is counted, one in kSamplePeriod is timed, and the
// total is scaled up. Timing every call would cost two cycle-counter
// reads per call, which is a large share of a call of tens of ns.
struct SampledSpan {
  static constexpr std::uint64_t kSamplePeriod = 64;

  std::uint64_t calls = 0;
  std::uint64_t sampled = 0;
  std::uint64_t sampled_ticks = 0;

  // Counts the call; true when this one is to be timed.
  bool due() { return calls++ % kSamplePeriod == 0; }
  void add(std::uint64_t dt) {
    ++sampled;
    sampled_ticks += dt;
  }
  double total_ticks() const {
    return sampled == 0 ? 0.0
                        : static_cast<double>(sampled_ticks) *
                              static_cast<double>(calls) /
                              static_cast<double>(sampled);
  }
};

// Fine-grained policy call accounting, in ticks (bench.h).
struct PolicyCalls {
  SampledSpan select;
  SampledSpan notify;  // reset and every on_* notification
  std::uint64_t releases = 0;
  std::uint64_t completions = 0;
  fairsched::LatencyHistogram select_hist;  // ticks per sampled select()
};

// Counts select() and every push notification of the wrapped policy,
// timing a sample of them.
class TracedPolicy final : public fairsched::Policy {
 public:
  TracedPolicy(std::unique_ptr<fairsched::Policy> inner, PolicyCalls& calls)
      : inner_(std::move(inner)), calls_(calls) {}

  void reset(const fairsched::PolicyView& view) override;
  fairsched::OrgId select(const fairsched::PolicyView& view) override;
  void on_start(const fairsched::PolicyView& view, fairsched::OrgId org,
                std::uint32_t index, fairsched::MachineId machine) override;
  void on_release(const fairsched::PolicyView& view,
                  fairsched::OrgId org) override;
  void on_complete(const fairsched::PolicyView& view, fairsched::OrgId org,
                   fairsched::MachineId machine) override;
  void on_advance(const fairsched::PolicyView& view,
                  fairsched::Time dt) override;

 private:
  std::unique_ptr<fairsched::Policy> inner_;
  PolicyCalls& calls_;
};

// What one sweep op's algorithm runs report. Times are steady_clock ns.
struct SweepLayers {
  double ref_ns = 0.0;
  double rand_ns = 0.0;
  double policy_ns = 0.0;
  // Bench-side estimates of executor work outside the algorithm spans,
  // measured by direct calls inside the op ...
  double metrics_ns = 0.0;
  double evaluate_ns = 0.0;
  // ... and everything the benchmark added inside the op (those calls,
  // counting loops, copies), subtracted from the traced op time.
  double probe_ns = 0.0;

  std::uint64_t ref_engine_events = 0;
  std::uint64_t ref_decisions = 0;
  std::uint64_t rand_coalitions = 0;
  std::uint64_t policy_runs = 0;
  PolicyCalls calls;

  // The baseline (REF) outcome of the current op, for the metrics probe
  // and the output check: the utilities REF reports, and the metrics
  // layer's own grading of the schedule REF returns.
  bool have_baseline = false;
  std::vector<fairsched::HalfUtil> baseline_u2;
  std::vector<fairsched::HalfUtil> baseline_schedule_u2;
  std::int64_t baseline_work = 0;
  double baseline_utilization = 0.0;

  // Optional per-run probe (strategy-grid's evaluate_deviation estimate);
  // its time is added to probe_ns by the caller of the hook.
  std::function<void(const fairsched::Instance&, fairsched::Time,
                     const fairsched::RunResult&)>
      after_run;

  SpanLog* spans = nullptr;
  std::uint64_t op = 0;
};

// A copy of the global registry whose `ref` entry records the baseline
// outcome into `layers` (utilities, work, utilization, the schedule's
// graded utilities) and nothing else:
// the untraced runs use it so every op's output can be checked.
fairsched::exp::PolicyRegistry make_checking_registry(SweepLayers& layers);

// A copy of the global registry where every entry is wrapped: `ref` and
// `rand` run through RefScheduler / RandScheduler so their counts can be
// read, policy-shaped entries run PolicyAlgorithm over a TracedPolicy,
// and each run's Algorithm::run span and a metrics probe land in `layers`.
fairsched::exp::PolicyRegistry make_traced_registry(SweepLayers& layers);

}  // namespace perfbench
