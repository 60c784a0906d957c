#include "layers.h"

#include <string>
#include <utility>

#include "core/coalition.h"
#include "metrics/fairness.h"
#include "metrics/utility.h"
#include "sched/rand_fair.h"
#include "sched/ref.h"

namespace perfbench {

using fairsched::Algorithm;
using fairsched::Instance;
using fairsched::OrgId;
using fairsched::Policy;
using fairsched::PolicySpec;
using fairsched::PolicyView;
using fairsched::RunResult;
using fairsched::Time;
using fairsched::exp::PolicyRegistry;

namespace {

// Keeps probe results observable so the calls are never elided.
volatile double g_probe_sink = 0.0;

void record_baseline(SweepLayers& layers, const Instance& inst,
                     Time horizon, const RunResult& result) {
  layers.have_baseline = true;
  layers.baseline_u2 = result.utilities2;
  layers.baseline_schedule_u2 =
      fairsched::sp_half_utilities(inst, result.schedule, horizon);
  layers.baseline_work = result.work_done;
  layers.baseline_utilization =
      fairsched::resource_utilization(inst, result.schedule, horizon);
}

// The executor computes these three per non-baseline run; timing the same
// calls on the same schedule estimates the metrics layer's share.
void metrics_probe(SweepLayers& layers, const Instance& inst, Time horizon,
                   const RunResult& result) {
  const auto t0 = Clock::now();
  double sink = fairsched::resource_utilization(inst, result.schedule,
                                                horizon);
  if (layers.have_baseline) {
    sink += fairsched::unfairness_ratio(result.utilities2,
                                        layers.baseline_u2,
                                        layers.baseline_work);
    sink += fairsched::relative_distance(result.utilities2,
                                         layers.baseline_u2);
  }
  g_probe_sink = sink;
  layers.metrics_ns += ns_between(t0, Clock::now());
}

// Per-run bookkeeping after an algorithm span [t0, t1): for non-baseline
// runs the metrics probe and the optional hook; then the span record, and
// the probe time all of it took.
void after_span(SweepLayers& layers, const char* layer, const Instance& inst,
                Time horizon, const RunResult& result, Clock::time_point t0,
                Clock::time_point t1, bool baseline) {
  if (!baseline) {
    metrics_probe(layers, inst, horizon, result);
    if (layers.after_run) layers.after_run(inst, horizon, result);
  }
  if (layers.spans) layers.spans->add(layers.op, layer, "op", t0, t1);
  layers.probe_ns += ns_between(t1, Clock::now());
}

class CapturingRef final : public Algorithm {
 public:
  CapturingRef(std::unique_ptr<Algorithm> inner, SweepLayers& layers)
      : inner_(std::move(inner)), layers_(layers) {}

  RunResult run(const Instance& inst, Time horizon,
                std::uint64_t seed) const override {
    RunResult result = inner_->run(inst, horizon, seed);
    record_baseline(layers_, inst, horizon, result);
    return result;
  }

 private:
  std::unique_ptr<Algorithm> inner_;
  SweepLayers& layers_;
};

// RefAlgorithm::run through the public RefScheduler, so the per-coalition
// engines can be counted on the same instance.
class TracedRef final : public Algorithm {
 public:
  explicit TracedRef(SweepLayers& layers) : layers_(layers) {}

  RunResult run(const Instance& inst, Time horizon,
                std::uint64_t /*seed*/) const override {
    const auto t0 = Clock::now();
    fairsched::RefScheduler ref(inst);
    ref.run(horizon);
    RunResult result;
    result.schedule = ref.schedule();
    result.utilities2 = ref.utilities2();
    result.work_done = ref.reference_work();
    const auto t1 = Clock::now();
    layers_.ref_ns += ns_between(t0, t1);
    const fairsched::Coalition::Mask masks =
        fairsched::Coalition::grand(inst.num_orgs()).mask();
    for (fairsched::Coalition::Mask m = 1; m <= masks; ++m) {
      const fairsched::Engine& engine = ref.engine(fairsched::Coalition(m));
      layers_.ref_engine_events += engine.events_processed();
      layers_.ref_decisions += engine.decisions_made();
    }
    record_baseline(layers_, inst, horizon, result);
    after_span(layers_, "ref", inst, horizon, result, t0, t1, true);
    return result;
  }

 private:
  SweepLayers& layers_;
};

// RandAlgorithm::run through the public RandScheduler, for its coalition
// count.
class TracedRand final : public Algorithm {
 public:
  TracedRand(std::size_t samples, SweepLayers& layers)
      : samples_(samples), layers_(layers) {}

  RunResult run(const Instance& inst, Time horizon,
                std::uint64_t seed) const override {
    const auto t0 = Clock::now();
    fairsched::RandScheduler rand(inst, fairsched::RandOptions{samples_, seed});
    rand.run(horizon);
    RunResult result;
    result.schedule = rand.schedule();
    result.utilities2 = rand.utilities2();
    result.work_done = rand.work_done();
    const auto t1 = Clock::now();
    layers_.rand_ns += ns_between(t0, t1);
    layers_.rand_coalitions += rand.distinct_coalitions();
    after_span(layers_, "rand", inst, horizon, result, t0, t1, false);
    return result;
  }

 private:
  std::size_t samples_;
  SweepLayers& layers_;
};

// Times Algorithm::run of a policy-shaped entry; the policy inside is a
// TracedPolicy, so select/notify calls are accounted too.
class TracedPolicyRun final : public Algorithm {
 public:
  TracedPolicyRun(std::unique_ptr<Algorithm> inner, SweepLayers& layers)
      : inner_(std::move(inner)), layers_(layers) {}

  RunResult run(const Instance& inst, Time horizon,
                std::uint64_t seed) const override {
    const auto t0 = Clock::now();
    RunResult result = inner_->run(inst, horizon, seed);
    const auto t1 = Clock::now();
    layers_.policy_ns += ns_between(t0, t1);
    layers_.policy_runs += 1;
    after_span(layers_, "policy", inst, horizon, result, t0, t1, false);
    return result;
  }

 private:
  std::unique_ptr<Algorithm> inner_;
  SweepLayers& layers_;
};

}  // namespace

// Runs `call`, timing it into `span` when the span's sample is due.
template <typename Call>
void sampled(SampledSpan& span, Call&& call) {
  if (!span.due()) {
    call();
    return;
  }
  const std::uint64_t t0 = ticks();
  call();
  span.add(ticks() - t0);
}

void TracedPolicy::reset(const PolicyView& view) {
  sampled(calls_.notify, [&] { inner_->reset(view); });
}

OrgId TracedPolicy::select(const PolicyView& view) {
  if (!calls_.select.due()) return inner_->select(view);
  const std::uint64_t t0 = ticks();
  const OrgId org = inner_->select(view);
  const std::uint64_t dt = ticks() - t0;
  calls_.select.add(dt);
  calls_.select_hist.record(dt);
  return org;
}

void TracedPolicy::on_start(const PolicyView& view, OrgId org,
                            std::uint32_t index,
                            fairsched::MachineId machine) {
  sampled(calls_.notify,
          [&] { inner_->on_start(view, org, index, machine); });
}

void TracedPolicy::on_release(const PolicyView& view, OrgId org) {
  ++calls_.releases;
  sampled(calls_.notify, [&] { inner_->on_release(view, org); });
}

void TracedPolicy::on_complete(const PolicyView& view, OrgId org,
                               fairsched::MachineId machine) {
  ++calls_.completions;
  sampled(calls_.notify, [&] { inner_->on_complete(view, org, machine); });
}

void TracedPolicy::on_advance(const PolicyView& view, Time dt) {
  sampled(calls_.notify, [&] { inner_->on_advance(view, dt); });
}

PolicyRegistry make_checking_registry(SweepLayers& layers) {
  PolicyRegistry registry = PolicyRegistry::global();
  PolicyRegistry::Definition ref = *registry.find("ref");
  PolicyRegistry::AlgorithmFactory inner = ref.algorithm;
  ref.algorithm = [inner, &layers](const PolicySpec& spec) {
    return std::make_unique<CapturingRef>(inner(spec), layers);
  };
  registry.register_policy("ref", std::move(ref));
  return registry;
}

PolicyRegistry make_traced_registry(SweepLayers& layers) {
  PolicyRegistry registry = PolicyRegistry::global();
  for (const std::string& key : registry.names()) {
    PolicyRegistry::Definition def = *registry.find(key);
    if (key == "ref") {
      def.algorithm = [&layers](const PolicySpec&) {
        return std::make_unique<TracedRef>(layers);
      };
    } else if (key == "rand") {
      def.algorithm = [&layers](const PolicySpec& spec) {
        return std::make_unique<TracedRand>(
            static_cast<std::size_t>(spec.params.at("samples").int_value),
            layers);
      };
    } else if (def.policy) {
      // Policy-shaped entries become algorithm-shaped ones running the
      // same PolicyAlgorithm, so the whole run can be timed; the content
      // identity is untouched, so plan fingerprints and cache keys match.
      PolicyRegistry::PolicyFactory make = std::move(def.policy);
      const fairsched::EngineOptions engine_options = def.engine_options;
      def.policy = nullptr;
      def.algorithm = [make, engine_options, &layers](const PolicySpec& spec) {
        auto maker = [make, spec, &layers](std::uint64_t seed) {
          return std::make_unique<TracedPolicy>(make(spec, seed),
                                                layers.calls);
        };
        return std::make_unique<TracedPolicyRun>(
            std::make_unique<fairsched::PolicyAlgorithm>(maker,
                                                         engine_options),
            layers);
      };
    } else {
      PolicyRegistry::AlgorithmFactory inner = def.algorithm;
      def.algorithm = [inner, &layers](const PolicySpec& spec) {
        return std::make_unique<TracedPolicyRun>(inner(spec), layers);
      };
    }
    registry.register_policy(key, std::move(def));
  }
  return registry;
}

}  // namespace perfbench
