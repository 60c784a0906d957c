#include "sched/algorithm.h"

#include <stdexcept>

#include "sched/rand_fair.h"
#include "sched/ref.h"
#include "util/rng.h"

namespace fairsched {

RunResult PolicyAlgorithm::run(const Instance& inst, Time horizon,
                               std::uint64_t seed) const {
  EngineOptions options = options_;
  options.seed = seed;
  Engine engine(inst, options);
  RunResult result;
  engine.record_into(&result.schedule);
  std::unique_ptr<Policy> policy = maker_(seed);
  engine.run(*policy, horizon);
  result.utilities2.resize(inst.num_orgs());
  for (OrgId u = 0; u < inst.num_orgs(); ++u) {
    result.utilities2[u] = engine.psi2(u);
  }
  result.work_done = engine.total_work_done();
  return result;
}

RunResult RefAlgorithm::run(const Instance& inst, Time horizon,
                            std::uint64_t /*seed*/) const {
  RefScheduler ref(inst);
  ref.run(horizon);
  RunResult result;
  result.schedule = ref.take_schedule();
  result.utilities2 = ref.utilities2();
  result.work_done = ref.reference_work();
  return result;
}

RunResult RandAlgorithm::run(const Instance& inst, Time horizon,
                             std::uint64_t seed) const {
  RandScheduler rand(inst, RandOptions{samples_, seed});
  rand.run(horizon);
  RunResult result;
  result.schedule = rand.take_schedule();
  result.utilities2 = rand.utilities2();
  result.work_done = rand.work_done();
  return result;
}

void SwitchPolicy::reset(const PolicyView& view) {
  before_->reset(view);
  after_->reset(view);
}

OrgId SwitchPolicy::select(const PolicyView& view) {
  return view.now() < switch_at_ ? before_->select(view)
                                 : after_->select(view);
}

void SwitchPolicy::on_start(const PolicyView& view, OrgId org,
                            std::uint32_t index, MachineId machine) {
  before_->on_start(view, org, index, machine);
  after_->on_start(view, org, index, machine);
}

void SwitchPolicy::on_release(const PolicyView& view, OrgId org) {
  before_->on_release(view, org);
  after_->on_release(view, org);
}

void SwitchPolicy::on_complete(const PolicyView& view, OrgId org,
                               MachineId machine) {
  before_->on_complete(view, org, machine);
  after_->on_complete(view, org, machine);
}

void SwitchPolicy::on_advance(const PolicyView& view, Time dt) {
  before_->on_advance(view, dt);
  after_->on_advance(view, dt);
}

MixturePolicy::MixturePolicy(std::vector<Component> components,
                             std::uint64_t seed)
    : components_(std::move(components)), state_(seed) {
  if (components_.empty()) {
    throw std::invalid_argument("MixturePolicy: no components");
  }
  for (const Component& component : components_) {
    if (!(component.weight > 0)) {
      throw std::invalid_argument(
          "MixturePolicy: component weights must be positive");
    }
    total_weight_ += component.weight;
  }
}

void MixturePolicy::reset(const PolicyView& view) {
  for (Component& component : components_) component.policy->reset(view);
}

OrgId MixturePolicy::select(const PolicyView& view) {
  // One splitmix64 draw per decision: cheap, stateless across components,
  // and deterministic for a fixed (seed, decision index) stream.
  const double u = static_cast<double>(splitmix64(state_) >> 11) *
                   0x1.0p-53 * total_weight_;
  double cumulative = 0.0;
  for (Component& component : components_) {
    cumulative += component.weight;
    if (u < cumulative) return component.policy->select(view);
  }
  return components_.back().policy->select(view);
}

void MixturePolicy::on_start(const PolicyView& view, OrgId org,
                             std::uint32_t index, MachineId machine) {
  for (Component& component : components_) {
    component.policy->on_start(view, org, index, machine);
  }
}

void MixturePolicy::on_release(const PolicyView& view, OrgId org) {
  for (Component& component : components_) {
    component.policy->on_release(view, org);
  }
}

void MixturePolicy::on_complete(const PolicyView& view, OrgId org,
                                MachineId machine) {
  for (Component& component : components_) {
    component.policy->on_complete(view, org, machine);
  }
}

void MixturePolicy::on_advance(const PolicyView& view, Time dt) {
  for (Component& component : components_) {
    component.policy->on_advance(view, dt);
  }
}

}  // namespace fairsched
