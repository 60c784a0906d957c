#pragma once

// First-come-first-served across organizations: starts the waiting job with
// the earliest release time (ties: lowest organization id). This is the
// "arbitrary greedy algorithm" the library uses wherever the paper only
// requires greediness — notably to evaluate the value of RAND's sampled
// coalitions (justified for unit jobs by Proposition 5.4), which RAND
// computes in closed form as FcfsValueCurve (sched/rand_fair.h;
// tests/test_rand.cc checks the two agree).
//
// Incremental: each waiting organization's key is its front job's release
// time; a start and a release into an empty queue touch one key, a release
// behind a waiting front touches none, so an attached run answers select()
// as an O(1) argmin (keys are time-invariant — no repair).

#include "sched/org_index.h"
#include "sim/policy.h"

namespace fairsched {

class FcfsPolicy final : public IncrementalPolicy {
 public:
  OrgId select(const PolicyView& view) override;
  void on_release(const PolicyView& view, OrgId org) override;
  void on_complete(const PolicyView& view, OrgId org,
                   MachineId machine) override;
  void on_start(const PolicyView& view, OrgId org, std::uint32_t index,
                MachineId machine) override;

 protected:
  void rebuild(const PolicyView& view) override;

 private:
  KeyedArgmin<Time> index_;
};

}  // namespace fairsched
