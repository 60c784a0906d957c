#pragma once

// DIRECTCONTR (Fig. 9): a polynomial heuristic for Shapley-fair scheduling.
//
// The contribution of an organization is estimated *directly*, without
// considering subcoalitions: the unit parts executed on organization u's
// machines generate psi_sp-value, and that value is credited to u as its
// estimated contribution phi~(u). The utility psi(u) is, as everywhere, the
// psi_sp-value of u's own jobs. Waiting jobs are started for the
// organization with the largest deficit phi~(u) - psi(u).
//
// The engine's contribution accounting implements the accrual; machines are
// taken in random order (MachinePick::kRandomFree), matching the random
// processor permutation in the paper's pseudo-code.
//
// Note on the published pseudo-code: Fig. 9's inner loop credits
// phi[own(J)] and psi[own(m)], i.e. contribution to the job owner and
// utility to the machine owner, which contradicts the surrounding text
// ("the job started on processor m increases the contribution of the owner
// of m"). We implement the text's semantics (see DESIGN.md).
//
// Incremental: argmax of the integer deficit = argmin of psi2 - contrib2
// (ties to the lower id, like the scan's first-strict-improvement rule).
// Both accounts accrue with time for any organization that ever ran a job
// or hosted one, so those keys drift between timestamps: the policy keeps a
// drift flag per organization, lists the flagged organizations that wait,
// and refreshes exactly those keys once per distinct decision timestamp.
// Within one timestamp no key moves (starting or completing a job adds no
// *accrued* value at that same instant), and a release into a queue that
// already waits moves none either.

#include <vector>

#include "sched/org_index.h"
#include "sim/policy.h"

namespace fairsched {

class DirectContrPolicy final : public IncrementalPolicy {
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
  // Minimized key: 2*psi(u) - 2*phi~(u), i.e. the negated doubled deficit.
  HalfUtil key_of(const PolicyView& view, OrgId u) const {
    return view.psi2(u) - view.contrib_psi2(u);
  }
  void repair(const PolicyView& view);

  KeyedArgmin<HalfUtil> index_;
  // Organizations whose key moves as time passes: anything with a running
  // job, a busy machine, or past work on either side of the accounting
  // (the closed-form accrual has a work * dt term, so history alone
  // drifts). Never cleared — work never decreases.
  std::vector<char> drifting_;
  // The drifting organizations that wait: exactly the keys repair moves.
  DenseIdList drift_list_;
  Time repaired_at_ = 0;
};

}  // namespace fairsched
