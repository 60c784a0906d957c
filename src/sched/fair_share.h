#pragma once

// The fair-share family (Section 7.1).
//
// FAIRSHARE (Kay & Lauder 1988): each organization has a target share (here:
// its fraction of contributed machines, as in the paper's experiments).
// Whenever a processor frees, organizations are ordered by the ratio
// (CPU time already allocated to the organization's jobs) / share, and a job
// of the lowest-ratio organization starts.
//
// UTFAIRSHARE: same allocation mechanism, but balances the strategy-proof
// utilities psi_sp instead of allocated CPU time.
//
// CURRFAIRSHARE: history-less variant — balances the number of *currently
// running* jobs against shares.
//
// Tie-breaking is by organization id for determinism. Organizations with a
// zero share are served only when no positive-share organization waits
// (their ratio is treated as +infinity).
//
// Incremental: the minimized key is one double, metric / share for a
// positive share and +infinity for a zero share. Finite ratios rank before
// every +infinity key and equal keys tie to the lower id, which is the
// scan's class-then-ratio-then-first-wins rule; the ratio is computed by
// the very same double expression, so scan and tree agree bit-for-bit.
// Shares are fixed for an engine's lifetime, so rebuild() caches them and
// no notification reads PolicyView::share. A release into a queue that
// already waits moves no key and touches no index. Keys whose metric
// accrues with wall time (FAIRSHARE while jobs run, UTFAIRSHARE once any
// work exists) carry a drift flag; the drifting organizations that wait
// are kept in a list, and repair refreshes exactly those once per distinct
// decision timestamp. CURRFAIRSHARE's metric only changes at events, so
// its list stays empty.

#include <limits>
#include <vector>

#include "sched/org_index.h"
#include "sim/policy.h"

namespace fairsched {

// Shared mirror for the min-ratio selection rule. Subclasses provide the
// balanced metric and the time-drift predicate.
class RatioSharePolicyBase : public IncrementalPolicy {
 public:
  OrgId select(const PolicyView& view) override;
  void on_release(const PolicyView& view, OrgId org) override;
  void on_complete(const PolicyView& view, OrgId org,
                   MachineId machine) override;
  void on_start(const PolicyView& view, OrgId org, std::uint32_t index,
                MachineId machine) override;

 protected:
  void rebuild(const PolicyView& view) override;

  // The balanced quantity, exactly as the historical scan computed it.
  virtual double metric(const PolicyView& view, OrgId u) const = 0;
  // Whether u's metric changes as time passes (given current state).
  virtual bool drifts(const PolicyView& view, OrgId u) const = 0;

 private:
  // metric/share, +infinity for a zero share: positive-share organizations
  // first, then smaller ratio, ties to the lower id via the argmin tree.
  using Key = double;
  Key key_of(const PolicyView& view, OrgId u) const {
    const double share = share_[u];
    if (share <= 0.0) return std::numeric_limits<double>::infinity();
    return metric(view, u) / share;
  }
  // Keeps u in drift_list_ iff it drifts and waits.
  void update_drift_list(OrgId u) {
    if (drifting_[u] && index_.has(u)) {
      drift_list_.insert(u);
    } else {
      drift_list_.erase(u);
    }
  }
  void repair(const PolicyView& view);

  KeyedArgmin<Key> index_;
  std::vector<double> share_;
  std::vector<char> drifting_;
  DenseIdList drift_list_;
  Time repaired_at_ = 0;
};

class FairSharePolicy final : public RatioSharePolicyBase {
 protected:
  double metric(const PolicyView& view, OrgId u) const override;
  bool drifts(const PolicyView& view, OrgId u) const override;
};

class UtFairSharePolicy final : public RatioSharePolicyBase {
 protected:
  double metric(const PolicyView& view, OrgId u) const override;
  bool drifts(const PolicyView& view, OrgId u) const override;
};

class CurrFairSharePolicy final : public RatioSharePolicyBase {
 protected:
  double metric(const PolicyView& view, OrgId u) const override;
  bool drifts(const PolicyView& view, OrgId u) const override;
};

}  // namespace fairsched
