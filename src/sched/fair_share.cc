#include "sched/fair_share.h"

#include <stdexcept>

namespace fairsched {

OrgId RatioSharePolicyBase::select(const PolicyView& view) {
  ensure_synced(view);
  repair(view);
  const OrgId best = index_.argmin();
  if (best == KeyedArgmin<Key>::kNone) {
    throw std::logic_error("fair share select: no waiting job");
  }
  return best;
}

void RatioSharePolicyBase::repair(const PolicyView& view) {
  if (view.now() == repaired_at_) return;
  for (const OrgId u : drift_list_) index_.set(u, key_of(view, u));
  repaired_at_ = view.now();
}

void RatioSharePolicyBase::on_release(const PolicyView& view, OrgId org) {
  // A waiting organization's key moves only at its own starts and
  // completions (re-keyed there) and with time (repaired at the next
  // decision timestamp), so only a queue turning non-empty needs a key.
  if (!track(view) || index_.has(org)) return;
  index_.set(org, key_of(view, org));
  update_drift_list(org);
}

void RatioSharePolicyBase::on_complete(const PolicyView& view, OrgId org,
                                       MachineId /*machine*/) {
  if (!track(view)) return;
  // Refresh before the drift flag can drop (e.g. FAIRSHARE when the last
  // running job completes: the work accrued up to now must be folded into
  // the key while the organization still counts as drifting).
  if (index_.has(org)) index_.set(org, key_of(view, org));
  drifting_[org] = drifts(view, org);
  update_drift_list(org);
}

void RatioSharePolicyBase::on_start(const PolicyView& view, OrgId org,
                                    std::uint32_t /*index*/,
                                    MachineId /*machine*/) {
  if (!track(view)) return;
  drifting_[org] = drifts(view, org);
  if (view.waiting(org) > 0) {
    index_.set(org, key_of(view, org));
  } else {
    index_.clear(org);
  }
  update_drift_list(org);
}

void RatioSharePolicyBase::rebuild(const PolicyView& view) {
  const std::uint32_t n = view.num_orgs();
  index_.init(n);
  share_.resize(n);
  drifting_.assign(n, 0);
  drift_list_.init(n);
  for (OrgId u = 0; u < n; ++u) {
    share_[u] = view.share(u);
    drifting_[u] = drifts(view, u);
    if (view.waiting(u) > 0) index_.set(u, key_of(view, u));
    update_drift_list(u);
  }
  repaired_at_ = view.now();
}

double FairSharePolicy::metric(const PolicyView& view, OrgId u) const {
  // CPU time already allocated to u's jobs = completed unit parts
  // (sequential jobs execute at unit rate).
  return static_cast<double>(view.work_done(u));
}

bool FairSharePolicy::drifts(const PolicyView& view, OrgId u) const {
  return view.running(u) > 0;
}

double UtFairSharePolicy::metric(const PolicyView& view, OrgId u) const {
  return static_cast<double>(view.psi2(u)) / 2.0;
}

bool UtFairSharePolicy::drifts(const PolicyView& view, OrgId u) const {
  // psi accrues while jobs run and, through the work * dt term of the
  // closed form, whenever any work history exists.
  return view.running(u) > 0 || view.work_done(u) > 0;
}

double CurrFairSharePolicy::metric(const PolicyView& view, OrgId u) const {
  return static_cast<double>(view.running(u));
}

bool CurrFairSharePolicy::drifts(const PolicyView& /*view*/,
                                 OrgId /*u*/) const {
  return false;  // the running count only changes at events
}

}  // namespace fairsched
