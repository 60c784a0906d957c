#include "sched/direct_contr.h"

#include <stdexcept>

#include "core/types.h"

namespace fairsched {

OrgId DirectContrPolicy::select(const PolicyView& view) {
  ensure_synced(view);
  repair(view);
  const OrgId best = index_.argmin();
  if (best == KeyedArgmin<HalfUtil>::kNone) {
    throw std::logic_error("DirectContrPolicy::select: no waiting job");
  }
  return best;
}

void DirectContrPolicy::repair(const PolicyView& view) {
  if (view.now() == repaired_at_) return;
  for (const OrgId u : drift_list_) index_.set(u, key_of(view, u));
  repaired_at_ = view.now();
}

void DirectContrPolicy::on_release(const PolicyView& view, OrgId org) {
  // A waiting organization's key moves only with time (repaired at the next
  // decision timestamp) and at its own starts (re-keyed there), so only a
  // queue turning non-empty needs a key.
  if (!track(view) || index_.has(org)) return;
  index_.set(org, key_of(view, org));
  if (drifting_[org]) drift_list_.insert(org);
}

void DirectContrPolicy::on_complete(const PolicyView& view, OrgId /*org*/,
                                    MachineId /*machine*/) {
  // A completion moves no key at its own instant (accrual is time-based and
  // already folded to now), and the completing organization is drifting
  // anyway, so the next repair covers it.
  track(view);
}

void DirectContrPolicy::on_start(const PolicyView& view, OrgId org,
                                 std::uint32_t /*index*/, MachineId machine) {
  if (!track(view)) return;
  drifting_[org] = 1;
  const OrgId owner = view.machine_owner(machine);
  drifting_[owner] = 1;
  if (index_.has(owner)) drift_list_.insert(owner);
  if (view.waiting(org) > 0) {
    index_.set(org, key_of(view, org));
    drift_list_.insert(org);
  } else {
    index_.clear(org);
    drift_list_.erase(org);
  }
}

void DirectContrPolicy::rebuild(const PolicyView& view) {
  index_.init(view.num_orgs());
  drifting_.assign(view.num_orgs(), 0);
  drift_list_.init(view.num_orgs());
  for (OrgId u = 0; u < view.num_orgs(); ++u) {
    drifting_[u] = view.running(u) > 0 || view.busy_machines(u) > 0 ||
                   view.work_done(u) > 0 || view.contrib_work(u) > 0;
    if (view.waiting(u) == 0) continue;
    index_.set(u, key_of(view, u));
    if (drifting_[u]) drift_list_.insert(u);
  }
  repaired_at_ = view.now();
}

}  // namespace fairsched
