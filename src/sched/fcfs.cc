#include "sched/fcfs.h"

#include <stdexcept>

#include "core/types.h"

namespace fairsched {

OrgId FcfsPolicy::select(const PolicyView& view) {
  ensure_synced(view);
  const OrgId best = index_.argmin();
  if (best == KeyedArgmin<Time>::kNone) {
    throw std::logic_error("FcfsPolicy::select: no waiting job");
  }
  return best;
}

void FcfsPolicy::on_release(const PolicyView& view, OrgId org) {
  // The front job, and with it the key, only changes when the queue was
  // empty; a release behind a waiting front touches no index.
  if (!track(view) || index_.has(org)) return;
  index_.set(org, view.front_release(org));
}

void FcfsPolicy::on_complete(const PolicyView& view, OrgId /*org*/,
                             MachineId /*machine*/) {
  track(view);  // completions do not move any FCFS key
}

void FcfsPolicy::on_start(const PolicyView& view, OrgId org,
                          std::uint32_t /*index*/, MachineId /*machine*/) {
  if (!track(view)) return;
  if (view.waiting(org) > 0) {
    index_.set(org, view.front_release(org));
  } else {
    index_.clear(org);
  }
}

void FcfsPolicy::rebuild(const PolicyView& view) {
  index_.init(view.num_orgs());
  for (OrgId u = 0; u < view.num_orgs(); ++u) {
    if (view.waiting(u) > 0) index_.set(u, view.front_release(u));
  }
}

}  // namespace fairsched
