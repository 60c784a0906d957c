#include "related/related.h"

#include <algorithm>
#include <memory>
#include <stdexcept>

namespace fairsched::related {

RelatedEngine::RelatedEngine(const Instance& inst,
                             std::vector<std::uint32_t> speeds,
                             SpeedPick pick)
    : inst_(&inst),
      pick_(pick),
      released_(inst.num_orgs(), 0),
      started_(inst.num_orgs(), 0),
      running_(inst.num_orgs(), 0),
      work_done_(inst.num_orgs(), 0),
      psi2_(inst.num_orgs(), 0),
      starts_(inst.num_orgs()) {
  if (speeds.size() != inst.total_machines()) {
    throw std::invalid_argument(
        "RelatedEngine: one speed per machine required");
  }
  machines_.resize(speeds.size());
  for (MachineId m = 0; m < speeds.size(); ++m) {
    if (speeds[m] == 0) {
      throw std::invalid_argument("RelatedEngine: speeds must be >= 1");
    }
    machines_[m].speed = speeds[m];
    capacity_ += speeds[m];
  }
  for (OrgId u = 0; u < inst.num_orgs(); ++u) {
    starts_[u].assign(inst.jobs_of(u).size(), kNoTime);
    for (const Job& j : inst.jobs_of(u)) {
      releases_.push_back(Release{j.release, u});
    }
  }
  std::stable_sort(releases_.begin(), releases_.end(),
                   [](const Release& a, const Release& b) {
                     if (a.time != b.time) return a.time < b.time;
                     return a.org < b.org;
                   });
}

std::int64_t RelatedEngine::total_work_done() const {
  std::int64_t total = 0;
  for (std::int64_t w : work_done_) total += w;
  return total;
}

double RelatedEngine::utilization() const {
  if (now_ <= 0 || capacity_ == 0) return 0.0;
  return static_cast<double>(total_work_done()) /
         (static_cast<double>(capacity_) * static_cast<double>(now_));
}

Time RelatedEngine::start_of(OrgId u, std::uint32_t index) const {
  return starts_[u][index];
}

MachineId RelatedEngine::pick_machine() const {
  MachineId best = kNoMachine;
  for (MachineId m = 0; m < machines_.size(); ++m) {
    if (machines_[m].busy) continue;
    if (best == kNoMachine) {
      best = m;
      continue;
    }
    switch (pick_) {
      case SpeedPick::kFastestFree:
        if (machines_[m].speed > machines_[best].speed) best = m;
        break;
      case SpeedPick::kSlowestFree:
        if (machines_[m].speed < machines_[best].speed) best = m;
        break;
      case SpeedPick::kFirstFree:
        break;  // lowest id already held
    }
  }
  return best;
}

void RelatedEngine::run(const Selector& select, Time horizon) {
  if (ran_) throw std::logic_error("RelatedEngine::run called twice");
  ran_ = true;

  std::uint32_t waiting_total = 0;
  std::uint32_t busy_machines = 0;

  auto fast_forward_psi = [&](Time to) {
    // Nothing executes between now_ and `to`; old units gain value.
    if (to <= now_) return;
    for (OrgId u = 0; u < inst_->num_orgs(); ++u) {
      psi2_[u] += 2 * work_done_[u] * (to - now_);
    }
    now_ = to;
  };

  while (now_ < horizon) {
    // Fast-forward across fully idle stretches.
    if (busy_machines == 0 && waiting_total == 0) {
      if (next_release_ >= releases_.size()) {
        fast_forward_psi(horizon);
        break;
      }
      fast_forward_psi(std::min(horizon, releases_[next_release_].time));
      if (now_ >= horizon) break;
    }

    // Admit releases due at or before now_.
    while (next_release_ < releases_.size() &&
           releases_[next_release_].time <= now_) {
      released_[releases_[next_release_].org]++;
      waiting_total++;
      next_release_++;
    }

    // Greedy scheduling of free machines.
    while (busy_machines < machines_.size() && waiting_total > 0) {
      const OrgId u = select(*this);
      if (u >= inst_->num_orgs() || waiting(u) == 0) {
        throw std::logic_error(
            "RelatedEngine: selector returned an org with no waiting job");
      }
      const MachineId m = pick_machine();
      MachineState& machine = machines_[m];
      const std::uint32_t index = started_[u]++;
      waiting_total--;
      machine.busy = true;
      machine.org = u;
      machine.job_index = index;
      machine.remaining = inst_->job(u, index).processing;
      starts_[u][index] = now_;
      running_[u]++;
      busy_machines++;
    }

    // Execute one time step [now_, now_ + 1).
    for (MachineState& machine : machines_) {
      if (!machine.busy) continue;
      const Time units =
          std::min<Time>(machine.speed, machine.remaining);
      work_done_[machine.org] += units;
      machine.remaining -= units;
      if (machine.remaining == 0) {
        machine.busy = false;
        running_[machine.org]--;
        busy_machines--;
      }
    }
    // psi2(t+1) = psi2(t) + 2 * C(t+1): every executed unit (old and new)
    // gains one time unit of value.
    for (OrgId u = 0; u < inst_->num_orgs(); ++u) {
      psi2_[u] += 2 * work_done_[u];
    }
    now_++;
  }
}

RelatedEngine::Selector fcfs_selector() {
  return [](const RelatedEngine& e) {
    OrgId best = kNoOrg;
    Time best_release = kTimeInfinity;
    for (OrgId u = 0; u < e.num_orgs(); ++u) {
      if (e.waiting(u) == 0) continue;
      const Time r = e.front_release(u);
      if (best == kNoOrg || r < best_release) {
        best = u;
        best_release = r;
      }
    }
    return best;
  };
}

RelatedEngine::Selector priority_selector(OrgId preferred) {
  return [preferred](const RelatedEngine& e) {
    if (e.waiting(preferred) > 0) return preferred;
    for (OrgId u = 0; u < e.num_orgs(); ++u) {
      if (e.waiting(u) > 0) return u;
    }
    return kNoOrg;
  };
}

RelatedEngine::Selector round_robin_selector() {
  auto cursor = std::make_shared<OrgId>(0);
  return [cursor](const RelatedEngine& e) {
    for (std::uint32_t step = 0; step < e.num_orgs(); ++step) {
      const OrgId u = (*cursor + step) % e.num_orgs();
      if (e.waiting(u) > 0) {
        *cursor = (u + 1) % e.num_orgs();
        return u;
      }
    }
    return kNoOrg;
  };
}

}  // namespace fairsched::related
