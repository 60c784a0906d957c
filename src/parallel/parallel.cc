#include "parallel/parallel.h"

#include <algorithm>
#include <stdexcept>

namespace fairsched::par {

OrgId ParallelInstance::add_org(std::uint32_t machines) {
  if (finalized_) throw std::logic_error("add_org after finalize");
  machines_.push_back(machines);
  jobs_.emplace_back();
  total_machines_ += machines;
  return static_cast<OrgId>(machines_.size() - 1);
}

void ParallelInstance::add_job(OrgId org, Time release, Time processing,
                               std::uint32_t width) {
  if (finalized_) throw std::logic_error("add_job after finalize");
  if (org >= machines_.size()) throw std::out_of_range("unknown org");
  if (release < 0 || processing <= 0 || width == 0) {
    throw std::invalid_argument("add_job: invalid job parameters");
  }
  jobs_[org].push_back(ParallelJob{org, 0, release, processing, width});
}

void ParallelInstance::finalize() {
  if (finalized_) return;
  finalized_ = true;
  for (OrgId u = 0; u < machines_.size(); ++u) {
    auto& jobs = jobs_[u];
    std::stable_sort(jobs.begin(), jobs.end(),
                     [](const ParallelJob& a, const ParallelJob& b) {
                       return a.release < b.release;
                     });
    for (std::uint32_t i = 0; i < jobs.size(); ++i) {
      jobs[i].index = i;
      total_work_ +=
          jobs[i].processing * static_cast<std::int64_t>(jobs[i].width);
    }
  }
}

ParallelEngine::ParallelEngine(const ParallelInstance& inst,
                               QueueDiscipline discipline)
    : inst_(&inst),
      discipline_(discipline),
      released_(inst.num_orgs(), 0),
      started_(inst.num_orgs(), 0),
      completed_(inst.num_orgs(), 0),
      work_done_(inst.num_orgs(), 0),
      psi2_(inst.num_orgs(), 0),
      starts_(inst.num_orgs()) {
  if (!inst.finalized_) {
    throw std::logic_error("ParallelEngine: instance not finalized");
  }
  free_machines_ = inst.total_machines();
  for (OrgId u = 0; u < inst.num_orgs(); ++u) {
    starts_[u].assign(inst.jobs_of(u).size(), kNoTime);
    for (const ParallelJob& j : inst.jobs_of(u)) {
      if (j.width > inst.total_machines()) {
        throw std::invalid_argument(
            "ParallelEngine: job wider than the platform");
      }
      releases_.push_back(Release{j.release, u});
    }
  }
  std::stable_sort(releases_.begin(), releases_.end(),
                   [](const Release& a, const Release& b) {
                     if (a.time != b.time) return a.time < b.time;
                     return a.org < b.org;
                   });
}

std::int64_t ParallelEngine::total_work_done() const {
  std::int64_t total = 0;
  for (std::int64_t w : work_done_) total += w;
  return total;
}

double ParallelEngine::utilization() const {
  if (now_ <= 0 || inst_->total_machines() == 0) return 0.0;
  return static_cast<double>(total_work_done()) /
         (static_cast<double>(inst_->total_machines()) *
          static_cast<double>(now_));
}

Time ParallelEngine::start_of(OrgId u, std::uint32_t index) const {
  return starts_[u][index];
}

bool ParallelEngine::try_starts() {
  bool any = false;
  for (;;) {
    // Candidate front jobs: released, FIFO-next of their organization.
    OrgId chosen = kNoOrg;
    Time chosen_release = kTimeInfinity;
    bool head_blocked = false;
    for (OrgId u = 0; u < inst_->num_orgs(); ++u) {
      if (started_[u] >= released_[u]) continue;  // nothing waiting
      const ParallelJob& job = inst_->jobs_of(u)[started_[u]];
      const bool fits = job.width <= free_machines_;
      if (discipline_ == QueueDiscipline::kStrictFifo) {
        // Strict global FIFO: the earliest-released front job must go
        // first; if it does not fit, nobody starts.
        if (job.release < chosen_release ||
            (job.release == chosen_release && chosen == kNoOrg)) {
          chosen = u;
          chosen_release = job.release;
          head_blocked = !fits;
        }
      } else {
        // Backfill: earliest-released among the *fitting* front jobs.
        if (fits && job.release < chosen_release) {
          chosen = u;
          chosen_release = job.release;
        }
      }
    }
    if (chosen == kNoOrg) return any;
    if (discipline_ == QueueDiscipline::kStrictFifo && head_blocked) {
      return any;  // the head waits for machines to drain
    }
    const ParallelJob& job = inst_->jobs_of(chosen)[started_[chosen]];
    if (job.width > free_machines_) return any;  // backfill: nothing fits
    started_[chosen]++;
    waiting_total_--;
    free_machines_ -= job.width;
    starts_[chosen][job.index] = now_;
    running_.push_back(RunningJob{chosen, job.index, job.width,
                                  job.processing});
    any = true;
  }
}

void ParallelEngine::run(Time horizon) {
  if (ran_) throw std::logic_error("ParallelEngine::run called twice");
  ran_ = true;

  auto fast_forward_psi = [&](Time to) {
    if (to <= now_) return;
    for (OrgId u = 0; u < inst_->num_orgs(); ++u) {
      psi2_[u] += 2 * work_done_[u] * (to - now_);
    }
    now_ = to;
  };

  while (now_ < horizon) {
    if (running_.empty() && waiting_total_ == 0) {
      if (next_release_ >= releases_.size()) {
        fast_forward_psi(horizon);
        break;
      }
      fast_forward_psi(std::min(horizon, releases_[next_release_].time));
      if (now_ >= horizon) break;
    }
    while (next_release_ < releases_.size() &&
           releases_[next_release_].time <= now_) {
      released_[releases_[next_release_].org]++;
      waiting_total_++;
      next_release_++;
    }
    try_starts();

    // Execute one step [now_, now_ + 1).
    for (std::size_t i = 0; i < running_.size();) {
      RunningJob& job = running_[i];
      work_done_[job.org] += job.width;
      job.remaining--;
      if (job.remaining == 0) {
        free_machines_ += job.width;
        completed_[job.org]++;
        running_[i] = running_.back();
        running_.pop_back();
      } else {
        ++i;
      }
    }
    for (OrgId u = 0; u < inst_->num_orgs(); ++u) {
      psi2_[u] += 2 * work_done_[u];
    }
    now_++;
  }
}

}  // namespace fairsched::par
