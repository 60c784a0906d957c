#pragma once

// Rigid parallel jobs extension.
//
// The paper treats sequential jobs and notes that the fair scheduling
// approach "is also applicable for parallel jobs", but that "the loss of
// the global efficiency of an arbitrary greedy algorithm can be higher"
// than the 25% of Theorem 6.2 — left as future work. This module provides
// an exact time-stepped simulator for *rigid* jobs (a job needs `width`
// processors simultaneously for its whole duration) so the conjecture can
// be probed (bench_parallel_jobs).
//
// With rigid jobs the greedy notion itself splits in two:
//   * kStrictFifo — the globally earliest-released front job is served
//     strictly in order; while a wide job waits for enough processors to
//     drain, narrower jobs behind it cannot jump ahead. Not greedy in the
//     paper's sense: machines idle while released work exists.
//   * kBackfill — any organization whose front job fits may start
//     (per-organization FIFO is still honored). Greedy in the paper's
//     sense, but wide jobs can be starved.
// The gap between the two is exactly the fragmentation loss that does not
// exist for sequential jobs; bench_parallel_jobs quantifies it.
//
// Utility accounting generalizes psi_sp verbatim: a width-w job executes w
// unit parts per time step; a unit in slot i is worth (t - i) at time t.

#include <cstdint>
#include <vector>

#include "core/types.h"

namespace fairsched::par {

struct ParallelJob {
  OrgId org = kNoOrg;
  std::uint32_t index = 0;  // FIFO position within the organization
  Time release = 0;
  Time processing = 1;
  std::uint32_t width = 1;  // processors required simultaneously
};

class ParallelInstance {
 public:
  OrgId add_org(std::uint32_t machines);
  // Jobs must satisfy width >= 1 and width <= total machines at run time.
  void add_job(OrgId org, Time release, Time processing, std::uint32_t width);
  // Sorts each organization's jobs by release (stable) and freezes.
  void finalize();

  std::uint32_t num_orgs() const {
    return static_cast<std::uint32_t>(machines_.size());
  }
  std::uint32_t machines_of(OrgId u) const { return machines_[u]; }
  std::uint32_t total_machines() const { return total_machines_; }
  const std::vector<ParallelJob>& jobs_of(OrgId u) const { return jobs_[u]; }
  std::int64_t total_work() const { return total_work_; }

 private:
  std::vector<std::uint32_t> machines_;
  std::vector<std::vector<ParallelJob>> jobs_;
  std::uint32_t total_machines_ = 0;
  std::int64_t total_work_ = 0;
  bool finalized_ = false;

  friend class ParallelEngine;
};

enum class QueueDiscipline { kStrictFifo, kBackfill };

class ParallelEngine {
 public:
  ParallelEngine(const ParallelInstance& inst, QueueDiscipline discipline);

  void run(Time horizon);

  Time now() const { return now_; }
  std::int64_t work_done(OrgId u) const { return work_done_[u]; }
  std::int64_t total_work_done() const;
  HalfUtil psi2(OrgId u) const { return psi2_[u]; }
  double utilization() const;
  Time start_of(OrgId u, std::uint32_t index) const;
  // Completed job count per organization.
  std::uint32_t completed(OrgId u) const { return completed_[u]; }

 private:
  struct RunningJob {
    OrgId org;
    std::uint32_t index;
    std::uint32_t width;
    Time remaining;
  };

  // Starts every startable front job per the discipline; returns true if
  // any start happened (loop until quiescent).
  bool try_starts();

  const ParallelInstance* inst_;
  QueueDiscipline discipline_;

  std::vector<std::uint32_t> released_;
  std::vector<std::uint32_t> started_;
  std::vector<std::uint32_t> completed_;
  std::vector<std::int64_t> work_done_;
  std::vector<HalfUtil> psi2_;
  std::vector<std::vector<Time>> starts_;
  std::vector<RunningJob> running_;
  std::uint32_t free_machines_ = 0;
  std::uint32_t waiting_total_ = 0;

  struct Release {
    Time time;
    OrgId org;
  };
  std::vector<Release> releases_;
  std::size_t next_release_ = 0;

  Time now_ = 0;
  bool ran_ = false;
};

}  // namespace fairsched::par
