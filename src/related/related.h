#pragma once

// Related (uniform-speed) machines extension.
//
// The paper proves the 3/4 utilization bound for *identical* machines
// (Theorem 6.2) and leaves related machines as an open question, suspecting
// "the loss of efficiency might be significant". This module provides an
// exact time-stepped simulator for machines with integer speeds so that the
// question can be probed empirically: bench_related_machines demonstrates
// that with related machines the greedy utilization ratio is NOT bounded by
// any constant — it degrades with the speed ratio (the machine *choice*,
// irrelevant for identical machines, becomes decisive).
//
// Model: machine j has integer speed s_j >= 1 and processes s_j units of
// its job per time step. A job of size p completes after its accumulated
// units reach p (the final step may be partial: the machine still occupies
// the whole slot, but only the remaining units count as executed work —
// work accounting stays conservative). Greedy, non-preemptive, FIFO per
// organization, exactly like the core model.
//
// The strategy-proof utility generalizes unchanged: every executed unit in
// slot i is worth (t - i) at time t; the simulator accrues 2*psi exactly.

#include <cstdint>
#include <functional>
#include <vector>

#include "core/instance.h"
#include "core/types.h"

namespace fairsched::related {

// Which free machine receives the next job. On identical machines this is
// irrelevant; on related machines it decides the efficiency.
enum class SpeedPick { kFastestFree, kSlowestFree, kFirstFree };

class RelatedEngine {
 public:
  // `speeds` has one entry per global machine id of `inst`; all >= 1.
  RelatedEngine(const Instance& inst, std::vector<std::uint32_t> speeds,
                SpeedPick pick);

  // Selection callback: called when at least one machine is free and at
  // least one organization has a waiting job; must return an organization
  // with waiting(u) > 0.
  using Selector = std::function<OrgId(const RelatedEngine&)>;

  // Runs the time-stepped simulation until `horizon`.
  void run(const Selector& select, Time horizon);

  // --- state / results -----------------------------------------------------
  Time now() const { return now_; }
  std::uint32_t num_orgs() const { return inst_->num_orgs(); }
  std::uint32_t waiting(OrgId u) const { return released_[u] - started_[u]; }
  Time front_release(OrgId u) const {
    return inst_->job(u, started_[u]).release;
  }
  std::uint32_t running(OrgId u) const { return running_[u]; }

  std::int64_t work_done(OrgId u) const { return work_done_[u]; }
  std::int64_t total_work_done() const;
  HalfUtil psi2(OrgId u) const { return psi2_[u]; }

  // Utilization relative to the platform's aggregate speed capacity:
  // executed units / (sum of speeds * t).
  double utilization() const;

  // Total speed capacity of the platform.
  std::int64_t capacity_per_step() const { return capacity_; }

  // Start time of job (org, index), or kNoTime if never started.
  Time start_of(OrgId u, std::uint32_t index) const;

 private:
  struct MachineState {
    std::uint32_t speed = 1;
    bool busy = false;
    OrgId org = kNoOrg;
    std::uint32_t job_index = 0;
    Time remaining = 0;  // units of the job still to execute
  };

  MachineId pick_machine() const;

  const Instance* inst_;
  SpeedPick pick_;
  std::vector<MachineState> machines_;
  std::int64_t capacity_ = 0;

  std::vector<std::uint32_t> released_;
  std::vector<std::uint32_t> started_;
  std::vector<std::uint32_t> running_;
  std::vector<std::int64_t> work_done_;
  std::vector<HalfUtil> psi2_;
  std::vector<std::vector<Time>> starts_;

  // Releases sorted by time (pointer-driven, as in the event engine).
  struct Release {
    Time time;
    OrgId org;
  };
  std::vector<Release> releases_;
  std::size_t next_release_ = 0;

  Time now_ = 0;
  bool ran_ = false;
};

// Ready-made selectors.
RelatedEngine::Selector fcfs_selector();
RelatedEngine::Selector priority_selector(OrgId preferred);
RelatedEngine::Selector round_robin_selector();

}  // namespace fairsched::related
