#pragma once

// Utility functions over schedules.
//
// The central one is the paper's strategy-proof utility psi_sp (Eq. 3):
//
//   psi_sp(sigma, t) = sum over placed jobs (s, p), s <= t, of
//       min(p, t - s) * ( t - (s + min(s + p - 1, t - 1)) / 2 )
//
// Interpretation: a job of length p is p unit tasks started at consecutive
// time moments; a unit task occupying slot i (i.e. interval [i, i+1))
// contributes (t - i) to the utility at time t. psi_sp is the unique utility
// (up to affine constants, Theorem 4.1) satisfying task anonymity in start
// times, task anonymity in task count, and strategy-resistance under
// merge/split.
//
// To keep arithmetic exact we work in *half-units*: HalfUtil = 2 * psi.
// All library code compares utilities in half-units; convert to double
// time-unit values only for reporting.
//
// Classic scheduling objectives (flow time, turnaround, makespan, tardiness,
// utilization) are provided for comparison experiments and for the
// strategy-proofness ablation (bench_strategyproof).
//
// Every reader below looks up the jobs of a schedule's placements through
// placed_job, so it throws std::out_of_range, naming the placement's org
// and index, when `inst` has no such job.

#include <cstdint>
#include <vector>

#include "core/instance.h"
#include "core/schedule.h"
#include "core/types.h"

namespace fairsched {

// The job placement `p` refers to. Throws std::out_of_range naming p's org
// and index when `inst` has no such job, so a schedule that does not
// belong to `inst` fails loudly instead of reading out of bounds.
const Job& placed_job(const Instance& inst, const Placement& p);

// --- psi_sp ---------------------------------------------------------------

// 2 * psi_sp contribution of one placed job (start s, processing p) at time
// t. Zero when s >= t (nothing executed yet). Exact integer arithmetic.
HalfUtil sp_job_half_utility(Time start, Time processing, Time t);

// 2 * psi_sp of organization `org` in `schedule` at time t.
HalfUtil sp_org_half_utility(const Instance& inst, const Schedule& schedule,
                             OrgId org, Time t);

// Vector of 2 * psi_sp per organization.
std::vector<HalfUtil> sp_half_utilities(const Instance& inst,
                                        const Schedule& schedule, Time t);

// 2 * v(sigma, t): the coalition value = sum over organizations.
HalfUtil sp_half_value(const Instance& inst, const Schedule& schedule, Time t);

inline double half_to_double(HalfUtil h) {
  return static_cast<double>(h) / 2.0;
}

// Brute-force reference: enumerates unit parts one by one. O(total work).
// Used by tests to validate the closed form.
HalfUtil sp_job_half_utility_bruteforce(Time start, Time processing, Time t);

// --- classic objectives -----------------------------------------------------

// Total flow time of jobs *completed* by time t: sum of (completion -
// release). Jobs not completed by t are ignored (non-clairvoyant model).
std::int64_t total_flow_time(const Instance& inst, const Schedule& schedule,
                             Time t);

// Flow time restricted to one organization's jobs.
std::int64_t org_flow_time(const Instance& inst, const Schedule& schedule,
                           OrgId org, Time t);

// Total turnaround (completion - release) + waiting decomposition helper:
// sum of (start - release) over jobs started by t.
std::int64_t total_wait_time(const Instance& inst, const Schedule& schedule,
                             Time t);

// Makespan: latest completion among jobs completed by t (0 if none).
Time makespan(const Instance& inst, const Schedule& schedule, Time t);

// Total tardiness against per-job due dates = release + due_offset.
std::int64_t total_tardiness(const Instance& inst, const Schedule& schedule,
                             Time t, Time due_offset);

// Number of completed unit-size parts by time t (the paper's p_tot when
// applied to the reference schedule): sum over placed jobs of min(p, t - s).
std::int64_t completed_work(const Instance& inst, const Schedule& schedule,
                            Time t);

// Resource utilization in [0, 1]: work / (machines * t), 0 when t <= 0 or
// there are no machines. Runs that already hold their completed work
// (RunResult::work_done) read it through this without a schedule scan.
double utilization_ratio(std::int64_t work, std::uint32_t machines, Time t);

// utilization_ratio of the schedule's completed_work on inst's machines.
double resource_utilization(const Instance& inst, const Schedule& schedule,
                            Time t);

}  // namespace fairsched
