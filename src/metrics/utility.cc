#include "metrics/utility.h"

#include <algorithm>
#include <stdexcept>
#include <string>

namespace fairsched {

const Job& placed_job(const Instance& inst, const Placement& p) {
  if (p.org >= inst.num_orgs() || p.index >= inst.jobs_of(p.org).size()) {
    throw std::out_of_range("placement of unknown job: org " +
                            std::to_string(p.org) + " index " +
                            std::to_string(p.index));
  }
  return inst.job(p.org, p.index);
}

HalfUtil sp_job_half_utility(Time start, Time processing, Time t) {
  if (start >= t) return 0;
  const Time executed = std::min<Time>(processing, t - start);
  // Last occupied slot counted at time t: min(start + p - 1, t - 1).
  const Time last_slot = std::min<Time>(start + processing - 1, t - 1);
  // 2 * executed * (t - (start + last_slot)/2) = executed * (2t - start -
  // last_slot). Exact in integers.
  return executed * (2 * t - start - last_slot);
}

HalfUtil sp_job_half_utility_bruteforce(Time start, Time processing, Time t) {
  HalfUtil total = 0;
  for (Time slot = start; slot < start + processing && slot <= t - 1; ++slot) {
    total += 2 * (t - slot);
  }
  return total;
}

HalfUtil sp_org_half_utility(const Instance& inst, const Schedule& schedule,
                             OrgId org, Time t) {
  HalfUtil total = 0;
  for (const Placement& p : schedule.placements()) {
    if (p.org != org) continue;
    total += sp_job_half_utility(p.start, placed_job(inst, p).processing, t);
  }
  return total;
}

std::vector<HalfUtil> sp_half_utilities(const Instance& inst,
                                        const Schedule& schedule, Time t) {
  std::vector<HalfUtil> out(inst.num_orgs(), 0);
  for (const Placement& p : schedule.placements()) {
    out[p.org] +=
        sp_job_half_utility(p.start, placed_job(inst, p).processing, t);
  }
  return out;
}

HalfUtil sp_half_value(const Instance& inst, const Schedule& schedule,
                       Time t) {
  HalfUtil total = 0;
  for (const Placement& p : schedule.placements()) {
    total +=
        sp_job_half_utility(p.start, placed_job(inst, p).processing, t);
  }
  return total;
}

std::int64_t total_flow_time(const Instance& inst, const Schedule& schedule,
                             Time t) {
  std::int64_t total = 0;
  for (const Placement& p : schedule.placements()) {
    const Job& job = placed_job(inst, p);
    const Time completion = p.start + job.processing;
    if (completion <= t) total += completion - job.release;
  }
  return total;
}

std::int64_t org_flow_time(const Instance& inst, const Schedule& schedule,
                           OrgId org, Time t) {
  std::int64_t total = 0;
  for (const Placement& p : schedule.placements()) {
    if (p.org != org) continue;
    const Job& job = placed_job(inst, p);
    const Time completion = p.start + job.processing;
    if (completion <= t) total += completion - job.release;
  }
  return total;
}

std::int64_t total_wait_time(const Instance& inst, const Schedule& schedule,
                             Time t) {
  std::int64_t total = 0;
  for (const Placement& p : schedule.placements()) {
    if (p.start <= t) total += p.start - placed_job(inst, p).release;
  }
  return total;
}

Time makespan(const Instance& inst, const Schedule& schedule, Time t) {
  Time latest = 0;
  for (const Placement& p : schedule.placements()) {
    const Time completion = p.start + placed_job(inst, p).processing;
    if (completion <= t) latest = std::max(latest, completion);
  }
  return latest;
}

std::int64_t total_tardiness(const Instance& inst, const Schedule& schedule,
                             Time t, Time due_offset) {
  std::int64_t total = 0;
  for (const Placement& p : schedule.placements()) {
    const Job& job = placed_job(inst, p);
    const Time completion = p.start + job.processing;
    if (completion <= t) {
      total += std::max<Time>(0, completion - (job.release + due_offset));
    }
  }
  return total;
}

std::int64_t completed_work(const Instance& inst, const Schedule& schedule,
                            Time t) {
  std::int64_t total = 0;
  for (const Placement& p : schedule.placements()) {
    if (p.start >= t) continue;
    total += std::min<Time>(placed_job(inst, p).processing, t - p.start);
  }
  return total;
}

double utilization_ratio(std::int64_t work, std::uint32_t machines, Time t) {
  if (t <= 0 || machines == 0) return 0.0;
  return static_cast<double>(work) /
         (static_cast<double>(machines) * static_cast<double>(t));
}

double resource_utilization(const Instance& inst, const Schedule& schedule,
                            Time t) {
  return utilization_ratio(completed_work(inst, schedule, t),
                           inst.total_machines(), t);
}

}  // namespace fairsched
