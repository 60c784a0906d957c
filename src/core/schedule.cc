#include "core/schedule.h"

#include <algorithm>
#include <map>
#include <sstream>

namespace fairsched {

std::optional<Time> Schedule::start_of(OrgId org, std::uint32_t index) const {
  for (auto p = placements_.rbegin(); p != placements_.rend(); ++p) {
    if (p->org == org && p->index == index) return p->start;
  }
  return std::nullopt;
}

std::optional<Time> Schedule::completion_of(const Instance& inst, OrgId org,
                                            std::uint32_t index) const {
  auto s = start_of(org, index);
  if (!s) return std::nullopt;
  return *s + inst.job(org, index).processing;
}

std::uint32_t Schedule::num_started(OrgId org) const {
  std::uint32_t end = 0;
  for (const Placement& p : placements_) {
    if (p.org == org) end = std::max(end, p.index + 1);
  }
  return end;
}

std::optional<std::string> Schedule::check_known_jobs(
    const Instance& inst) const {
  for (const Placement& p : placements_) {
    if (p.org >= inst.num_orgs() || p.index >= inst.jobs_of(p.org).size()) {
      std::ostringstream msg;
      msg << "placement of unknown job (" << p.org << "," << p.index << ")";
      return msg.str();
    }
  }
  return std::nullopt;
}

std::optional<std::string> Schedule::check_machine_exclusive(
    const Instance& inst) const {
  if (auto err = check_known_jobs(inst)) return err;
  // Group placements per machine and sort by start.
  std::map<MachineId, std::vector<const Placement*>> per_machine;
  for (const Placement& p : placements_) {
    if (p.machine >= inst.total_machines()) {
      return "placement on unknown machine " + std::to_string(p.machine);
    }
    per_machine[p.machine].push_back(&p);
  }
  for (auto& [machine, ps] : per_machine) {
    std::sort(ps.begin(), ps.end(), [](const Placement* a, const Placement* b) {
      return a->start < b->start;
    });
    for (std::size_t i = 1; i < ps.size(); ++i) {
      const Placement& prev = *ps[i - 1];
      const Time prev_end =
          prev.start + inst.job(prev.org, prev.index).processing;
      if (ps[i]->start < prev_end) {
        std::ostringstream msg;
        msg << "machine " << machine << ": job (" << ps[i]->org << ","
            << ps[i]->index << ") starts at " << ps[i]->start
            << " before previous job finishes at " << prev_end;
        return msg.str();
      }
    }
  }
  return std::nullopt;
}

std::optional<std::string> Schedule::check_fifo(const Instance& inst) const {
  if (auto err = check_known_jobs(inst)) return err;
  // starts[u][i]: start time of job (u, i), kNoTime while unplaced.
  std::vector<std::vector<Time>> starts(inst.num_orgs());
  for (OrgId u = 0; u < inst.num_orgs(); ++u) {
    starts[u].assign(inst.jobs_of(u).size(), kNoTime);
  }
  for (const Placement& p : placements_) {
    Time& start = starts[p.org][p.index];
    if (start != kNoTime) {
      std::ostringstream msg;
      msg << "org " << p.org << ": job " << p.index << " placed twice (at "
          << start << " and " << p.start << ")";
      return msg.str();
    }
    start = p.start;
  }
  for (OrgId u = 0; u < inst.num_orgs(); ++u) {
    const auto jobs = inst.jobs_of(u);
    for (std::uint32_t i = 0; i < jobs.size(); ++i) {
      const Time s = starts[u][i];
      if (s == kNoTime) continue;
      // The first start after a gap has an unstarted predecessor.
      if (i > 0 && starts[u][i - 1] == kNoTime) {
        std::ostringstream msg;
        msg << "org " << u << ": job " << i
            << " started although an earlier job of the same organization "
               "was never started (FIFO prefix violated)";
        return msg.str();
      }
      if (s < jobs[i].release) {
        std::ostringstream msg;
        msg << "org " << u << ": job " << i << " started at " << s
            << " before its release " << jobs[i].release;
        return msg.str();
      }
      if (i > 0 && s < starts[u][i - 1]) {
        std::ostringstream msg;
        msg << "org " << u << ": job " << i << " starts at " << s
            << " before job " << i - 1 << " (FIFO order violated)";
        return msg.str();
      }
    }
  }
  return std::nullopt;
}

std::optional<std::string> Schedule::check_greedy(const Instance& inst,
                                                  Time horizon) const {
  if (auto err = check_known_jobs(inst)) return err;
  // Event sweep. State changes only at releases, starts and completions;
  // greediness is evaluated just after each event time.
  struct Event {
    Time t;
    int kind;  // 0 = completion, 1 = start, 2 = release (order irrelevant
               // because we evaluate after applying all events at t)
    OrgId org;
  };
  std::vector<Event> events;
  for (const Placement& p : placements_) {
    const Time end = p.start + inst.job(p.org, p.index).processing;
    events.push_back({p.start, 1, p.org});
    events.push_back({end, 0, p.org});
  }
  for (OrgId u = 0; u < inst.num_orgs(); ++u) {
    for (const Job& j : inst.jobs_of(u)) {
      events.push_back({j.release, 2, u});
    }
  }
  std::sort(events.begin(), events.end(),
            [](const Event& a, const Event& b) { return a.t < b.t; });

  // Per organization: number of released jobs and number of started jobs
  // so far; the organization is waiting iff started < released (the next
  // FIFO job is released but not running yet).
  std::vector<std::uint32_t> released(inst.num_orgs(), 0);
  std::vector<std::uint32_t> started(inst.num_orgs(), 0);
  std::uint32_t busy = 0;
  std::uint32_t waiting_orgs = 0;

  auto update_waiting = [&](OrgId u, auto&& fn) {
    const bool was_waiting = started[u] < released[u];
    fn();
    const bool is_waiting = started[u] < released[u];
    if (was_waiting != is_waiting) waiting_orgs += is_waiting ? 1 : -1;
  };

  std::size_t i = 0;
  while (i < events.size()) {
    const Time t = events[i].t;
    while (i < events.size() && events[i].t == t) {
      const Event& e = events[i];
      switch (e.kind) {
        case 0:
          --busy;
          break;
        case 1:
          ++busy;
          update_waiting(e.org, [&] { ++started[e.org]; });
          break;
        case 2:
          update_waiting(e.org, [&] { ++released[e.org]; });
          break;
      }
      ++i;
    }
    if (t >= horizon) break;
    if (busy < inst.total_machines() && waiting_orgs > 0) {
      std::ostringstream msg;
      msg << "not greedy: at time " << t << ", " << busy << "/"
          << inst.total_machines()
          << " machines busy while released jobs are waiting";
      return msg.str();
    }
  }
  return std::nullopt;
}

std::optional<std::string> Schedule::validate(const Instance& inst,
                                              Time horizon) const {
  if (auto err = check_machine_exclusive(inst)) return err;
  if (auto err = check_fifo(inst)) return err;
  if (auto err = check_greedy(inst, horizon)) return err;
  return std::nullopt;
}

}  // namespace fairsched
