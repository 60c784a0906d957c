#pragma once

// Schedule: the set of (job, start time, machine) placements produced by a
// scheduling algorithm (the paper's sigma), plus validators for the three
// feasibility invariants the paper requires:
//   * machine exclusivity — a machine runs at most one job at a time,
//   * per-organization FIFO — an organization's jobs start in index order,
//   * greediness — no machine is left idle while a released, unstarted job
//     is waiting (Section 2, "greedy schedules").

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/instance.h"
#include "core/types.h"

namespace fairsched {

struct Placement {
  OrgId org = kNoOrg;
  std::uint32_t index = 0;  // job index within the organization
  Time start = 0;
  MachineId machine = kNoMachine;

  friend bool operator==(const Placement&, const Placement&) = default;
};

// The placements in the order they were added (an engine's decision
// order). That order is the only representation: readers that need a job's
// start scan for it.
class Schedule {
 public:
  void add(const Placement& p) { placements_.push_back(p); }
  // Empties the schedule and keeps its capacity (for a reused recorder).
  void clear() { placements_.clear(); }

  // Pre-sizes the placement list (performance hint for engines that know
  // the job count up front).
  void reserve(std::size_t n) { placements_.reserve(n); }

  const std::vector<Placement>& placements() const { return placements_; }
  std::size_t size() const { return placements_.size(); }

  // Start time of job (org, index), if it was started (the latest
  // placement wins). Linear scan.
  std::optional<Time> start_of(OrgId org, std::uint32_t index) const;

  // Completion time given the instance's processing times. Linear scan.
  std::optional<Time> completion_of(const Instance& inst, OrgId org,
                                    std::uint32_t index) const;

  // One past the highest index started for `org` (the number of started
  // jobs when the organization's starts form a FIFO prefix). Linear scan.
  std::uint32_t num_started(OrgId org) const;

  // --- Validators -------------------------------------------------------
  // Each returns std::nullopt when the invariant holds, otherwise a
  // human-readable description of the first violation found.

  // Machine exclusivity: placements on the same machine do not overlap in
  // [start, start + processing).
  std::optional<std::string> check_machine_exclusive(
      const Instance& inst) const;

  // FIFO: each job is placed at most once, within each organization start
  // times are non-decreasing in job index, every started job was released,
  // and no job is started before a lower-indexed one of the same
  // organization remains unstarted forever while this one runs (prefix
  // property).
  std::optional<std::string> check_fifo(const Instance& inst) const;

  // Greediness up to `horizon`: at any moment some machine is idle only if
  // no released job is waiting. Checked by sweeping events.
  std::optional<std::string> check_greedy(const Instance& inst,
                                          Time horizon) const;

  // All three checks; nullopt if the schedule is a feasible greedy schedule.
  // Each check first rejects a placement of a job the instance does not
  // have.
  std::optional<std::string> validate(const Instance& inst,
                                      Time horizon) const;

 private:
  // The first placement naming an organization or job index outside
  // `inst`, described; every check runs it before looking a job up.
  std::optional<std::string> check_known_jobs(const Instance& inst) const;

  std::vector<Placement> placements_;
};

}  // namespace fairsched
