#pragma once

// Instance: the platform (organizations and their machine counts) together
// with the workload (each organization's FIFO job list).
//
// Instances are immutable once built; InstanceBuilder performs validation
// (non-negative releases, positive processing times, per-organization FIFO
// numbering). Machines receive global ids grouped by organization:
// organization u owns the contiguous block [machine_begin(u), machine_end(u)).

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "core/types.h"

namespace fairsched {

namespace serve {
class LiveInstance;  // the one sanctioned mutator (see the friend note)
}  // namespace serve

struct Organization {
  std::string name;
  std::uint32_t machines = 0;
};

class Instance {
 public:
  std::uint32_t num_orgs() const {
    return static_cast<std::uint32_t>(orgs_.size());
  }
  const Organization& org(OrgId u) const { return orgs_[u]; }

  std::uint32_t total_machines() const { return total_machines_; }
  std::uint32_t machines_of(OrgId u) const { return orgs_[u].machines; }
  MachineId machine_begin(OrgId u) const { return machine_begin_[u]; }
  MachineId machine_end(OrgId u) const {
    return machine_begin_[u] + orgs_[u].machines;
  }
  // Owner of a global machine id (O(1): precomputed).
  OrgId machine_owner(MachineId m) const { return machine_owner_[m]; }

  // Jobs of organization u in FIFO order.
  std::span<const Job> jobs_of(OrgId u) const {
    return {jobs_[u].data(), jobs_[u].size()};
  }
  std::size_t num_jobs() const { return num_jobs_; }
  const Job& job(OrgId u, std::uint32_t index) const {
    return jobs_[u][index];
  }

  // Sum of processing times over all jobs.
  std::int64_t total_work() const { return total_work_; }

  // Latest release time over all jobs (0 if there are none).
  Time last_release() const { return last_release_; }

  // Machine share of organization u (fraction of the global pool), the
  // target share used by the fair-share family of algorithms.
  double share_of(OrgId u) const;

  // A copy of this instance restricted to the organizations in `orgs`
  // (given as org indices into *this*). Used by REF/RAND to build
  // subcoalition worlds. Organization ids are preserved.
  Instance restricted_to(const std::vector<OrgId>& orgs) const;

 private:
  friend class InstanceBuilder;
  // serve::LiveInstance appends released-in-order jobs to a running
  // instance (the online scheduler's workload is not known up front). It
  // preserves every invariant InstanceBuilder establishes — per-org FIFO
  // numbering, release-sorted job lists, positive processing times — and
  // the platform (orgs, machines) stays frozen; see src/serve/
  // live_instance.h for the contract. Everything else still sees Instance
  // as immutable.
  friend class serve::LiveInstance;

  std::vector<Organization> orgs_;
  std::vector<std::vector<Job>> jobs_;
  std::vector<MachineId> machine_begin_;
  std::vector<OrgId> machine_owner_;
  std::uint32_t total_machines_ = 0;
  std::size_t num_jobs_ = 0;
  std::int64_t total_work_ = 0;
  Time last_release_ = 0;
};

class InstanceBuilder {
 public:
  // Returns the new organization's id.
  OrgId add_org(std::string name, std::uint32_t machines);

  // Appends a job to `org`'s FIFO stream. Jobs may be added in any release
  // order; build() sorts each organization's jobs by (release, insertion
  // order) and assigns FIFO indices. Throws std::invalid_argument on
  // non-positive processing time or negative release.
  void add_job(OrgId org, Time release, Time processing);

  // Appends a whole stream to `org`'s jobs, as add_job would one at a time
  // (the jobs' org and index fields are re-derived by build()), taking the
  // vector's storage when `org` has no jobs yet. Runs add_job's checks on
  // every job first and throws before adding any.
  void add_jobs(OrgId org, std::vector<Job> jobs);

  // Validates and produces the immutable instance. Throws on an empty
  // platform (no machines at all) with a non-empty workload.
  Instance build() &&;

 private:
  std::vector<Organization> orgs_;
  std::vector<std::vector<Job>> jobs_;
};

}  // namespace fairsched
