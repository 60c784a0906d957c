#include "core/instance.h"

#include <algorithm>
#include <stdexcept>
#include <string>

namespace fairsched {

double Instance::share_of(OrgId u) const {
  if (total_machines_ == 0) return 0.0;
  return static_cast<double>(orgs_[u].machines) /
         static_cast<double>(total_machines_);
}

Instance Instance::restricted_to(const std::vector<OrgId>& orgs) const {
  InstanceBuilder builder;
  std::vector<OrgId> new_id(num_orgs(), kNoOrg);
  for (OrgId u : orgs) {
    if (u >= num_orgs()) {
      throw std::out_of_range("restricted_to: organization id out of range");
    }
    new_id[u] = builder.add_org(orgs_[u].name, orgs_[u].machines);
  }
  for (OrgId u : orgs) {
    for (const Job& j : jobs_[u]) {
      builder.add_job(new_id[u], j.release, j.processing);
    }
  }
  return std::move(builder).build();
}

OrgId InstanceBuilder::add_org(std::string name, std::uint32_t machines) {
  orgs_.push_back(Organization{std::move(name), machines});
  jobs_.emplace_back();
  return static_cast<OrgId>(orgs_.size() - 1);
}

namespace {

void check_job(const char* who, Time release, Time processing) {
  if (release < 0) {
    throw std::invalid_argument(std::string(who) + ": negative release time");
  }
  if (processing <= 0) {
    throw std::invalid_argument(std::string(who) +
                                ": processing time must be positive");
  }
}

}  // namespace

void InstanceBuilder::add_job(OrgId org, Time release, Time processing) {
  if (org >= orgs_.size()) {
    throw std::out_of_range("add_job: unknown organization");
  }
  check_job("add_job", release, processing);
  jobs_[org].push_back(Job{org, 0, release, processing});
}

void InstanceBuilder::add_jobs(OrgId org, std::vector<Job> jobs) {
  if (org >= orgs_.size()) {
    throw std::out_of_range("add_jobs: unknown organization");
  }
  for (const Job& job : jobs) {
    check_job("add_jobs", job.release, job.processing);
  }
  if (jobs_[org].empty()) {
    jobs_[org] = std::move(jobs);
  } else {
    jobs_[org].insert(jobs_[org].end(), jobs.begin(), jobs.end());
  }
}

Instance InstanceBuilder::build() && {
  Instance inst;
  inst.orgs_ = std::move(orgs_);
  inst.jobs_ = std::move(jobs_);

  bool any_jobs = false;
  for (OrgId u = 0; u < inst.orgs_.size(); ++u) {
    auto& jobs = inst.jobs_[u];
    // Stable sort: preserves submission order among equal releases, which
    // defines the organization's internal priority (the paper assumes jobs
    // of each organization are started in the order they are presented).
    // Streams are usually submitted in release order already, and a stable
    // sort leaves a sorted range as it is, so the sort is skipped then.
    const auto by_release = [](const Job& a, const Job& b) {
      return a.release < b.release;
    };
    if (!std::is_sorted(jobs.begin(), jobs.end(), by_release)) {
      std::stable_sort(jobs.begin(), jobs.end(), by_release);
    }
    for (std::uint32_t i = 0; i < jobs.size(); ++i) {
      jobs[i].org = u;
      jobs[i].index = i;
      inst.total_work_ += jobs[i].processing;
      inst.last_release_ = std::max(inst.last_release_, jobs[i].release);
    }
    inst.num_jobs_ += jobs.size();
    any_jobs = any_jobs || !jobs.empty();
  }

  inst.machine_begin_.resize(inst.orgs_.size());
  MachineId next = 0;
  for (OrgId u = 0; u < inst.orgs_.size(); ++u) {
    inst.machine_begin_[u] = next;
    next += inst.orgs_[u].machines;
  }
  inst.total_machines_ = next;
  inst.machine_owner_.resize(next);
  for (OrgId u = 0; u < inst.orgs_.size(); ++u) {
    for (MachineId m = inst.machine_begin_[u]; m < inst.machine_end(u); ++m) {
      inst.machine_owner_[m] = u;
    }
  }

  if (any_jobs && inst.total_machines_ == 0) {
    throw std::invalid_argument("build: jobs present but no machines");
  }
  return inst;
}

}  // namespace fairsched
