// Tests for Instance / InstanceBuilder.

#include "core/instance.h"

#include <gtest/gtest.h>

#include <stdexcept>
#include <tuple>
#include <utility>
#include <vector>

namespace fairsched {
namespace {

Instance two_org_instance() {
  InstanceBuilder b;
  const OrgId a = b.add_org("a", 2);
  const OrgId c = b.add_org("c", 3);
  b.add_job(a, 5, 10);
  b.add_job(a, 0, 3);
  b.add_job(c, 1, 7);
  return std::move(b).build();
}

TEST(Instance, OrgAndMachineCounts) {
  const Instance inst = two_org_instance();
  EXPECT_EQ(inst.num_orgs(), 2u);
  EXPECT_EQ(inst.total_machines(), 5u);
  EXPECT_EQ(inst.machines_of(0), 2u);
  EXPECT_EQ(inst.machines_of(1), 3u);
}

TEST(Instance, MachineOwnership) {
  const Instance inst = two_org_instance();
  EXPECT_EQ(inst.machine_begin(0), 0u);
  EXPECT_EQ(inst.machine_end(0), 2u);
  EXPECT_EQ(inst.machine_begin(1), 2u);
  EXPECT_EQ(inst.machine_end(1), 5u);
  EXPECT_EQ(inst.machine_owner(0), 0u);
  EXPECT_EQ(inst.machine_owner(1), 0u);
  EXPECT_EQ(inst.machine_owner(2), 1u);
  EXPECT_EQ(inst.machine_owner(4), 1u);
}

TEST(Instance, JobsSortedByReleaseWithFifoIndices) {
  const Instance inst = two_org_instance();
  const auto jobs = inst.jobs_of(0);
  ASSERT_EQ(jobs.size(), 2u);
  EXPECT_EQ(jobs[0].release, 0);
  EXPECT_EQ(jobs[0].index, 0u);
  EXPECT_EQ(jobs[0].processing, 3);
  EXPECT_EQ(jobs[1].release, 5);
  EXPECT_EQ(jobs[1].index, 1u);
}

TEST(Instance, StableSortPreservesSubmissionOrderAtEqualRelease) {
  InstanceBuilder b;
  const OrgId a = b.add_org("a", 1);
  b.add_job(a, 3, 100);
  b.add_job(a, 3, 200);
  b.add_job(a, 3, 300);
  const Instance inst = std::move(b).build();
  EXPECT_EQ(inst.job(0, 0).processing, 100);
  EXPECT_EQ(inst.job(0, 1).processing, 200);
  EXPECT_EQ(inst.job(0, 2).processing, 300);
}

// build() skips the sort when a stream is already release-sorted; the
// equal-release runs must keep their submission order either way.
TEST(Instance, SortedInputWithEqualReleaseRunsKeepsSubmissionOrder) {
  InstanceBuilder b;
  const OrgId a = b.add_org("a", 1);
  const Time releases[] = {1, 1, 1, 4, 4, 7};
  for (Time p = 1; p <= 6; ++p) b.add_job(a, releases[p - 1], p);
  const Instance inst = std::move(b).build();
  for (std::uint32_t i = 0; i < 6; ++i) {
    EXPECT_EQ(inst.job(a, i).release, releases[i]) << i;
    EXPECT_EQ(inst.job(a, i).processing, static_cast<Time>(i + 1)) << i;
    EXPECT_EQ(inst.job(a, i).index, i);
    EXPECT_EQ(inst.job(a, i).org, a);
  }
  EXPECT_EQ(inst.total_work(), 21);
  EXPECT_EQ(inst.last_release(), 7);
}

TEST(Instance, UnsortedInputSortsStablyAcrossEqualReleaseRuns) {
  InstanceBuilder b;
  const OrgId a = b.add_org("a", 1);
  b.add_job(a, 5, 1);
  b.add_job(a, 3, 2);
  b.add_job(a, 5, 3);
  b.add_job(a, 3, 4);
  const Instance inst = std::move(b).build();
  const Time want_release[] = {3, 3, 5, 5};
  const Time want_processing[] = {2, 4, 1, 3};
  for (std::uint32_t i = 0; i < 4; ++i) {
    EXPECT_EQ(inst.job(a, i).release, want_release[i]) << i;
    EXPECT_EQ(inst.job(a, i).processing, want_processing[i]) << i;
    EXPECT_EQ(inst.job(a, i).index, i);
  }
}

TEST(Instance, Totals) {
  const Instance inst = two_org_instance();
  EXPECT_EQ(inst.num_jobs(), 3u);
  EXPECT_EQ(inst.total_work(), 20);
  EXPECT_EQ(inst.last_release(), 5);
}

TEST(Instance, Shares) {
  const Instance inst = two_org_instance();
  EXPECT_DOUBLE_EQ(inst.share_of(0), 0.4);
  EXPECT_DOUBLE_EQ(inst.share_of(1), 0.6);
}

TEST(Instance, RestrictedTo) {
  const Instance inst = two_org_instance();
  const Instance sub = inst.restricted_to({1});
  EXPECT_EQ(sub.num_orgs(), 1u);
  EXPECT_EQ(sub.total_machines(), 3u);
  EXPECT_EQ(sub.num_jobs(), 1u);
  EXPECT_EQ(sub.job(0, 0).processing, 7);
}

TEST(InstanceBuilder, RejectsBadJobs) {
  InstanceBuilder b;
  const OrgId a = b.add_org("a", 1);
  EXPECT_THROW(b.add_job(a, -1, 5), std::invalid_argument);
  EXPECT_THROW(b.add_job(a, 0, 0), std::invalid_argument);
  EXPECT_THROW(b.add_job(a, 0, -3), std::invalid_argument);
  EXPECT_THROW(b.add_job(7, 0, 1), std::out_of_range);
}

TEST(InstanceBuilder, AddJobsRejectsBadJobs) {
  InstanceBuilder b;
  const OrgId a = b.add_org("a", 1);
  EXPECT_THROW(b.add_jobs(a, {Job{a, 0, 0, 1}, Job{a, 0, -1, 5}}),
               std::invalid_argument);
  EXPECT_THROW(b.add_jobs(a, {Job{a, 0, 0, 0}}), std::invalid_argument);
  EXPECT_THROW(b.add_jobs(a, {Job{a, 0, 3, -2}}), std::invalid_argument);
  EXPECT_THROW(b.add_jobs(7, {Job{7, 0, 0, 1}}), std::out_of_range);
  // A rejected stream adds nothing.
  EXPECT_EQ(std::move(b).build().num_jobs(), 0u);
}

// add_jobs appends like add_job one job at a time: after earlier jobs, and
// sorted stably by release with the org and index fields re-derived.
TEST(InstanceBuilder, AddJobsMatchesAddJobOneAtATime) {
  const std::vector<std::pair<Time, Time>> first = {{4, 2}, {1, 3}};
  const std::vector<std::pair<Time, Time>> stream = {{1, 5}, {0, 1}, {4, 4}};
  InstanceBuilder one;
  InstanceBuilder whole;
  for (InstanceBuilder* b : {&one, &whole}) {
    b->add_org("a", 1);
    b->add_org("c", 2);
  }
  std::vector<Job> jobs;
  for (const auto& [release, processing] : first) {
    one.add_job(1, release, processing);
    whole.add_job(1, release, processing);
  }
  for (const auto& [release, processing] : stream) {
    one.add_job(1, release, processing);
    one.add_job(0, release, processing);
    // org and index are placeholders: build() re-derives them.
    jobs.push_back(Job{9, 9, release, processing});
  }
  whole.add_jobs(1, jobs);
  whole.add_jobs(0, std::move(jobs));
  const Instance want = std::move(one).build();
  const Instance got = std::move(whole).build();
  ASSERT_EQ(got.num_jobs(), want.num_jobs());
  for (OrgId u = 0; u < want.num_orgs(); ++u) {
    ASSERT_EQ(got.jobs_of(u).size(), want.jobs_of(u).size()) << "u=" << u;
    for (std::uint32_t i = 0; i < want.jobs_of(u).size(); ++i) {
      const Job& g = got.job(u, i);
      const Job& w = want.job(u, i);
      EXPECT_EQ(std::tie(g.org, g.index, g.release, g.processing),
                std::tie(w.org, w.index, w.release, w.processing))
          << "u=" << u << " i=" << i;
    }
  }
}

TEST(InstanceBuilder, RejectsJobsWithoutMachines) {
  InstanceBuilder b;
  const OrgId a = b.add_org("a", 0);
  b.add_job(a, 0, 1);
  EXPECT_THROW(std::move(b).build(), std::invalid_argument);
}

TEST(InstanceBuilder, EmptyWorkloadWithMachinesIsFine) {
  InstanceBuilder b;
  b.add_org("a", 4);
  const Instance inst = std::move(b).build();
  EXPECT_EQ(inst.num_jobs(), 0u);
  EXPECT_EQ(inst.total_machines(), 4u);
}

}  // namespace
}  // namespace fairsched
