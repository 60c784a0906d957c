// Edge-case and failure-injection tests across modules: degenerate
// coalitions, zero-share organizations, empty horizons, single-player
// games, and file-level SWF round trips.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

#include "metrics/utility.h"
#include "sched/rand_fair.h"
#include "sched/ref.h"
#include "exp/policy_registry.h"
#include "shapley/shapley.h"
#include "sim/engine.h"
#include "workload/swf.h"

namespace fairsched {
namespace {
// Shorthand for the open policy registry (see exp/policy_registry.h).
exp::PolicyRegistry& registry() { return exp::PolicyRegistry::global(); }

TEST(EdgeCases, CoalitionWithMachinesButNoJobs) {
  InstanceBuilder b;
  b.add_org("idle", 3);
  const OrgId busy = b.add_org("busy", 0);
  b.add_job(busy, 0, 5);
  const Instance inst = std::move(b).build();
  // Coalition of just the idle org: machines but nothing to run.
  Engine e(inst, Coalition::singleton(0));
  auto policy = registry().make_policy("fcfs");
  e.run(*policy, 50);
  EXPECT_EQ(e.total_work_done(), 0);
  EXPECT_EQ(e.value2(), 0);
  // Coalition of just the busy org: jobs but no machines — nothing runs,
  // no crash, no events beyond releases.
  Engine e2(inst, Coalition::singleton(1));
  auto policy2 = registry().make_policy("fcfs");
  e2.run(*policy2, 50);
  EXPECT_EQ(e2.total_work_done(), 0);
  EXPECT_EQ(e2.waiting(busy), 1u);
}

TEST(EdgeCases, ZeroShareOrganizationStillServed) {
  // Fair-share ratios degenerate for zero-share orgs; they must still be
  // served when no positive-share org waits (greedy requirement).
  InstanceBuilder b;
  b.add_org("owner", 2);
  const OrgId guest = b.add_org("guest", 0);
  b.add_job(guest, 0, 3);
  b.add_job(guest, 0, 3);
  const Instance inst = std::move(b).build();
  for (const char* alg :
       {"fairshare", "utfairshare", "currfairshare", "decayfairshare100"}) {
    const RunResult r = registry().run(inst, alg, 20, 1);
    EXPECT_EQ(r.schedule.size(), 2u) << alg;
    EXPECT_EQ(r.schedule.start_of(guest, 0), 0) << alg;
  }
}

TEST(EdgeCases, HorizonZeroYieldsNothing) {
  InstanceBuilder b;
  const OrgId a = b.add_org("a", 1);
  b.add_job(a, 0, 5);
  const Instance inst = std::move(b).build();
  for (const char* alg : {"fcfs", "ref", "rand5", "directcontr"}) {
    const RunResult r = registry().run(inst, alg, 0, 1);
    EXPECT_EQ(r.work_done, 0) << alg;
    for (HalfUtil v : r.utilities2) EXPECT_EQ(v, 0) << alg;
  }
}

TEST(EdgeCases, SingleOrganizationEverything) {
  InstanceBuilder b;
  const OrgId solo = b.add_org("solo", 2);
  b.add_job(solo, 0, 4);
  b.add_job(solo, 1, 4);
  b.add_job(solo, 2, 4);
  const Instance inst = std::move(b).build();
  // All algorithms degenerate to the same greedy FIFO schedule.
  std::vector<HalfUtil> reference;
  for (const char* alg : {"ref", "rand5", "directcontr", "fairshare",
                          "roundrobin", "fcfs", "random"}) {
    const RunResult r = registry().run(inst, alg, 30, 7);
    if (reference.empty()) {
      reference = r.utilities2;
    } else {
      EXPECT_EQ(r.utilities2, reference) << alg;
    }
  }
}

TEST(EdgeCases, RandWithSingleSampleStillFeasible) {
  InstanceBuilder b;
  const OrgId a = b.add_org("a", 1);
  const OrgId c = b.add_org("c", 1);
  for (int i = 0; i < 10; ++i) {
    b.add_job(a, i, 2);
    b.add_job(c, i, 2);
  }
  const Instance inst = std::move(b).build();
  RandScheduler rand(inst, RandOptions{1, 3});
  rand.run(40);
  EXPECT_EQ(rand.schedule().validate(inst, 40), std::nullopt);
}

TEST(EdgeCases, RefWithMaxBoundaryOrgCount) {
  // k = 11 organizations: 2047 coalition engines; tiny workload keeps it
  // fast while exercising the wide-mask paths.
  InstanceBuilder b;
  for (int u = 0; u < 11; ++u) {
    b.add_org("o", 1);
    b.add_job(static_cast<OrgId>(u), 0, 1);
  }
  const Instance inst = std::move(b).build();
  RefScheduler ref(inst);
  ref.run(5);
  EXPECT_EQ(ref.reference_work(), 11);
  EXPECT_EQ(ref.schedule().validate(inst, 5), std::nullopt);
}

TEST(EdgeCases, ShapleySinglePlayerGetsEverything) {
  auto v = [](Coalition c) { return c.is_empty() ? 0.0 : 7.5; };
  const auto phi = shapley_exact(1, v);
  ASSERT_EQ(phi.size(), 1u);
  EXPECT_DOUBLE_EQ(phi[0], 7.5);
  const auto sampled = shapley_sampled(1, v, 5, 1);
  EXPECT_DOUBLE_EQ(sampled[0], 7.5);
  const auto strat = shapley_stratified(1, v, 2, 1);
  EXPECT_DOUBLE_EQ(strat[0], 7.5);
}

TEST(EdgeCases, SwfFileRoundTripOnDisk) {
  SwfTrace trace;
  trace.header.push_back(" file round trip");
  for (int i = 0; i < 5; ++i) {
    SwfJob j;
    j.job_id = i + 1;
    j.submit = i * 7;
    j.run_time = 10 + i;
    j.processors = 1 + static_cast<std::uint32_t>(i % 3);
    j.user = 100 + i % 2;
    trace.jobs.push_back(j);
  }
  const std::string path = ::testing::TempDir() + "/fairsched_roundtrip.swf";
  save_swf(path, trace);
  const SwfTrace loaded = load_swf(path);
  ASSERT_EQ(loaded.jobs.size(), trace.jobs.size());
  for (std::size_t i = 0; i < trace.jobs.size(); ++i) {
    EXPECT_EQ(loaded.jobs[i].submit, trace.jobs[i].submit);
    EXPECT_EQ(loaded.jobs[i].run_time, trace.jobs[i].run_time);
    EXPECT_EQ(loaded.jobs[i].processors, trace.jobs[i].processors);
    EXPECT_EQ(loaded.jobs[i].user, trace.jobs[i].user);
  }
  std::remove(path.c_str());
  EXPECT_THROW(save_swf("/nonexistent-dir/x.swf", trace),
               std::runtime_error);
}

TEST(EdgeCases, UtilityOfUnstartedJobsIsZero) {
  InstanceBuilder b;
  const OrgId a = b.add_org("a", 1);
  b.add_job(a, 100, 5);
  const Instance inst = std::move(b).build();
  Schedule s;
  EXPECT_EQ(sp_org_half_utility(inst, s, a, 50), 0);
  EXPECT_EQ(completed_work(inst, s, 50), 0);
  EXPECT_EQ(total_flow_time(inst, s, 50), 0);
}

TEST(EdgeCases, SimultaneousReleaseBurstExceedsMachines) {
  // 100 jobs at t=0 on 3 machines: the engine must drain in waves and every
  // algorithm must keep the machines saturated (greedy).
  InstanceBuilder b;
  const OrgId a = b.add_org("a", 3);
  for (int i = 0; i < 100; ++i) b.add_job(a, 0, 2);
  const Instance inst = std::move(b).build();
  const RunResult r = registry().run(inst, "fcfs", 100, 1);
  EXPECT_EQ(r.schedule.validate(inst, 100), std::nullopt);
  EXPECT_EQ(r.work_done, 200);
  // 33 waves of 3 jobs finish by t=66; the 100th job runs [66, 68), so one
  // of its two units is executed by t=67.
  EXPECT_DOUBLE_EQ(resource_utilization(inst, r.schedule, 67),
                   199.0 / (3.0 * 67.0));
}

}  // namespace
}  // namespace fairsched
