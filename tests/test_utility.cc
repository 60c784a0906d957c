// Tests for the utility functions (metrics/utility.h), including the
// paper's Figure 2 worked example reproduced number for number.

#include "metrics/utility.h"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <tuple>

#include "sched/ref.h"

namespace fairsched {
namespace {

// --- closed form vs. brute force -------------------------------------------

using JobCase = std::tuple<Time, Time, Time>;  // start, processing, t

class SpClosedForm : public ::testing::TestWithParam<JobCase> {};

TEST_P(SpClosedForm, MatchesBruteForce) {
  const auto [s, p, t] = GetParam();
  EXPECT_EQ(sp_job_half_utility(s, p, t),
            sp_job_half_utility_bruteforce(s, p, t))
      << "s=" << s << " p=" << p << " t=" << t;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, SpClosedForm,
    ::testing::Values(
        JobCase{0, 1, 1}, JobCase{0, 1, 2}, JobCase{0, 5, 3},
        JobCase{0, 5, 5}, JobCase{0, 5, 6}, JobCase{0, 5, 100},
        JobCase{7, 3, 7}, JobCase{7, 3, 8}, JobCase{7, 3, 9},
        JobCase{7, 3, 10}, JobCase{7, 3, 11}, JobCase{7, 3, 5},
        JobCase{100, 1000, 600}, JobCase{100, 1000, 1100},
        JobCase{100, 1000, 5000}, JobCase{0, 30000, 50000},
        JobCase{49999, 10, 50000}, JobCase{50000, 10, 50000}));

TEST(SpUtility, ZeroBeforeStart) {
  EXPECT_EQ(sp_job_half_utility(10, 5, 10), 0);
  EXPECT_EQ(sp_job_half_utility(10, 5, 3), 0);
}

TEST(SpUtility, OneUnitJobWorthTMinusS) {
  // A unit task started at s is worth (t - s) at time t (2(t-s) half-units).
  EXPECT_EQ(sp_job_half_utility(3, 1, 13), 2 * (13 - 3));
}

TEST(SpUtility, MonotoneInTime) {
  HalfUtil prev = 0;
  for (Time t = 0; t <= 30; ++t) {
    const HalfUtil v = sp_job_half_utility(5, 7, t);
    EXPECT_GE(v, prev);
    prev = v;
  }
}

// --- Figure 2 ---------------------------------------------------------------
// 9 jobs of O(1) and one job of O(2) (p = 5) on 3 processors, all released
// at 0. Reconstructed placement (consistent with every number in the
// paper's caption):
//   M1: J1(0,3) J5(3,3) J7(6,3) J8(9,3)
//   M2: J2(0,4) J4(4,6) J9(10,4)
//   M3: J3(0,3) J6(3,6) J(2)1(9,5)

struct Fig2 {
  Instance inst;
  Schedule schedule;
};

Fig2 figure2() {
  InstanceBuilder b;
  const OrgId o1 = b.add_org("O1", 2);
  const OrgId o2 = b.add_org("O2", 1);
  const Time p[9] = {3, 4, 3, 6, 3, 6, 3, 3, 4};
  for (Time pi : p) b.add_job(o1, 0, pi);
  b.add_job(o2, 0, 5);
  Fig2 f{std::move(b).build(), Schedule()};
  // Placements (machine ids arbitrary for utility purposes).
  const Time starts[9] = {0, 0, 0, 4, 3, 3, 6, 9, 10};
  const MachineId machines[9] = {0, 1, 2, 1, 0, 2, 0, 0, 1};
  for (std::uint32_t i = 0; i < 9; ++i) {
    f.schedule.add({o1, i, starts[i], machines[i]});
  }
  f.schedule.add({o2, 0, 9, 2});
  return f;
}

TEST(Figure2, UtilityAt13Is262) {
  const Fig2 f = figure2();
  EXPECT_EQ(sp_org_half_utility(f.inst, f.schedule, 0, 13), 2 * 262);
}

TEST(Figure2, UtilityAt14Is297) {
  const Fig2 f = figure2();
  EXPECT_EQ(sp_org_half_utility(f.inst, f.schedule, 0, 14), 2 * 297);
}

TEST(Figure2, FlowTimeAt14Is70) {
  // The paper's "flow time equal to 3+4+...+14 = 70" refers to O(1)'s jobs.
  const Fig2 f = figure2();
  EXPECT_EQ(org_flow_time(f.inst, f.schedule, 0, 14), 70);
  // Adding O(2)'s job (completes at 14) gives the system-wide total.
  EXPECT_EQ(total_flow_time(f.inst, f.schedule, 14), 70 + 14);
}

TEST(Figure2, RemovingO2JobSpeedsJ9ByOne) {
  // Without J(2)1, J9 starts at 9 instead of 10: utility +4, flow time -1.
  const Fig2 f = figure2();
  Schedule alt;
  for (const Placement& p : f.schedule.placements()) {
    if (p.org == 1) continue;  // drop O2's job
    Placement q = p;
    if (p.org == 0 && p.index == 8) q.start = 9;
    alt.add(q);
  }
  EXPECT_EQ(sp_org_half_utility(f.inst, alt, 0, 14) -
                sp_org_half_utility(f.inst, f.schedule, 0, 14),
            2 * 4);
  EXPECT_EQ(org_flow_time(f.inst, f.schedule, 0, 14) -
                org_flow_time(f.inst, alt, 0, 14),
            1);
}

TEST(Figure2, DelayingJ6ByOneCostsSix) {
  // J6 (p=6) one unit later: utility -6 although flow time changes by -1
  // only — psi_sp accounts for job sizes, flow time does not.
  const Fig2 f = figure2();
  Schedule alt;
  for (const Placement& p : f.schedule.placements()) {
    Placement q = p;
    if (p.org == 0 && p.index == 5) q.start = 4;
    alt.add(q);
  }
  EXPECT_EQ(sp_org_half_utility(f.inst, f.schedule, 0, 14) -
                sp_org_half_utility(f.inst, alt, 0, 14),
            2 * 6);
}

TEST(Figure2, DroppingJ9CostsTen) {
  // Not scheduling J9 at all: utility -10 (more tasks = more utility),
  // while flow time would *improve* by 14 — the second anonymity axiom is
  // why flow time cannot serve as the utility.
  const Fig2 f = figure2();
  Schedule alt;
  for (const Placement& p : f.schedule.placements()) {
    if (p.org == 0 && p.index == 8) continue;
    alt.add(p);
  }
  EXPECT_EQ(sp_org_half_utility(f.inst, f.schedule, 0, 14) -
                sp_org_half_utility(f.inst, alt, 0, 14),
            2 * 10);
  EXPECT_EQ(total_flow_time(f.inst, f.schedule, 14) -
                total_flow_time(f.inst, alt, 14),
            14);
}

// --- classic objectives ------------------------------------------------------

TEST(ClassicMetrics, FlowTimeCountsOnlyCompleted) {
  const Fig2 f = figure2();
  // At t=12, J9 (completes 14) and J(2)1 (completes 14) are not counted.
  EXPECT_EQ(total_flow_time(f.inst, f.schedule, 12),
            3 + 4 + 3 + 10 + 6 + 9 + 9 + 12);
  EXPECT_EQ(org_flow_time(f.inst, f.schedule, 1, 12), 0);
  EXPECT_EQ(org_flow_time(f.inst, f.schedule, 1, 14), 14);
}

TEST(ClassicMetrics, WaitTime) {
  const Fig2 f = figure2();
  // Sum of starts (releases are all 0) over all 10 jobs.
  EXPECT_EQ(total_wait_time(f.inst, f.schedule, 14),
            0 + 0 + 0 + 4 + 3 + 3 + 6 + 9 + 10 + 9);
}

TEST(ClassicMetrics, Makespan) {
  const Fig2 f = figure2();
  EXPECT_EQ(makespan(f.inst, f.schedule, 14), 14);
  EXPECT_EQ(makespan(f.inst, f.schedule, 13), 12);
}

TEST(ClassicMetrics, Tardiness) {
  const Fig2 f = figure2();
  // Due offset 9: completions beyond release+9 are tardy.
  // Completions: 3,4,3,10,6,9,9,12,14 (O1) and 14 (O2).
  EXPECT_EQ(total_tardiness(f.inst, f.schedule, 14, 9),
            (10 - 9) + (12 - 9) + (14 - 9) + (14 - 9));
}

TEST(ClassicMetrics, CompletedWorkAndUtilization) {
  const Fig2 f = figure2();
  EXPECT_EQ(completed_work(f.inst, f.schedule, 14), 40);
  EXPECT_DOUBLE_EQ(resource_utilization(f.inst, f.schedule, 14),
                   40.0 / (3.0 * 14.0));
  // At t=5: executed units = J1 3 + J2 4 + J3 3 + J4 1 + J5 2 + J6 2 = 15.
  EXPECT_EQ(completed_work(f.inst, f.schedule, 5), 15);
}

// A placement of a job the instance does not have (an index past the
// org's jobs, or an unknown org) makes the readers throw, not read out of
// bounds: the metrics here and REF's generic completed-work utility.
TEST(ClassicMetrics, PlacementOfAnUnknownJobThrows) {
  const Fig2 f = figure2();
  for (const Placement& bad :
       {Placement{1, 1, 0, 2}, Placement{0, 9, 0, 0}, Placement{5, 0, 0, 0}}) {
    Schedule schedule = f.schedule;
    schedule.add(bad);
    EXPECT_THROW(sp_half_utilities(f.inst, schedule, 14), std::out_of_range);
    EXPECT_THROW(completed_work(f.inst, schedule, 14), std::out_of_range);
    EXPECT_THROW(total_flow_time(f.inst, schedule, 14), std::out_of_range);
    EXPECT_THROW(CompletedWorkUtilityFn().eval(f.inst, schedule, bad.org, 14),
                 std::out_of_range);
  }
  try {
    Schedule schedule = f.schedule;
    schedule.add({1, 1, 0, 2});
    sp_half_value(f.inst, schedule, 14);
    ADD_FAILURE() << "no exception";
  } catch (const std::out_of_range& e) {
    EXPECT_NE(std::string(e.what()).find("org 1 index 1"), std::string::npos)
        << e.what();
  }
}

TEST(ClassicMetrics, UtilizationEdgeCases) {
  const Fig2 f = figure2();
  EXPECT_DOUBLE_EQ(resource_utilization(f.inst, f.schedule, 0), 0.0);
}

}  // namespace
}  // namespace fairsched
