// Tests for Schedule and its feasibility validators.

#include "core/schedule.h"

#include <gtest/gtest.h>

namespace fairsched {
namespace {

Instance simple_instance() {
  InstanceBuilder b;
  const OrgId a = b.add_org("a", 1);
  const OrgId c = b.add_org("c", 1);
  b.add_job(a, 0, 3);
  b.add_job(a, 0, 2);
  b.add_job(c, 1, 4);
  return std::move(b).build();
}

TEST(Schedule, StartAndCompletionLookups) {
  const Instance inst = simple_instance();
  Schedule s;
  s.add({0, 0, 0, 0});
  EXPECT_EQ(s.start_of(0, 0), 0);
  EXPECT_EQ(s.completion_of(inst, 0, 0), 3);
  EXPECT_FALSE(s.start_of(0, 1).has_value());
  EXPECT_FALSE(s.start_of(1, 0).has_value());
  EXPECT_EQ(s.num_started(0), 1u);
}

// Engines append each organization's starts in FIFO order; any other
// index (a gap, or an overwrite) takes the general path.
TEST(Schedule, AppendAndOutOfOrderIndicesBothRecordStarts) {
  Schedule s;
  s.add({0, 0, 4, 0});  // appends
  s.add({0, 1, 6, 0});  // appends
  EXPECT_EQ(s.num_started(0), 2u);
  EXPECT_EQ(s.start_of(0, 0), 4);
  EXPECT_EQ(s.start_of(0, 1), 6);

  s.add({1, 2, 9, 1});  // leaves a gap at indices 0 and 1
  EXPECT_EQ(s.num_started(1), 3u);
  EXPECT_FALSE(s.start_of(1, 0).has_value());
  EXPECT_FALSE(s.start_of(1, 1).has_value());
  EXPECT_EQ(s.start_of(1, 2), 9);
  s.add({1, 0, 7, 1});  // fills the gap
  EXPECT_EQ(s.num_started(1), 3u);
  EXPECT_EQ(s.start_of(1, 0), 7);
  EXPECT_FALSE(s.start_of(1, 1).has_value());
  s.add({1, 3, 11, 1});  // appends after the gap
  EXPECT_EQ(s.num_started(1), 4u);
  EXPECT_EQ(s.start_of(1, 3), 11);

  s.add({3, 0, 2, 0});  // an organization beyond the constructor's count
  EXPECT_EQ(s.num_started(3), 1u);
  EXPECT_EQ(s.start_of(3, 0), 2);
  EXPECT_EQ(s.num_started(2), 0u);
  EXPECT_EQ(s.size(), 6u);
}

TEST(Schedule, ValidGreedySchedulePasses) {
  const Instance inst = simple_instance();
  Schedule s;
  s.add({0, 0, 0, 0});   // a's first job on machine 0 at t=0
  s.add({0, 1, 0, 1});   // a's second job on machine 1 at t=0
  s.add({1, 0, 2, 1});   // c's job after a's second finishes at 2
  EXPECT_EQ(s.validate(inst, 10), std::nullopt);
}

TEST(Schedule, DetectsMachineOverlap) {
  const Instance inst = simple_instance();
  Schedule s;
  s.add({0, 0, 0, 0});
  s.add({0, 1, 2, 0});  // starts at 2 but first job runs until 3
  const auto err = s.check_machine_exclusive(inst);
  ASSERT_TRUE(err.has_value());
  EXPECT_NE(err->find("machine 0"), std::string::npos);
}

TEST(Schedule, BackToBackOnOneMachineIsFine) {
  const Instance inst = simple_instance();
  Schedule s;
  s.add({0, 0, 0, 0});
  s.add({0, 1, 3, 0});  // exactly when the first finishes
  EXPECT_EQ(s.check_machine_exclusive(inst), std::nullopt);
}

TEST(Schedule, DetectsStartBeforeRelease) {
  const Instance inst = simple_instance();
  Schedule s;
  s.add({1, 0, 0, 1});  // c's job released at 1, started at 0
  const auto err = s.check_fifo(inst);
  ASSERT_TRUE(err.has_value());
  EXPECT_NE(err->find("before its release"), std::string::npos);
}

TEST(Schedule, DetectsFifoOrderViolation) {
  const Instance inst = simple_instance();
  Schedule s;
  s.add({0, 0, 5, 0});
  s.add({0, 1, 2, 1});  // job 1 starts before job 0
  const auto err = s.check_fifo(inst);
  ASSERT_TRUE(err.has_value());
  EXPECT_NE(err->find("FIFO order"), std::string::npos);
}

TEST(Schedule, DetectsFifoPrefixGap) {
  const Instance inst = simple_instance();
  Schedule s;
  s.add({0, 1, 0, 0});  // job 1 started, job 0 never
  const auto err = s.check_fifo(inst);
  ASSERT_TRUE(err.has_value());
  EXPECT_NE(err->find("FIFO prefix"), std::string::npos);
}

TEST(Schedule, DetectsNonGreedyIdleness) {
  const Instance inst = simple_instance();
  Schedule s;
  // Machine 1 idles at t=0 although a's second job is released.
  s.add({0, 0, 0, 0});
  s.add({0, 1, 5, 1});
  s.add({1, 0, 1, 0});  // infeasible anyway, but greedy check fires first
  const auto err = s.check_greedy(inst, 10);
  ASSERT_TRUE(err.has_value());
  EXPECT_NE(err->find("not greedy"), std::string::npos);
}

TEST(Schedule, GreedyCheckIgnoresIdlenessPastHorizon) {
  const Instance inst = simple_instance();
  Schedule s;
  s.add({0, 0, 0, 0});
  s.add({0, 1, 0, 1});
  // c's job never scheduled; machines free from t=4. Horizon 2 hides it.
  EXPECT_EQ(s.check_greedy(inst, 2), std::nullopt);
  EXPECT_NE(s.check_greedy(inst, 10), std::nullopt);
}

// A job placed twice, on two machines, passes every per-machine and
// greedy check; FIFO checking counts placements per job and rejects it.
TEST(Schedule, RejectsAJobPlacedTwice) {
  InstanceBuilder b;
  b.add_org("a", 2);
  b.add_job(0, 0, 3);
  const Instance inst = std::move(b).build();
  Schedule s;
  s.add({0, 0, 0, 0});
  s.add({0, 0, 1, 1});
  const auto err = s.validate(inst, 10);
  ASSERT_TRUE(err.has_value());
  EXPECT_NE(err->find("placed twice"), std::string::npos) << *err;
  EXPECT_EQ(s.check_fifo(inst), err);
}

// Placements of jobs the instance does not have are reported before any
// check looks the job up.
TEST(Schedule, RejectsPlacementsOfUnknownJobs) {
  const Instance inst = simple_instance();
  for (const Placement& unknown :
       {Placement{2, 0, 0, 0}, Placement{1, 1, 1, 1},
        Placement{kNoOrg, 0, 0, 0}}) {
    Schedule s;
    s.add({0, 0, 0, 0});
    s.add(unknown);
    const auto err = s.validate(inst, 10);
    ASSERT_TRUE(err.has_value()) << unknown.org << "," << unknown.index;
    EXPECT_NE(err->find("unknown job"), std::string::npos) << *err;
    EXPECT_EQ(s.check_machine_exclusive(inst), err);
    EXPECT_EQ(s.check_fifo(inst), err);
    EXPECT_EQ(s.check_greedy(inst, 10), err);
  }
}

TEST(Schedule, EmptyScheduleOfEmptyWorkloadValid) {
  InstanceBuilder b;
  b.add_org("a", 2);
  const Instance inst = std::move(b).build();
  Schedule s;
  EXPECT_EQ(s.validate(inst, 100), std::nullopt);
}

}  // namespace
}  // namespace fairsched
