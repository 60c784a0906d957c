// Tests for the RAND randomized fair scheduler (Fig. 6).

#include "sched/rand_fair.h"

#include <gtest/gtest.h>

#include <cmath>

#include "fixtures.h"
#include "sched/algorithm.h"
#include "metrics/fairness.h"
#include "metrics/utility.h"
#include "sched/fcfs.h"
#include "sched/ref.h"
#include "workload/synthetic.h"

namespace fairsched {
namespace {

using fixtures::placement_digest;
using fixtures::unit_instance;
using fixtures::zero_machine_instance;

struct RandGolden {
  std::vector<HalfUtil> utilities2;
  std::vector<double> contributions;
  std::size_t placements;
  std::uint64_t digest;
};

void expect_golden(const Instance& inst, RandOptions options, Time horizon,
                   const RandGolden& golden) {
  RandScheduler rand(inst, options);
  rand.run(horizon);
  EXPECT_EQ(rand.utilities2(), golden.utilities2);
  EXPECT_EQ(rand.contributions(), golden.contributions);
  EXPECT_EQ(rand.schedule().size(), golden.placements);
  EXPECT_EQ(placement_digest(rand.schedule()), golden.digest);
}

// Pinned RAND output: utilities, contribution estimates at the horizon and
// a digest of every placement of the real schedule. The values were
// recorded with each sampled coalition valued by its own FcfsPolicy-driven
// engine; any other way of valuing the samples must reproduce them.
TEST(RandGolden, LpcEgeeMixedSizesSixOrgs) {
  const Instance inst = make_synthetic_instance(
      preset_lpc_egee(), 6, 10000, MachineSplit::kZipf, 1.0, 2013);
  const RandGolden golden{
      {1153164528, 291310972, 739346232, 821007414, 302018298, 812907254},
      {0x1.2ce9f39111111p+29, 0x1.86b3e77333333p+27, 0x1.12204e5cccccdp+28,
       0x1.68e7ffc888889p+28, 0x1.53987a3555555p+27, 0x1.6acf73c444444p+28},
      1067,
      0xa9e538821c61b22dULL};
  expect_golden(inst, RandOptions{15, 1}, 10000, golden);
}

TEST(RandGolden, UnitJobs) {
  const RandGolden golden{
      {6872, 6696, 6874, 6752, 6922},
      {0x1.b02999999999ap+11, 0x1.9ea999999999ap+11, 0x1.ae54ccccccccdp+11,
       0x1.a69999999999ap+11, 0x1.b07e666666666p+11},
      200,
      0xa9cad37eae43ab63ULL};
  expect_golden(unit_instance(5, 40, 7), RandOptions{20, 3}, 100, golden);
}

TEST(RandGolden, ZeroMachineOrgs) {
  const RandGolden golden{
      {41032, 50692, 44698, 47316, 48842},
      {0x1.9500f5c28f5c3p+14, 0x1.64ce147ae147bp+14, 0x1.b2edc28f5c28fp+13,
       0x1.31de51eb851ecp+15, 0x1.c132e147ae148p+13},
      150,
      0xa0aa26d512eb74f9ULL};
  expect_golden(zero_machine_instance(), RandOptions{25, 5}, 200, golden);
}

// Differential check of the closed-form FCFS value curve against an engine
// restricted to the same coalition and driven by FcfsPolicy, at a series
// of query times and at the horizon. The instances stress same-time
// releases across organizations (releases drawn from a narrow range),
// completions that coincide with releases (short jobs on few machines),
// and coalitions owning no machines.
TEST(FcfsValueCurve, MatchesFcfsEngineOnEveryCoalition) {
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    Rng rng(seed);
    InstanceBuilder b;
    const std::uint32_t k = 2 + static_cast<std::uint32_t>(rng.uniform_u64(3));
    for (std::uint32_t u = 0; u < k; ++u) {
      b.add_org("o" + std::to_string(u),
                static_cast<std::uint32_t>(rng.uniform_u64(3)));
    }
    const bool unit = seed % 3 == 0;
    for (std::uint32_t u = 0; u < k; ++u) {
      const auto jobs = static_cast<std::uint32_t>(rng.uniform_u64(25));
      for (std::uint32_t i = 0; i < jobs; ++i) {
        b.add_job(u, static_cast<Time>(rng.uniform_u64(20)),
                  unit ? 1 : 1 + static_cast<Time>(rng.uniform_u64(6)));
      }
    }
    // A jobless one-machine organization keeps the platform buildable when
    // every drawn machine count is zero.
    b.add_org("anchor", 1);
    const Instance inst = std::move(b).build();
    const Time horizon = 90;
    const std::vector<FcfsJob> order = fcfs_job_order(inst);
    const Coalition::Mask end = Coalition::Mask{1} << inst.num_orgs();
    for (Coalition::Mask mask = 1; mask < end; ++mask) {
      // A fresh engine per query time: Engine::run makes no decision at
      // its horizon, so a resumed run would skip the decisions due there.
      auto fcfs_value2 = [&](Time t) {
        Engine engine(inst, Coalition(mask));
        FcfsPolicy fcfs;
        engine.run(fcfs, t);
        return engine.value2();
      };
      FcfsValueCurve curve(inst, order, Coalition(mask));
      for (Time t = 0; t < horizon; t += 1 + (t % 4)) {
        curve.advance_to(t);
        ASSERT_EQ(curve.value2(), fcfs_value2(t))
            << "seed=" << seed << " mask=" << mask << " t=" << t;
      }
      curve.advance_to(horizon);
      EXPECT_EQ(curve.value2(), fcfs_value2(horizon))
          << "seed=" << seed << " mask=" << mask << " at the horizon";
    }
  }
}

TEST(FcfsValueCurve, MachinelessCoalitionHasZeroValue) {
  const Instance inst = zero_machine_instance();
  // Organizations 2 and 4 own no machines.
  const std::vector<FcfsJob> order = fcfs_job_order(inst);
  FcfsValueCurve curve(inst, order, Coalition((1u << 2) | (1u << 4)));
  for (Time t : {0, 10, 150, 1000}) {
    curve.advance_to(t);
    EXPECT_EQ(curve.value2(), 0);
  }
}

TEST(Rand, ProducesFeasibleGreedySchedule) {
  const Instance inst = make_synthetic_instance(
      preset_lpc_egee(), 4, 1500, MachineSplit::kZipf, 1.0, 51);
  RandScheduler rand(inst, RandOptions{15, 7});
  rand.run(1500);
  EXPECT_EQ(rand.schedule().validate(inst, 1500), std::nullopt);
}

// take_schedule moves the grand placements out and leaves every other
// result readable; RandAlgorithm hands the moved-out schedule on.
TEST(Rand, TakeScheduleMovesTheGrandPlacementsOut) {
  const Instance inst = make_synthetic_instance(
      preset_lpc_egee(), 4, 1500, MachineSplit::kZipf, 1.0, 51);
  RandScheduler rand(inst, RandOptions{15, 7});
  rand.run(1500);
  const std::vector<Placement> before = rand.schedule().placements();
  const std::vector<HalfUtil> utilities = rand.utilities2();
  const std::int64_t work = rand.work_done();
  ASSERT_FALSE(before.empty());
  const Schedule taken = rand.take_schedule();
  EXPECT_EQ(taken.placements(), before);
  EXPECT_TRUE(rand.schedule().placements().empty());
  EXPECT_EQ(rand.utilities2(), utilities);
  EXPECT_EQ(rand.work_done(), work);

  const RunResult result = RandAlgorithm(15).run(inst, 1500, 7);
  EXPECT_EQ(result.schedule.placements(), before);
  EXPECT_EQ(result.utilities2, utilities);
  EXPECT_EQ(result.work_done, work);
}

TEST(Rand, UtilitiesMatchClosedForm) {
  const Instance inst = unit_instance(4, 20, 3);
  RandScheduler rand(inst, RandOptions{15, 7});
  rand.run(60);
  const auto psi2 = rand.utilities2();
  for (OrgId u = 0; u < inst.num_orgs(); ++u) {
    EXPECT_EQ(psi2[u], sp_org_half_utility(inst, rand.schedule(), u, 60));
  }
}

TEST(Rand, DeterministicPerSeed) {
  const Instance inst = unit_instance(4, 15, 5);
  RandScheduler a(inst, RandOptions{10, 42});
  RandScheduler b(inst, RandOptions{10, 42});
  a.run(50);
  b.run(50);
  EXPECT_EQ(a.utilities2(), b.utilities2());
}

TEST(Rand, CloseToRefOnUnitJobs) {
  // On unit-size jobs RAND is an FPRAS; with many samples the schedule's
  // utility vector must be close to REF's (relative Manhattan distance).
  const Instance inst = unit_instance(4, 40, 11);
  const Time horizon = 80;
  RefScheduler ref(inst);
  ref.run(horizon);
  RandScheduler rand(inst, RandOptions{200, 13});
  rand.run(horizon);
  const double rel = relative_distance(rand.utilities2(), ref.utilities2());
  EXPECT_LT(rel, 0.05) << "relative distance " << rel;
}

TEST(Rand, MoreSamplesImproveContributionEstimates) {
  // Compare RAND's phi estimates against exact Shapley of the same
  // characteristic function (values of FCFS-scheduled subcoalitions at the
  // horizon) on a unit-job instance.
  const Instance inst = unit_instance(4, 30, 17);
  const Time horizon = 100;

  RandScheduler coarse(inst, RandOptions{5, 23});
  RandScheduler fine(inst, RandOptions{400, 23});
  coarse.run(horizon);
  fine.run(horizon);

  RefScheduler ref(inst);
  ref.run(horizon);
  const auto ref_phi = ref.contributions();
  auto err = [&](const std::vector<double>& phi) {
    double total = 0.0;
    for (std::size_t u = 0; u < phi.size(); ++u) {
      total += std::abs(phi[u] - ref_phi[u]);
    }
    return total;
  };
  EXPECT_LE(err(fine.contributions()), err(coarse.contributions()) + 1e-9);
}

TEST(Rand, DistinctCoalitionsBounded) {
  const Instance inst = unit_instance(4, 5, 29);
  RandScheduler rand(inst, RandOptions{50, 31});
  // At most all 2^4 - 1 nonempty masks get a value curve; the empty prefix
  // never does (v = 0).
  EXPECT_LE(rand.distinct_coalitions(), 15u);
  EXPECT_GE(rand.distinct_coalitions(), 4u);
}

TEST(Rand, TheoremSampleBoundFormula) {
  // N = ceil(k^2 / eps^2 * ln(k / (1 - lambda)))
  const std::size_t n = rand_theorem_samples(5, 0.1, 0.95);
  EXPECT_EQ(n, static_cast<std::size_t>(
                   std::ceil(25.0 / 0.01 * std::log(5.0 / 0.05))));
}

TEST(Rand, InvalidOptionsThrow) {
  const Instance inst = unit_instance(2, 2, 1);
  EXPECT_THROW(RandScheduler(inst, RandOptions{0, 1}), std::invalid_argument);
}

TEST(Rand, RunTwiceThrows) {
  const Instance inst = unit_instance(2, 2, 1);
  RandScheduler rand(inst, RandOptions{5, 1});
  rand.run(10);
  EXPECT_THROW(rand.run(10), std::logic_error);
}

}  // namespace
}  // namespace fairsched
