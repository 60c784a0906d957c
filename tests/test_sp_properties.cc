// Property tests for the strategy-proof utility psi_sp: the three axioms of
// Section 4 (Theorem 4.1), the flow-time equivalence (Proposition 4.2), and
// the axioms re-checked through the strategy/deviation.h transforms on
// policy-produced schedules of generated windows.

#include <gtest/gtest.h>

#include <tuple>

#include "exp/policy_registry.h"
#include "metrics/utility.h"
#include "strategy/deviation.h"
#include "strategy/game.h"
#include "util/rng.h"

namespace fairsched {
namespace {

// --- Axiom 3: strategy-resistance (merge/split invariance) -----------------
// psi(sigma + {(s, p1)}) + psi(sigma + {(s+p1, p2)}) == psi(sigma + {(s,
// p1+p2)}) — splitting a job into back-to-back pieces (or merging adjacent
// pieces) never changes the utility, at any time t.

using SplitCase = std::tuple<Time, Time, Time, Time>;  // s, p1, p2, t

class StrategyResistance : public ::testing::TestWithParam<SplitCase> {};

TEST_P(StrategyResistance, MergeSplitInvariant) {
  const auto [s, p1, p2, t] = GetParam();
  EXPECT_EQ(sp_job_half_utility(s, p1, t) + sp_job_half_utility(s + p1, p2, t),
            sp_job_half_utility(s, p1 + p2, t))
      << "s=" << s << " p1=" << p1 << " p2=" << p2 << " t=" << t;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, StrategyResistance,
    ::testing::Combine(::testing::Values<Time>(0, 1, 7, 100),
                       ::testing::Values<Time>(1, 2, 5, 40),
                       ::testing::Values<Time>(1, 3, 17),
                       ::testing::Values<Time>(0, 1, 6, 50, 1000)));

TEST(StrategyResistanceMany, ThreeWaySplit) {
  // Recursive application: splitting into three pieces is also neutral.
  for (Time t : {5, 12, 30, 200}) {
    const HalfUtil whole = sp_job_half_utility(2, 9, t);
    const HalfUtil parts = sp_job_half_utility(2, 3, t) +
                           sp_job_half_utility(5, 4, t) +
                           sp_job_half_utility(9, 2, t);
    EXPECT_EQ(whole, parts) << "t=" << t;
  }
}

// --- Axiom 1: task anonymity in starting times ------------------------------
// Moving a fully executed task of length p one step later costs the same
// for every task and every schedule: exactly p utility units (2p half-units).

using ShiftCase = std::tuple<Time, Time>;  // s, p

class StartTimeAnonymity : public ::testing::TestWithParam<ShiftCase> {};

TEST_P(StartTimeAnonymity, UnitShiftCostsP) {
  const auto [s, p] = GetParam();
  const Time t = s + p + 10;  // both variants fully executed
  EXPECT_EQ(sp_job_half_utility(s, p, t) - sp_job_half_utility(s + 1, p, t),
            2 * p);
}

INSTANTIATE_TEST_SUITE_P(Sweep, StartTimeAnonymity,
                         ::testing::Combine(::testing::Values<Time>(0, 3, 11,
                                                                    500),
                                            ::testing::Values<Time>(1, 2, 7,
                                                                    64)));

TEST(StartTimeAnonymity, DelayNeverProfitable) {
  // psi is non-increasing in the start time, for any t (even mid-execution).
  for (Time t : {4, 9, 15, 40}) {
    for (Time p : {1, 3, 8}) {
      HalfUtil prev = sp_job_half_utility(0, p, t);
      for (Time s = 1; s < t + 3; ++s) {
        const HalfUtil cur = sp_job_half_utility(s, p, t);
        EXPECT_LE(cur, prev) << "s=" << s << " p=" << p << " t=" << t;
        prev = cur;
      }
    }
  }
}

// --- Axiom 2: task anonymity in the number of tasks -------------------------
// Completing an additional task always increases the utility, by an amount
// independent of the rest of the schedule (additivity is structural: the
// utility is a sum over jobs).

TEST(TaskCountAnonymity, AdditionalTaskAlwaysHelps) {
  for (Time s : {0, 2, 9}) {
    for (Time p : {1, 4, 11}) {
      for (Time t = s + 1; t <= s + p + 5; ++t) {
        EXPECT_GT(sp_job_half_utility(s, p, t), 0)
            << "s=" << s << " p=" << p << " t=" << t;
      }
    }
  }
}

TEST(TaskCountAnonymity, ArtificiallyInflatingJobsNeverPays) {
  // Claiming a longer job cannot reduce utility (the padding executes and
  // earns); but the extra utility is exactly what the padding work earns —
  // no free lunch versus submitting the real job and another real job.
  for (Time t : {10, 25}) {
    EXPECT_GE(sp_job_half_utility(0, 8, t), sp_job_half_utility(0, 5, t));
    EXPECT_EQ(sp_job_half_utility(0, 8, t),
              sp_job_half_utility(0, 5, t) + sp_job_half_utility(5, 3, t));
  }
}

// --- Proposition 4.2: equivalence with flow time for equal-size jobs --------
// For a fixed set of equal-length jobs all completed by t, psi_sp = const -
// p * flow_time, so maximizing psi_sp is minimizing flow time.

TEST(Prop42, PsiSpIsAffineInFlowTimeForEqualJobs) {
  InstanceBuilder b;
  const OrgId o = b.add_org("o", 2);
  const Time p = 4;
  for (int i = 0; i < 6; ++i) b.add_job(o, i, p);
  const Instance inst = std::move(b).build();

  // Two different feasible-ish placements of the same jobs (machine ids
  // are irrelevant to both metrics).
  auto make_schedule = [&](const std::vector<Time>& starts) {
    Schedule s;
    for (std::uint32_t i = 0; i < starts.size(); ++i) {
      s.add({o, i, starts[i], static_cast<MachineId>(i % 2)});
    }
    return s;
  };
  const Schedule s1 = make_schedule({0, 1, 4, 5, 8, 9});
  const Schedule s2 = make_schedule({0, 1, 4, 6, 9, 10});
  const Time t = 40;  // everything completed

  const HalfUtil psi1 = sp_org_half_utility(inst, s1, o, t);
  const HalfUtil psi2 = sp_org_half_utility(inst, s2, o, t);
  const std::int64_t flow1 = total_flow_time(inst, s1, t);
  const std::int64_t flow2 = total_flow_time(inst, s2, t);

  // delta psi = -p * delta flow  (in half-units: -2p * delta flow)
  EXPECT_EQ(psi1 - psi2, -2 * p * (flow1 - flow2));
  EXPECT_GT(psi1, psi2);  // earlier starts: better utility, lower flow
  EXPECT_LT(flow1, flow2);
}

TEST(Prop42, BreaksForUnequalJobs) {
  // With unequal sizes the equivalence fails: flow time favors finishing
  // short jobs first, psi_sp weights by executed work. Swapping a short and
  // a long job on one machine changes the two metrics disproportionally.
  InstanceBuilder b;
  const OrgId o = b.add_org("o", 1);
  b.add_job(o, 0, 1);
  b.add_job(o, 0, 10);
  const Instance inst = std::move(b).build();
  const Time t = 30;

  Schedule short_first;
  short_first.add({o, 0, 0, 0});
  short_first.add({o, 1, 1, 0});
  Schedule long_first;
  long_first.add({o, 0, 10, 0});
  long_first.add({o, 1, 0, 0});

  // Flow time strongly prefers short-first...
  EXPECT_LT(total_flow_time(inst, short_first, t),
            total_flow_time(inst, long_first, t));
  // ...while psi_sp is indifferent (same multiset of busy slots, work
  // conserved: 11 units executed over [0, 11) either way).
  EXPECT_EQ(sp_org_half_utility(inst, short_first, o, t),
            sp_org_half_utility(inst, long_first, o, t));
}

// --- Theorem 4.1 through the deviation transforms ---------------------------
// The axioms above are statements about sp_job_half_utility in isolation;
// these re-check them through strategy/deviation.h on real schedules: the
// grading depends only on the allocated slots, so re-describing the same
// slots as split or merged jobs cannot move psi_sp, and pushing every slot
// later can only lower it — for every registered policy's schedule on
// generated windows.

namespace {

// A small two-org window with mixed job sizes (seeded, deterministic).
Instance generated_window(std::uint64_t seed) {
  Rng rng(seed);
  InstanceBuilder b;
  const OrgId deviator = b.add_org("deviator", 1);
  const OrgId honest = b.add_org("honest", 2);
  Time t = 0;
  for (int i = 0; i < 10; ++i) {
    t += static_cast<Time>(rng.uniform_u64(4));
    b.add_job(deviator, t, 1 + static_cast<Time>(rng.uniform_u64(5)));
    b.add_job(honest, t, 1 + static_cast<Time>(rng.uniform_u64(3)));
  }
  return std::move(b).build();
}

}  // namespace

TEST(Thm41Transforms, SplitOfAllocatedSlotsIsPsiInvariantForEveryPolicy) {
  // Run each policy, then re-describe the deviator's allocated slots as
  // the splitunit instance's unit pieces occupying exactly the same
  // slots: psi_sp must not move by a single half-unit.
  const strategy::DeviationSpec split{strategy::DeviationSpec::Kind::kSplit,
                                      0};
  for (const std::string& policy :
       exp::PolicyRegistry::global().names()) {
    for (std::uint64_t seed : {1u, 2u, 3u}) {
      const Instance inst = generated_window(seed);
      const Time horizon = 80;
      const RunResult run =
          exp::PolicyRegistry::global().run(inst, policy, horizon, seed);
      const Instance pieces = strategy::apply_deviation(inst, 0, split);

      // Job j of the deviator becomes unit pieces [first[j], first[j+1]).
      std::vector<std::uint32_t> first(inst.jobs_of(0).size() + 1, 0);
      for (std::size_t j = 0; j < inst.jobs_of(0).size(); ++j) {
        first[j + 1] = first[j] +
                       static_cast<std::uint32_t>(inst.job(0, j).processing);
      }
      Schedule piecewise;
      for (const Placement& p : run.schedule.placements()) {
        if (p.org != 0) {
          piecewise.add(p);
          continue;
        }
        const Time size = inst.job(0, p.index).processing;
        for (Time unit = 0; unit < size; ++unit) {
          piecewise.add({0, first[p.index] + static_cast<std::uint32_t>(unit),
                         p.start + unit, p.machine});
        }
      }
      EXPECT_EQ(sp_org_half_utility(inst, run.schedule, 0, horizon),
                sp_org_half_utility(pieces, piecewise, 0, horizon))
          << policy << " seed=" << seed;
    }
  }
}

TEST(Thm41Transforms, MergeOfBackToBackSlotsIsPsiInvariant) {
  // Jobs scheduled back-to-back on one machine graded as merged runs of k
  // over the same busy slots: equal psi_sp for every run length, at every
  // horizon (through apply_deviation_to_jobs, not hand-built merges).
  Rng rng(11);
  InstanceBuilder b;
  const OrgId o = b.add_org("o", 1);
  std::vector<Time> sizes;
  for (int i = 0; i < 9; ++i) {
    sizes.push_back(1 + static_cast<Time>(rng.uniform_u64(6)));
    b.add_job(o, 0, sizes.back());
  }
  const Instance inst = std::move(b).build();
  Schedule sequential;
  Time at = 0;
  for (std::uint32_t j = 0; j < sizes.size(); ++j) {
    sequential.add({o, j, at, 0});
    at += sizes[j];
  }
  for (std::int64_t k : {2, 3, 4}) {
    const strategy::DeviationSpec merge{
        strategy::DeviationSpec::Kind::kMerge, k};
    const Instance merged = strategy::apply_deviation(inst, 0, merge);
    // Each merged job covers its run's contiguous slots: starts fall out
    // of the same back-to-back layout.
    Schedule merged_schedule;
    Time start = 0;
    for (std::uint32_t j = 0; j < merged.jobs_of(0).size(); ++j) {
      merged_schedule.add({o, j, start, 0});
      start += merged.job(0, j).processing;
    }
    for (Time t : {0, 3, 7, 15, 29, 100}) {
      EXPECT_EQ(sp_org_half_utility(inst, sequential, o, t),
                sp_org_half_utility(merged, merged_schedule, o, t))
          << "k=" << k << " t=" << t;
    }
  }
}

TEST(Thm41Transforms, DelayingEverySlotNeverImprovesPsiForAnyPolicy) {
  // Shift every placement of the deviator d steps later (the slots a
  // delayed release forces at best): psi_sp is non-increasing in d, on
  // every registered policy's schedule.
  for (const std::string& policy :
       exp::PolicyRegistry::global().names()) {
    const Instance inst = generated_window(5);
    const Time horizon = 80;
    const RunResult run =
        exp::PolicyRegistry::global().run(inst, policy, horizon, 5);
    HalfUtil previous = sp_org_half_utility(inst, run.schedule, 0, horizon);
    for (Time d : {1, 2, 5, 20}) {
      Schedule delayed;
      for (const Placement& p : run.schedule.placements()) {
        delayed.add(p.org == 0 ? Placement{p.org, p.index, p.start + d,
                                           p.machine}
                               : p);
      }
      const HalfUtil shifted =
          sp_org_half_utility(inst, delayed, 0, horizon);
      EXPECT_LE(shifted, previous) << policy << " d=" << d;
      previous = shifted;
    }
  }
}

TEST(Thm41Transforms, DelayNeverPaysThroughTheGameOnAverage) {
  // The full game (policy re-runs on the delayed instance) is noisy per
  // window but deterministic per seed: across a window batch the mean
  // delay gain must be non-positive for the share-graded policies.
  using Kind = strategy::DeviationSpec::Kind;
  const std::vector<strategy::DeviationSpec> grid = {{Kind::kHonest, 0},
                                                     {Kind::kDelay, 10}};
  for (const char* policy : {"fcfs", "fairshare", "directcontr"}) {
    double gain = 0.0;
    for (std::uint64_t seed = 0; seed < 8; ++seed) {
      const Instance inst = generated_window(seed);
      const auto outcomes =
          strategy::play_deviation_grid(inst, 0, grid, policy, 80, seed);
      gain += outcomes[1].outcome.deviator_utility -
              outcomes[0].outcome.deviator_utility;
    }
    EXPECT_LE(gain, 0.0) << policy;
  }
}

}  // namespace
}  // namespace fairsched
