// Tests for the strategic-deviation layer (src/strategy): the closed
// deviation family's parsing/validation/transforms, instance rebuilding,
// and the best-response driver's true-size grading.

#include <gtest/gtest.h>

#include <numeric>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/instance.h"
#include "metrics/utility.h"
#include "strategy/deviation.h"
#include "strategy/game.h"
#include "util/rng.h"
#include "workload/synthetic.h"

namespace fairsched::strategy {
namespace {

using Kind = DeviationSpec::Kind;

// --- Labels, parsing, validation --------------------------------------------

TEST(DeviationSpec, LabelsAreCanonical) {
  EXPECT_EQ(deviation_label({Kind::kHonest, 0}), "honest");
  EXPECT_EQ(deviation_label({Kind::kSplit, 0}), "splitunit");
  EXPECT_EQ(deviation_label({Kind::kSplit, 2}), "split2");
  EXPECT_EQ(deviation_label({Kind::kMerge, 3}), "merge3");
  EXPECT_EQ(deviation_label({Kind::kDelay, 20}), "delay20");
  EXPECT_EQ(deviation_label({Kind::kMisreport, 200}), "misreport200");
}

TEST(DeviationSpec, ParseRoundTripsEveryLabel) {
  const std::vector<DeviationSpec> specs = {
      {Kind::kHonest, 0},  {Kind::kSplit, 0},      {Kind::kSplit, 4},
      {Kind::kMerge, 2},   {Kind::kDelay, 100},    {Kind::kMisreport, 50},
      {Kind::kMisreport, 200},
  };
  for (const DeviationSpec& dev : specs) {
    EXPECT_EQ(parse_deviation(deviation_label(dev)), dev);
  }
  // The explicit kind:param form is equivalent.
  EXPECT_EQ(parse_deviation("split:2"), (DeviationSpec{Kind::kSplit, 2}));
  EXPECT_EQ(parse_deviation("misreport:50"),
            (DeviationSpec{Kind::kMisreport, 50}));
}

TEST(DeviationSpec, ParseRejectsMalformedTokens) {
  for (const char* bad : {"", "bogus", "split:x", "honest:1", "merge1",
                          "delay0", "misreport0", "split:-2"}) {
    EXPECT_THROW(parse_deviation(bad), std::invalid_argument) << bad;
  }
  // An empty parameter falls back to the kind's default form.
  EXPECT_EQ(parse_deviation("split:"), (DeviationSpec{Kind::kSplit, 0}));
}

TEST(DeviationSpec, ValidateEnforcesKindRanges) {
  EXPECT_NO_THROW(validate_deviation({Kind::kHonest, 0}));
  EXPECT_THROW(validate_deviation({Kind::kHonest, 1}),
               std::invalid_argument);
  EXPECT_NO_THROW(validate_deviation({Kind::kSplit, 0}));
  EXPECT_THROW(validate_deviation({Kind::kSplit, 1}),
               std::invalid_argument);
  EXPECT_THROW(validate_deviation({Kind::kMerge, 1}),
               std::invalid_argument);
  EXPECT_THROW(validate_deviation({Kind::kDelay, 0}),
               std::invalid_argument);
  EXPECT_THROW(validate_deviation({Kind::kMisreport, 0}),
               std::invalid_argument);
}

TEST(DeviationSpec, DefaultGridStartsHonestAndValidates) {
  const std::vector<DeviationSpec> grid = default_deviation_grid();
  ASSERT_FALSE(grid.empty());
  EXPECT_EQ(grid.front().kind, Kind::kHonest);
  for (const DeviationSpec& dev : grid) {
    EXPECT_NO_THROW(validate_deviation(dev)) << deviation_label(dev);
  }
  // One honest reference only; every label distinct.
  for (std::size_t i = 0; i < grid.size(); ++i) {
    for (std::size_t j = i + 1; j < grid.size(); ++j) {
      EXPECT_NE(deviation_label(grid[i]), deviation_label(grid[j]));
    }
  }
}

// --- The job-stream transforms ----------------------------------------------

std::vector<Job> some_jobs() {
  return {{0, 0, 0, 7}, {0, 1, 3, 1}, {0, 2, 3, 4}, {0, 3, 10, 6},
          {0, 4, 22, 2}};
}

std::int64_t total_processing(const std::vector<Job>& jobs) {
  return std::accumulate(jobs.begin(), jobs.end(), std::int64_t{0},
                         [](std::int64_t acc, const Job& j) {
                           return acc + j.processing;
                         });
}

TEST(ApplyDeviation, HonestIsIdentity) {
  const std::vector<Job> jobs = some_jobs();
  const std::vector<Job> out =
      apply_deviation_to_jobs(jobs, {Kind::kHonest, 0});
  ASSERT_EQ(out.size(), jobs.size());
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    EXPECT_EQ(out[i].release, jobs[i].release);
    EXPECT_EQ(out[i].processing, jobs[i].processing);
  }
}

TEST(ApplyDeviation, SplitUnitYieldsUnitPiecesAtSameRelease) {
  const std::vector<Job> jobs = some_jobs();
  const std::vector<Job> out =
      apply_deviation_to_jobs(jobs, {Kind::kSplit, 0});
  EXPECT_EQ(static_cast<std::int64_t>(out.size()), total_processing(jobs));
  EXPECT_EQ(total_processing(out), total_processing(jobs));
  std::size_t at = 0;
  for (const Job& j : jobs) {
    for (Time piece = 0; piece < j.processing; ++piece, ++at) {
      EXPECT_EQ(out[at].release, j.release);
      EXPECT_EQ(out[at].processing, 1);
    }
  }
}

TEST(ApplyDeviation, SplitKMakesEqualAsPossiblePieces) {
  const std::vector<Job> jobs = {{0, 0, 5, 7}};
  const std::vector<Job> out =
      apply_deviation_to_jobs(jobs, {Kind::kSplit, 3});
  // 7 into 3 pieces: sizes {3, 2, 2}, work conserved, same release.
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(total_processing(out), 7);
  for (const Job& j : out) {
    EXPECT_EQ(j.release, 5);
    EXPECT_GE(j.processing, 2);
    EXPECT_LE(j.processing, 3);
  }
  // A job shorter than k yields only p unit pieces.
  const std::vector<Job> tiny =
      apply_deviation_to_jobs({{{0, 0, 1, 2}}}, {Kind::kSplit, 5});
  ASSERT_EQ(tiny.size(), 2u);
  EXPECT_EQ(tiny[0].processing, 1);
  EXPECT_EQ(tiny[1].processing, 1);
}

TEST(ApplyDeviation, MergeRunsOfK) {
  const std::vector<Job> jobs = some_jobs();
  const std::vector<Job> out =
      apply_deviation_to_jobs(jobs, {Kind::kMerge, 2});
  // 5 jobs -> runs {0,1}, {2,3} and a short final run {4} kept as-is.
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(total_processing(out), total_processing(jobs));
  EXPECT_EQ(out[0].release, 3);   // max(0, 3)
  EXPECT_EQ(out[0].processing, 8);  // 7 + 1
  EXPECT_EQ(out[1].release, 10);  // max(3, 10)
  EXPECT_EQ(out[1].processing, 10);  // 4 + 6
  EXPECT_EQ(out[2].release, 22);
  EXPECT_EQ(out[2].processing, 2);
}

TEST(ApplyDeviation, DelayShiftsEveryRelease) {
  const std::vector<Job> jobs = some_jobs();
  const std::vector<Job> out =
      apply_deviation_to_jobs(jobs, {Kind::kDelay, 9});
  ASSERT_EQ(out.size(), jobs.size());
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    EXPECT_EQ(out[i].release, jobs[i].release + 9);
    EXPECT_EQ(out[i].processing, jobs[i].processing);
  }
}

TEST(ApplyDeviation, MisreportScalesDeclaredSizesOnly) {
  const std::vector<Job> jobs = some_jobs();
  const std::vector<Job> under =
      apply_deviation_to_jobs(jobs, {Kind::kMisreport, 50});
  const std::vector<Job> over =
      apply_deviation_to_jobs(jobs, {Kind::kMisreport, 200});
  ASSERT_EQ(under.size(), jobs.size());
  ASSERT_EQ(over.size(), jobs.size());
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    EXPECT_EQ(under[i].release, jobs[i].release);
    EXPECT_EQ(under[i].processing,
              std::max<Time>(1, jobs[i].processing * 50 / 100));
    EXPECT_EQ(over[i].processing, jobs[i].processing * 2);
  }
}

// --- Instance rebuilding ----------------------------------------------------

Instance two_org_instance() {
  InstanceBuilder b;
  const OrgId a = b.add_org("deviator", 2);
  const OrgId z = b.add_org("honest", 3);
  b.add_job(a, 0, 4);
  b.add_job(a, 2, 6);
  b.add_job(z, 1, 3);
  b.add_job(z, 5, 5);
  return std::move(b).build();
}

TEST(ApplyDeviationInstance, OnlyTheDeviatorChanges) {
  const Instance honest = two_org_instance();
  const Instance dev = apply_deviation(honest, 0, {Kind::kSplit, 0});
  ASSERT_EQ(dev.num_orgs(), honest.num_orgs());
  EXPECT_EQ(dev.org(0).name, "deviator");
  EXPECT_EQ(dev.org(0).machines, 2u);
  EXPECT_EQ(dev.org(1).machines, 3u);
  EXPECT_EQ(dev.jobs_of(0).size(), 10u);  // 4 + 6 unit pieces
  ASSERT_EQ(dev.jobs_of(1).size(), honest.jobs_of(1).size());
  for (std::size_t i = 0; i < honest.jobs_of(1).size(); ++i) {
    EXPECT_EQ(dev.job(1, i).release, honest.job(1, i).release);
    EXPECT_EQ(dev.job(1, i).processing, honest.job(1, i).processing);
  }
  EXPECT_EQ(dev.total_work(), honest.total_work());
}

// Random instances: two to five organizations (some without machines)
// with mixed job sizes, releases drawn from a narrow range so runs of
// equal releases are common.
Instance random_strategy_instance(std::uint64_t seed) {
  Rng rng(seed);
  InstanceBuilder b;
  const auto k = 2 + static_cast<std::uint32_t>(rng.uniform_u64(4));
  for (std::uint32_t u = 0; u < k; ++u) {
    b.add_org("o" + std::to_string(u),
              static_cast<std::uint32_t>(rng.uniform_u64(3)));
  }
  b.add_org("anchor", 1);
  for (std::uint32_t u = 0; u < k; ++u) {
    const auto jobs = static_cast<std::uint32_t>(rng.uniform_u64(20));
    for (std::uint32_t i = 0; i < jobs; ++i) {
      b.add_job(u, static_cast<Time>(rng.uniform_u64(15)),
                1 + static_cast<Time>(rng.uniform_u64(9)));
    }
  }
  return std::move(b).build();
}

// apply_deviation moves each declared stream into the builder whole; it
// must equal a plain per-job rebuild of the same declared streams.
TEST(ApplyDeviationInstance, EqualsAPerJobRebuildOnEveryGridEntry) {
  std::vector<Instance> honests;
  honests.push_back(make_synthetic_instance(preset_lpc_egee(), 4, 3000,
                                            MachineSplit::kZipf, 1.0, 5));
  ASSERT_GT(honests[0].jobs_of(0).size(), 10u);
  ASSERT_GT(honests[0].jobs_of(3).size(), 10u);
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    honests.push_back(random_strategy_instance(seed));
  }
  for (std::size_t n = 0; n < honests.size(); ++n) {
    const Instance& honest = honests[n];
    for (const DeviationSpec& dev : default_deviation_grid()) {
      for (OrgId deviator = 0; deviator < honest.num_orgs(); ++deviator) {
        InstanceBuilder b;
        for (OrgId u = 0; u < honest.num_orgs(); ++u) {
          b.add_org(honest.org(u).name, honest.org(u).machines);
          const std::vector<Job> jobs =
              u == deviator
                  ? apply_deviation_to_jobs(honest.jobs_of(u), dev)
                  : std::vector<Job>(honest.jobs_of(u).begin(),
                                     honest.jobs_of(u).end());
          for (const Job& job : jobs) {
            b.add_job(u, job.release, job.processing);
          }
        }
        const Instance want = std::move(b).build();
        const Instance got = apply_deviation(honest, deviator, dev);
        const std::string what = "instance=" + std::to_string(n) + " " +
                                 deviation_label(dev) +
                                 " deviator=" + std::to_string(deviator);
        ASSERT_EQ(got.num_orgs(), want.num_orgs()) << what;
        EXPECT_EQ(got.num_jobs(), want.num_jobs()) << what;
        EXPECT_EQ(got.total_work(), want.total_work()) << what;
        EXPECT_EQ(got.last_release(), want.last_release()) << what;
        EXPECT_EQ(got.total_machines(), want.total_machines()) << what;
        for (OrgId u = 0; u < want.num_orgs(); ++u) {
          EXPECT_EQ(got.org(u).name, want.org(u).name) << what;
          EXPECT_EQ(got.org(u).machines, want.org(u).machines) << what;
          const auto g = got.jobs_of(u);
          const auto w = want.jobs_of(u);
          ASSERT_EQ(g.size(), w.size()) << what << " u=" << u;
          for (std::size_t i = 0; i < w.size(); ++i) {
            EXPECT_EQ(g[i].org, w[i].org) << what << " u=" << u << " i=" << i;
            EXPECT_EQ(g[i].index, w[i].index) << what << " u=" << u;
            EXPECT_EQ(g[i].release, w[i].release) << what << " u=" << u;
            EXPECT_EQ(g[i].processing, w[i].processing) << what << " u=" << u;
          }
        }
      }
    }
  }
}

TEST(ApplyDeviationInstance, RejectsBadArguments) {
  const Instance honest = two_org_instance();
  EXPECT_THROW(apply_deviation(honest, 2, {Kind::kSplit, 0}),
               std::invalid_argument);
  EXPECT_THROW(apply_deviation(honest, 0, {Kind::kDelay, 0}),
               std::invalid_argument);
}

// --- Best-response grading --------------------------------------------------

TEST(PlayDeviationGrid, HonestEntryIsTheGainReference) {
  const Instance inst = two_org_instance();
  const std::vector<DeviationSpec> grid = {{Kind::kHonest, 0},
                                           {Kind::kDelay, 3}};
  const std::vector<DeviationOutcome> outcomes =
      play_deviation_grid(inst, 0, grid, "fcfs", 60, 1);
  ASSERT_EQ(outcomes.size(), 2u);
  EXPECT_EQ(outcomes[0].dev.kind, Kind::kHonest);
  EXPECT_GT(outcomes[0].outcome.deviator_utility, 0.0);
  EXPECT_GT(outcomes[0].outcome.deviator_flow, 0.0);
  EXPECT_GT(outcomes[0].outcome.honest_utility, 0.0);
  // Honest deviation == an unmodified run of the policy.
  const RunResult honest_run =
      exp::PolicyRegistry::global().run(inst, "fcfs", 60, 1);
  EXPECT_EQ(outcomes[0].outcome.deviator_utility,
            half_to_double(honest_run.utilities2[0]));
}

TEST(EvaluateDeviation, MisreportCapsUtilityAndDropsUnderDeclared) {
  // One machine, one org, one true job of size 4. Declared size 2 (under-
  // report): the machine frees at start+2, the job never completes, and
  // the deviator earns only min(2, 4) = 2 units of useful work.
  InstanceBuilder hb;
  const OrgId o = hb.add_org("o", 1);
  hb.add_job(o, 0, 4);
  const Instance honest = std::move(hb).build();
  const DeviationSpec dev{Kind::kMisreport, 50};
  const Instance declared = apply_deviation(honest, 0, dev);
  ASSERT_EQ(declared.job(0, 0).processing, 2);

  Schedule schedule;
  schedule.add({o, 0, 0, 0});
  const Time horizon = 10;
  std::vector<HalfUtil> utilities2 = {
      sp_job_half_utility(0, declared.job(0, 0).processing, horizon)};
  const StrategyOutcome out = evaluate_deviation(
      honest, declared, 0, dev, schedule, horizon, utilities2);
  EXPECT_EQ(utilities2[0], sp_job_half_utility(0, 2, horizon));
  EXPECT_EQ(out.deviator_utility,
            half_to_double(sp_job_half_utility(0, 2, horizon)));
  EXPECT_EQ(out.deviator_flow, 0.0);  // nothing truly completed

  // Over-declaring (200%) completes at start + true size; the phantom
  // tail earns nothing.
  const DeviationSpec over{Kind::kMisreport, 200};
  const Instance inflated = apply_deviation(honest, 0, over);
  ASSERT_EQ(inflated.job(0, 0).processing, 8);
  std::vector<HalfUtil> u2 = {
      sp_job_half_utility(0, inflated.job(0, 0).processing, horizon)};
  const StrategyOutcome out2 =
      evaluate_deviation(honest, inflated, 0, over, schedule, horizon, u2);
  EXPECT_EQ(u2[0], sp_job_half_utility(0, 4, horizon));
  EXPECT_EQ(out2.deviator_flow, 4.0);  // completes at 0 + 4, released at 0
}

TEST(PlayDeviationGrid, SplitKeepsTrueWorkAcrossTheWholeGrid) {
  // Every non-misreport deviation's declared stream is its true stream:
  // the game never invents or destroys work.
  Rng rng(7);
  InstanceBuilder b;
  const OrgId dev_org = b.add_org("d", 1);
  const OrgId other = b.add_org("h", 1);
  Time t = 0;
  for (int i = 0; i < 12; ++i) {
    t += static_cast<Time>(rng.uniform_u64(5));
    b.add_job(dev_org, t, 1 + static_cast<Time>(rng.uniform_u64(6)));
    b.add_job(other, t, 1 + static_cast<Time>(rng.uniform_u64(4)));
  }
  const Instance honest = std::move(b).build();
  for (const DeviationSpec& dev : default_deviation_grid()) {
    if (dev.kind == Kind::kMisreport) continue;
    const Instance declared =
        dev.kind == Kind::kHonest ? honest
                                  : apply_deviation(honest, 0, dev);
    EXPECT_EQ(declared.total_work(), honest.total_work())
        << deviation_label(dev);
  }
}

}  // namespace
}  // namespace fairsched::strategy
