// Behavioural tests for the baseline policies (ROUNDROBIN, the fair-share
// family, DIRECTCONTR, FCFS) and the registry facade.

#include <gtest/gtest.h>

#include "exp/policy_registry.h"
#include "fixtures.h"
#include "metrics/utility.h"
#include "sched/direct_contr.h"
#include "sim/engine.h"
#include "workload/synthetic.h"

namespace fairsched {
namespace {
// Shorthand for the open policy registry (see exp/policy_registry.h).
exp::PolicyRegistry& registry() { return exp::PolicyRegistry::global(); }

// Two organizations, one machine each, both flooding the system with unit
// jobs from t=0. Any sensible fair algorithm alternates; shares are equal.
Instance contended_unit_instance(std::uint32_t jobs_per_org) {
  InstanceBuilder b;
  const OrgId a = b.add_org("a", 1);
  const OrgId c = b.add_org("c", 1);
  for (std::uint32_t i = 0; i < jobs_per_org; ++i) {
    b.add_job(a, 0, 1);
    b.add_job(c, 0, 1);
  }
  return std::move(b).build();
}

TEST(RoundRobin, AlternatesUnderContention) {
  const Instance inst = contended_unit_instance(20);
  const RunResult r = registry().run(inst, "roundrobin", 10, 1);
  // In each slot both machines run one job; round robin serves a,c,a,c...
  EXPECT_EQ(r.utilities2[0], r.utilities2[1]);
}

TEST(RoundRobin, SkipsOrgsWithoutWork) {
  InstanceBuilder b;
  const OrgId a = b.add_org("a", 1);
  b.add_org("idle", 1);
  b.add_job(a, 0, 2);
  b.add_job(a, 0, 2);
  const Instance inst = std::move(b).build();
  const RunResult r = registry().run(inst, "roundrobin", 10, 1);
  // Both of a's jobs start immediately on the two machines.
  EXPECT_EQ(r.schedule.start_of(0, 0), 0);
  EXPECT_EQ(r.schedule.start_of(0, 1), 0);
}

TEST(FairShare, ProportionalToMachineShares) {
  // Org a contributes 3 machines, org c 1; both have unlimited unit work.
  InstanceBuilder b;
  const OrgId a = b.add_org("a", 3);
  const OrgId c = b.add_org("c", 1);
  for (int i = 0; i < 400; ++i) {
    b.add_job(a, 0, 1);
    b.add_job(c, 0, 1);
  }
  const Instance inst = std::move(b).build();
  const RunResult r = registry().run(inst, "fairshare", 50, 1);
  // Allocated CPU should track the 3:1 share ratio.
  // Completed unit parts by 50: 4 machines * 50 = 200 total.
  std::int64_t a_work = 0, c_work = 0;
  for (const Placement& p : r.schedule.placements()) {
    if (p.start < 50) (p.org == a ? a_work : c_work) += 1;
  }
  EXPECT_EQ(a_work + c_work, 200);
  // Discretization wiggles the ratio a bit around the 3:1 target.
  EXPECT_NEAR(static_cast<double>(a_work) / static_cast<double>(c_work), 3.0,
              0.35);
}

TEST(CurrFairShare, BalancesRunningJobs) {
  // 2 orgs, 2+2 machines, long jobs: at steady state each org runs two.
  InstanceBuilder b;
  const OrgId a = b.add_org("a", 2);
  const OrgId c = b.add_org("c", 2);
  for (int i = 0; i < 10; ++i) {
    b.add_job(a, 0, 100);
    b.add_job(c, 0, 100);
  }
  const Instance inst = std::move(b).build();
  const RunResult r = registry().run(inst, "currfairshare",
                                    100, 1);
  int a_running = 0, c_running = 0;
  for (const Placement& p : r.schedule.placements()) {
    if (p.start == 0) (p.org == a ? a_running : c_running)++;
  }
  EXPECT_EQ(a_running, 2);
  EXPECT_EQ(c_running, 2);
}

TEST(UtFairShare, EqualSharesEqualUtilities) {
  const Instance inst = contended_unit_instance(100);
  const RunResult r = registry().run(inst, "utfairshare", 60,
                                    1);
  // Perfectly symmetric situation: utilities should match exactly.
  EXPECT_EQ(r.utilities2[0], r.utilities2[1]);
}

TEST(DirectContr, CompensatesTheLender) {
  // Org a owns both machines but has little work; org c owns nothing and
  // floods. DirectContr must prioritize a's own (rare) jobs the moment they
  // arrive, since a's contribution vastly exceeds its utility.
  InstanceBuilder b;
  const OrgId a = b.add_org("a", 2);
  const OrgId c = b.add_org("c", 0);
  for (int i = 0; i < 50; ++i) b.add_job(c, 0, 5);
  b.add_job(a, 20, 5);
  const Instance inst = std::move(b).build();
  const RunResult r = registry().run(inst, "directcontr",
                                    200, 1);
  // a's job starts at the first machine-free moment at/after release 20.
  const auto start = r.schedule.start_of(a, 0);
  ASSERT_TRUE(start.has_value());
  EXPECT_EQ(*start, 20);
}

// Pinned DIRECTCONTR output: a digest of every placement (machine ids
// included), both accounts of every organization, and the event and
// decision counts. The machine draw indexes the free list in the order
// same-time completions return machines to it, so these pin the engine's
// completion order under MachinePick::kRandomFree along with the RNG
// stream.
struct DirectContrGolden {
  std::vector<HalfUtil> psi2;
  std::vector<HalfUtil> contrib_psi2;
  std::uint64_t events;
  std::uint64_t decisions;
  std::uint64_t digest;
};

void expect_golden(const Instance& inst, std::uint64_t seed, Time horizon,
                   const DirectContrGolden& golden) {
  EngineOptions options;
  options.machine_pick = MachinePick::kRandomFree;
  options.seed = seed;
  Engine engine(inst, options);
  Schedule schedule;
  engine.record_into(&schedule);
  DirectContrPolicy policy;
  engine.run(policy, horizon);
  std::vector<HalfUtil> psi2;
  std::vector<HalfUtil> contrib_psi2;
  for (OrgId u = 0; u < inst.num_orgs(); ++u) {
    psi2.push_back(engine.psi2(u));
    contrib_psi2.push_back(engine.contrib_psi2(u));
  }
  EXPECT_EQ(psi2, golden.psi2);
  EXPECT_EQ(contrib_psi2, golden.contrib_psi2);
  EXPECT_EQ(engine.events_processed(), golden.events);
  EXPECT_EQ(engine.decisions_made(), golden.decisions);
  EXPECT_EQ(fixtures::placement_digest(schedule), golden.digest);
}

// Unit jobs: every busy machine frees at every timestamp, so each draw
// follows a batch of same-time completions.
TEST(DirectContrGolden, UnitJobs) {
  const DirectContrGolden golden{
      {6872, 6696, 6874, 6752, 6922},
      {7412, 3872, 7890, 7542, 7400},
      400,
      200,
      0x6e77f32b23aa8d8aULL};
  expect_golden(fixtures::unit_instance(5, 40, 7), 3, 100, golden);
}

TEST(DirectContrGolden, LpcEgeeZipfSixOrgs) {
  const Instance inst = make_synthetic_instance(
      preset_lpc_egee(), 6, 10000, MachineSplit::kZipf, 1.0, 2013);
  const DirectContrGolden golden{
      {1153164528, 291310972, 740382202, 820976708, 301903118, 810321268},
      {1731413136, 746768426, 259242048, 327245726, 582540992, 470848468},
      2084,
      1067,
      0x19cc5b7853ce32e5ULL};
  expect_golden(inst, 1, 10000, golden);
}

TEST(Fcfs, OrdersByReleaseAcrossOrgs) {
  InstanceBuilder b;
  const OrgId a = b.add_org("a", 1);
  const OrgId c = b.add_org("c", 0);
  b.add_job(c, 0, 3);
  b.add_job(a, 1, 3);
  b.add_job(c, 2, 3);
  const Instance inst = std::move(b).build();
  const RunResult r = registry().run(inst, "fcfs", 100, 1);
  EXPECT_EQ(r.schedule.start_of(c, 0), 0);
  EXPECT_EQ(r.schedule.start_of(a, 0), 3);
  EXPECT_EQ(r.schedule.start_of(c, 1), 6);
}

TEST(Runner, AllPolicyAlgorithmsProduceFeasibleSchedules) {
  const SyntheticSpec spec = preset_lpc_egee();
  const Instance inst = make_synthetic_instance(spec, 5, 3000,
                                                MachineSplit::kZipf, 1.0, 21);
  for (const char* name : {"roundrobin", "fairshare", "utfairshare",
                           "currfairshare", "directcontr", "fcfs"}) {
    const RunResult r = registry().run(inst, name, 3000, 5);
    EXPECT_EQ(r.schedule.validate(inst, 3000), std::nullopt) << name;
    // Utilities reported must equal the closed form on the schedule.
    for (OrgId u = 0; u < inst.num_orgs(); ++u) {
      EXPECT_EQ(r.utilities2[u],
                sp_org_half_utility(inst, r.schedule, u, 3000))
          << name << " u=" << u;
    }
  }
}

TEST(Registry, ParsesTheOneNameGrammar) {
  // The registry owns the one name grammar (exp/policy_registry.h).
  EXPECT_EQ(registry().make("REF").base, "ref");
  EXPECT_EQ(registry().make("rand").params.at("samples").int_value, 15);
  EXPECT_EQ(registry().make("rand75").params.at("samples").int_value, 75);
  EXPECT_EQ(registry().make("Rand15").base, "rand");
  EXPECT_EQ(registry().make("DirectContr").base, "directcontr");
  EXPECT_THROW(registry().make("bogus"), std::invalid_argument);
  EXPECT_THROW(registry().make("rand0"), std::invalid_argument);
}

TEST(Registry, DisplayNames) {
  // The canonical name is the display form, used uniformly for CSV/JSON
  // columns, fingerprints and cache keys.
  EXPECT_EQ(exp::canonical_policy_name(registry().make("rand15")),
            "rand15");
  EXPECT_EQ(exp::canonical_policy_name(registry().make("fairshare")),
            "fairshare");
  EXPECT_EQ(registry().make("rand15").to_string(), "rand(samples=15)");
}

TEST(Registry, MakePolicyRejectsEnsembleAlgorithms) {
  EXPECT_THROW(registry().make_policy("ref"), std::invalid_argument);
  EXPECT_THROW(registry().make_policy("rand"), std::invalid_argument);
}

}  // namespace
}  // namespace fairsched
