// Randomized property tests ("fuzz" sweeps): for randomly generated
// instances and every scheduling algorithm, the produced schedule must be a
// feasible greedy schedule and every reported quantity must match the
// closed forms evaluated on that schedule. Parameterized over
// (algorithm, seed) so each combination is its own test case.

#include <gtest/gtest.h>

#include <string>
#include <tuple>

#include "metrics/utility.h"
#include "sched/rand_fair.h"
#include "sched/ref.h"
#include "exp/policy_registry.h"
#include "strategy/deviation.h"
#include "util/rng.h"

namespace fairsched {
namespace {
// Shorthand for the open policy registry (see exp/policy_registry.h).
exp::PolicyRegistry& registry() { return exp::PolicyRegistry::global(); }

Instance random_instance(std::uint64_t seed, std::uint32_t max_orgs,
                         bool unit_jobs) {
  Rng rng(mix_seed(seed, 0xF0CCA));
  InstanceBuilder b;
  const std::uint32_t k =
      2 + static_cast<std::uint32_t>(rng.uniform_u64(max_orgs - 1));
  std::uint32_t total_machines = 0;
  for (std::uint32_t u = 0; u < k; ++u) {
    // Allow machine-less organizations (pure consumers).
    const std::uint32_t m =
        static_cast<std::uint32_t>(rng.uniform_u64(4));
    total_machines += m;
    b.add_org("o" + std::to_string(u), m);
  }
  if (total_machines == 0) b.add_org("backbone", 2);
  const std::size_t jobs = 5 + rng.uniform_u64(60);
  for (std::size_t j = 0; j < jobs; ++j) {
    const OrgId owner = static_cast<OrgId>(rng.uniform_u64(k));
    const Time release = static_cast<Time>(rng.uniform_u64(80));
    const Time p =
        unit_jobs ? 1 : 1 + static_cast<Time>(rng.uniform_u64(25));
    b.add_job(owner, release, p);
  }
  return std::move(b).build();
}

// Config-defined compositions (a `switch =` and a `mix =` policy block),
// registered once on the global registry before the first run.
void register_fuzz_compositions() {
  static const bool registered = [] {
    exp::ConfigPolicyDef switched;
    switched.name = "fuzzswitch";
    switched.switch_policies = {"directcontr", "fairshare"};
    switched.switch_at = "60";
    exp::register_config_policy(registry(), switched);
    exp::ConfigPolicyDef mixed;
    mixed.name = "fuzzmix";
    mixed.mixture = {{"fcfs", 1.0}, {"decayfairshare300", 2.0},
                     {"roundrobin", 1.0}};
    exp::register_config_policy(registry(), mixed);
    return true;
  }();
  (void)registered;
}

// Runs `alg` on `inst`: the schedule must be a feasible greedy schedule,
// and the reported utilities and work must equal the closed forms on it
// (the executor takes utilization from RunResult::work_done alone).
void expect_feasible_and_exact(const Instance& inst, const std::string& alg,
                               std::uint64_t seed, const std::string& what) {
  register_fuzz_compositions();
  const Time horizon = 40 + static_cast<Time>(seed % 7) * 25;
  const RunResult r = registry().run(inst, alg, horizon, seed);
  // Feasibility: machine-exclusive, FIFO, greedy up to the horizon.
  EXPECT_EQ(r.schedule.validate(inst, horizon), std::nullopt) << what;
  // Reported utilities equal the Eq. 3 closed form on the schedule.
  for (OrgId u = 0; u < inst.num_orgs(); ++u) {
    EXPECT_EQ(r.utilities2[u],
              sp_org_half_utility(inst, r.schedule, u, horizon))
        << what << " u=" << u;
  }
  // Work conservation.
  EXPECT_EQ(r.work_done, completed_work(inst, r.schedule, horizon)) << what;
  EXPECT_LE(r.work_done, inst.total_work());
}

using FuzzCase = std::tuple<std::string, std::uint64_t>;

class AlgorithmFuzz : public ::testing::TestWithParam<FuzzCase> {};

TEST_P(AlgorithmFuzz, ScheduleFeasibleAndAccountingExact) {
  const auto& [alg, seed] = GetParam();
  expect_feasible_and_exact(random_instance(seed, 4, false), alg, seed,
                            alg + " seed=" + std::to_string(seed));
}

// The declared instance of a misreporting organization (the instance a
// strategy sweep schedules) is checked the same way.
TEST_P(AlgorithmFuzz, MisreportDeclaredScheduleFeasibleAndAccountingExact) {
  const auto& [alg, seed] = GetParam();
  const Instance honest = random_instance(seed, 4, false);
  const OrgId deviator = static_cast<OrgId>(seed % honest.num_orgs());
  const Instance declared = strategy::apply_deviation(
      honest, deviator,
      strategy::parse_deviation(seed % 2 == 0 ? "misreport200"
                                              : "misreport50"));
  expect_feasible_and_exact(declared, alg, seed,
                            alg + " seed=" + std::to_string(seed) +
                                " deviator=" + std::to_string(deviator));
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, AlgorithmFuzz,
    ::testing::Combine(
        ::testing::Values("roundrobin", "fairshare", "utfairshare",
                          "currfairshare", "decayfairshare300",
                          "directcontr", "random", "fcfs", "rand7", "ref",
                          "fuzzswitch", "fuzzmix"),
        ::testing::Values<std::uint64_t>(1, 2, 3, 4, 5, 6)),
    [](const ::testing::TestParamInfo<FuzzCase>& info) {
      return std::get<0>(info.param) + "_s" +
             std::to_string(std::get<1>(info.param));
    });

// REF-specific deep checks on random instances.
class RefFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RefFuzz, EveryCoalitionScheduleMatchesItsRestrictedWorld) {
  const std::uint64_t seed = GetParam();
  const Instance inst = random_instance(seed, 3, false);
  const Time horizon = 120;
  // Proper subcoalitions record only for an observer, so each coalition is
  // checked where the observer sees its finished engine and schedule.
  Coalition::Mask observed = 0;
  RefOptions options;
  options.on_coalition_finished = [&](Coalition c, const Engine& e,
                                      const Schedule& s) {
    ++observed;
    const Coalition::Mask mask = c.mask();
    EXPECT_EQ(s.size(), e.decisions_made())
        << "seed=" << seed << " mask=" << mask;
    EXPECT_EQ(s.check_machine_exclusive(inst), std::nullopt)
        << "seed=" << seed << " mask=" << mask;
    EXPECT_EQ(s.check_fifo(inst), std::nullopt)
        << "seed=" << seed << " mask=" << mask;
    // Utilities of non-members must be zero; member utilities match the
    // closed form.
    for (OrgId u = 0; u < inst.num_orgs(); ++u) {
      if (!c.contains(u)) {
        EXPECT_EQ(e.psi2(u), 0) << "seed=" << seed << " mask=" << mask;
      } else {
        EXPECT_EQ(e.psi2(u), sp_org_half_utility(inst, s, u, horizon))
            << "seed=" << seed << " mask=" << mask << " u=" << u;
      }
    }
  };
  RefScheduler ref(inst, options);
  ref.run(horizon);
  EXPECT_EQ(observed, Coalition::grand(inst.num_orgs()).mask())
      << "seed=" << seed;
  // Shapley efficiency of the reported contributions at the horizon.
  const auto phi = ref.contributions();
  double phi_sum = 0.0;
  for (double p : phi) phi_sum += p;
  const double v_grand =
      static_cast<double>(sp_half_value(inst, ref.schedule(), horizon)) / 2.0;
  EXPECT_NEAR(phi_sum, v_grand, 1e-6 * std::max(1.0, std::abs(v_grand)))
      << "seed=" << seed;
}

INSTANTIATE_TEST_SUITE_P(Sweep, RefFuzz,
                         ::testing::Values<std::uint64_t>(11, 12, 13, 14, 15,
                                                          16, 17, 18));

// RAND on unit jobs: the schedule's utility vector must stay within a
// loose band of REF's across random instances (the FPRAS property).
class RandUnitFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RandUnitFuzz, TracksRefOnUnitJobs) {
  const std::uint64_t seed = GetParam();
  const Instance inst = random_instance(seed, 4, true);
  const Time horizon = 100;
  RefScheduler ref(inst);
  ref.run(horizon);
  RandScheduler rand(inst, RandOptions{100, seed});
  rand.run(horizon);
  HalfUtil ref_norm = 0;
  for (HalfUtil v : ref.utilities2()) ref_norm += v;
  if (ref_norm == 0) return;  // degenerate window
  HalfUtil dist = 0;
  const auto a = rand.utilities2();
  const auto b = ref.utilities2();
  for (std::size_t u = 0; u < a.size(); ++u) dist += std::llabs(a[u] - b[u]);
  EXPECT_LT(static_cast<double>(dist) / static_cast<double>(ref_norm), 0.2)
      << "seed=" << seed;
}

INSTANTIATE_TEST_SUITE_P(Sweep, RandUnitFuzz,
                         ::testing::Values<std::uint64_t>(21, 22, 23, 24, 25,
                                                          26));

}  // namespace
}  // namespace fairsched
