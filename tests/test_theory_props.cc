// Tests reproducing the paper's theoretical propositions on concrete
// instances: Prop. 5.4 (greedy-invariant coalition value for unit jobs),
// Prop. 5.5 (non-supermodularity), the Theorem 5.3 inapproximability gadget
// (relative distance between sigma_ord and sigma_rev tends to 1), and the
// Theorem 6.2 / Figure 7 resource-utilization bound.

#include <gtest/gtest.h>

#include <algorithm>

#include "metrics/fairness.h"
#include "metrics/utility.h"
#include "shapley/shapley.h"
#include "sched/fcfs.h"
#include "sched/round_robin.h"
#include "exp/policy_registry.h"
#include "sim/engine.h"

namespace fairsched {
namespace {
// Shorthand for the open policy registry (see exp/policy_registry.h).
exp::PolicyRegistry& registry() { return exp::PolicyRegistry::global(); }

// --- Proposition 5.4 --------------------------------------------------------

TEST(Prop54, UnitJobCoalitionValueIsGreedyInvariant) {
  // Random-ish unit-size workload; every greedy algorithm must give every
  // coalition the same value at every time moment.
  InstanceBuilder b;
  b.add_org("a", 1);
  b.add_org("c", 2);
  b.add_org("d", 1);
  const Time releases[] = {0, 0, 0, 1, 1, 2, 2, 2, 3, 5, 5, 8};
  int i = 0;
  for (Time r : releases) {
    b.add_job(static_cast<OrgId>(i % 3), r, 1);
    ++i;
  }
  const Instance inst = std::move(b).build();

  for (Coalition::Mask mask = 1; mask < 8; ++mask) {
    for (Time t : {1, 2, 3, 4, 6, 9, 12}) {
      std::vector<HalfUtil> values;
      for (const char* alg : {"fcfs", "roundrobin", "fairshare",
                              "currfairshare", "directcontr"}) {
        Engine engine(inst, Coalition(mask));
        std::unique_ptr<Policy> policy = registry().make_policy(alg);
        engine.run(*policy, t);
        values.push_back(engine.value2());
      }
      for (std::size_t j = 1; j < values.size(); ++j) {
        EXPECT_EQ(values[j], values[0])
            << "mask=" << mask << " t=" << t << " alg#" << j;
      }
    }
  }
}

TEST(Prop54, FailsForMixedSizes) {
  // Sanity inversion: with mixed job sizes different greedy orders can
  // produce different *coalition values* (different busy patterns). This is
  // exactly why REF must keep recursive fair schedules for subcoalitions
  // and why RAND's simplified schedules are only exact for unit jobs.
  InstanceBuilder b;
  const OrgId a = b.add_org("a", 1);
  const OrgId c = b.add_org("c", 1);
  b.add_job(a, 0, 1);
  b.add_job(a, 0, 1);
  b.add_job(c, 0, 2);
  const Instance inst = std::move(b).build();

  auto finish_with_fcfs = [](Engine& engine, Time horizon) {
    FcfsPolicy fcfs;
    PolicyView view(engine);
    for (;;) {
      const Time t = engine.next_event();
      if (t == kTimeInfinity || t >= horizon) break;
      engine.advance_to(t);
      while (engine.needs_decision()) engine.start_front(fcfs.select(view));
    }
    engine.advance_to(horizon);
  };

  // Order 1: both unit jobs of a first; c's 2-job starts at t=1.
  Engine short_first(inst);
  short_first.advance_to(0);
  short_first.start_front(a);
  short_first.start_front(a);
  finish_with_fcfs(short_first, 2);

  // Order 2: c's long job and one unit job at t=0.
  Engine long_first(inst);
  long_first.advance_to(0);
  long_first.start_front(c);
  long_first.start_front(a);
  finish_with_fcfs(long_first, 2);

  // At t=2: short-first executed 3 unit parts, long-first 4.
  EXPECT_EQ(short_first.total_work_done(), 3);
  EXPECT_EQ(long_first.total_work_done(), 4);
  EXPECT_NE(short_first.value2(), long_first.value2());
}

// --- Proposition 5.5 --------------------------------------------------------

TEST(Prop55, SchedulingGameIsNotSupermodular) {
  // The paper's counterexample: a and b own one machine and two unit jobs
  // each (t=0); c owns one machine and nothing. Values at t=2:
  // v({a,c}) = v({b,c}) = 4, v({a,b,c}) = 7, v({c}) = 0.
  InstanceBuilder builder;
  const OrgId a = builder.add_org("a", 1);
  const OrgId bb = builder.add_org("b", 1);
  builder.add_org("c", 1);
  for (int i = 0; i < 2; ++i) {
    builder.add_job(a, 0, 1);
    builder.add_job(bb, 0, 1);
  }
  const Instance inst = std::move(builder).build();

  auto v = [&](Coalition c) -> double {
    if (c.is_empty()) return 0.0;
    Engine engine(inst, c);
    FcfsPolicy fcfs;
    engine.run(fcfs, 2);
    return static_cast<double>(engine.value2()) / 2.0;
  };
  EXPECT_DOUBLE_EQ(v(Coalition(0b101)), 4.0);  // {a, c}
  EXPECT_DOUBLE_EQ(v(Coalition(0b110)), 4.0);  // {b, c}
  EXPECT_DOUBLE_EQ(v(Coalition(0b111)), 7.0);  // {a, b, c}
  EXPECT_DOUBLE_EQ(v(Coalition(0b100)), 0.0);  // {c}
  // v({a,c} u {b,c}) + v({a,c} n {b,c}) < v({a,c}) + v({b,c})
  EXPECT_LT(v(Coalition(0b111)) + v(Coalition(0b100)),
            v(Coalition(0b101)) + v(Coalition(0b110)));
  EXPECT_FALSE(is_supermodular(3, v));
}

// --- Theorem 5.3 gadget ------------------------------------------------------

TEST(Thm53, OrderedVsReversedDistanceApproachesOne) {
  // m organizations, one job each (identical, size p), a single machine.
  // sigma_ord starts them 0, p, 2p, ...; sigma_rev reverses the priority.
  // The relative Manhattan distance between the two utility vectors tends
  // to 1 as m grows — why a (1/2 - eps)-approximation cannot distinguish
  // them (the inapproximability argument).
  auto relative_gap = [](std::uint32_t m) {
    const Time p = 4;
    InstanceBuilder b;
    for (std::uint32_t u = 0; u < m; ++u) {
      b.add_org("o" + std::to_string(u), u == 0 ? 1 : 0);
      b.add_job(u, 0, p);
    }
    const Instance inst = std::move(b).build();
    const Time t = static_cast<Time>(m) * p;  // all complete
    Schedule ord, rev;
    for (std::uint32_t u = 0; u < m; ++u) {
      ord.add({u, 0, static_cast<Time>(u) * p, 0});
      rev.add({u, 0, static_cast<Time>(m - 1 - u) * p, 0});
    }
    std::vector<HalfUtil> psi_ord = sp_half_utilities(inst, ord, t);
    std::vector<HalfUtil> psi_rev = sp_half_utilities(inst, rev, t);
    return relative_distance(psi_ord, psi_rev);
  };
  const double g4 = relative_gap(4);
  const double g16 = relative_gap(16);
  const double g64 = relative_gap(64);
  EXPECT_LT(g4, g16);
  EXPECT_LT(g16, g64);
  EXPECT_GT(g64, 0.9);
  EXPECT_LE(g64, 1.0 + 1e-12);
}

// --- Theorem 6.2 / Figure 7 --------------------------------------------------

// Fixed-priority policy: always serves the preferred organization first.
class PriorityPolicy final : public Policy {
 public:
  explicit PriorityPolicy(OrgId preferred) : preferred_(preferred) {}
  OrgId select(const PolicyView& view) override {
    if (view.waiting(preferred_) > 0) return preferred_;
    for (OrgId u = 0; u < view.num_orgs(); ++u) {
      if (view.waiting(u) > 0) return u;
    }
    throw std::logic_error("no waiting job");
  }

 private:
  OrgId preferred_;
};

Instance figure7_instance() {
  // 4 machines; O1: four jobs of size 3; O2: two jobs of size 6; all at 0.
  InstanceBuilder b;
  const OrgId o1 = b.add_org("O1", 2);
  const OrgId o2 = b.add_org("O2", 2);
  for (int i = 0; i < 4; ++i) b.add_job(o1, 0, 3);
  for (int i = 0; i < 2; ++i) b.add_job(o2, 0, 6);
  return std::move(b).build();
}

TEST(Thm62, Figure7WorstCaseIsExactlyThreeQuarters) {
  const Instance inst = figure7_instance();
  const Time horizon = 6;

  Engine good(inst);
  Schedule good_schedule;
  good.record_into(&good_schedule);
  PriorityPolicy prefer_long(1);
  good.run(prefer_long, horizon);
  EXPECT_DOUBLE_EQ(resource_utilization(inst, good_schedule, horizon), 1.0);

  Engine bad(inst);
  Schedule bad_schedule;
  bad.record_into(&bad_schedule);
  PriorityPolicy prefer_short(0);
  bad.run(prefer_short, horizon);
  EXPECT_DOUBLE_EQ(resource_utilization(inst, bad_schedule, horizon), 0.75);
}

TEST(Thm62, AllGreedyPoliciesWithinThreeQuartersOfEachOther) {
  // Theorem 6.2 implies any two greedy algorithms' utilizations are within
  // a factor 3/4 of each other at any time (each is at least 3/4 of the
  // optimum, which dominates both). Sweep a batch of structured instances.
  for (std::uint64_t seed = 0; seed < 12; ++seed) {
    Rng rng(seed * 97 + 1);
    InstanceBuilder b;
    const std::uint32_t k = 2 + static_cast<std::uint32_t>(seed % 3);
    for (std::uint32_t u = 0; u < k; ++u) {
      b.add_org("o" + std::to_string(u),
                1 + static_cast<std::uint32_t>(rng.uniform_u64(2)));
    }
    const std::size_t jobs = 12 + rng.uniform_u64(20);
    for (std::size_t j = 0; j < jobs; ++j) {
      b.add_job(static_cast<OrgId>(rng.uniform_u64(k)),
                static_cast<Time>(rng.uniform_u64(20)),
                1 + static_cast<Time>(rng.uniform_u64(12)));
    }
    const Instance inst = std::move(b).build();
    for (Time t : {5, 11, 23, 47}) {
      std::vector<double> utils;
      for (const char* alg :
           {"fcfs", "roundrobin", "fairshare", "currfairshare"}) {
        const RunResult r = registry().run(inst, alg, t, 3);
        utils.push_back(resource_utilization(inst, r.schedule, t));
      }
      // Also the fixed-priority extremes.
      for (OrgId pref = 0; pref < inst.num_orgs(); ++pref) {
        Engine e(inst);
        Schedule schedule;
        e.record_into(&schedule);
        PriorityPolicy p(pref);
        e.run(p, t);
        utils.push_back(resource_utilization(inst, schedule, t));
      }
      const double lo = *std::min_element(utils.begin(), utils.end());
      const double hi = *std::max_element(utils.begin(), utils.end());
      if (hi > 0) {
        EXPECT_GE(lo / hi, 0.75 - 1e-12)
            << "seed=" << seed << " t=" << t << " lo=" << lo << " hi=" << hi;
      }
    }
  }
}

}  // namespace
}  // namespace fairsched
