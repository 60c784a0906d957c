// Tests for the REF exponential fair scheduler.

#include "sched/ref.h"

#include <gtest/gtest.h>

#include "fixtures.h"
#include "sched/algorithm.h"
#include "metrics/utility.h"
#include "workload/synthetic.h"

namespace fairsched {
namespace {

Instance symmetric_instance(std::uint32_t k, std::uint32_t jobs_per_org,
                            Time processing) {
  InstanceBuilder b;
  for (std::uint32_t u = 0; u < k; ++u) {
    b.add_org("o" + std::to_string(u), 1);
  }
  for (std::uint32_t i = 0; i < jobs_per_org; ++i) {
    for (std::uint32_t u = 0; u < k; ++u) {
      b.add_job(u, 0, processing);
    }
  }
  return std::move(b).build();
}

TEST(Ref, GrandScheduleFeasibleAndGreedy) {
  const Instance inst = make_synthetic_instance(
      preset_lpc_egee(), 4, 2000, MachineSplit::kZipf, 1.0, 31);
  RefScheduler ref(inst);
  ref.run(2000);
  EXPECT_EQ(ref.schedule().validate(inst, 2000), std::nullopt);
}

// take_schedule moves the grand placements out and leaves every other
// result readable; RefAlgorithm hands the moved-out schedule on.
TEST(Ref, TakeScheduleMovesTheGrandPlacementsOut) {
  const Instance inst = make_synthetic_instance(
      preset_lpc_egee(), 4, 2000, MachineSplit::kZipf, 1.0, 31);
  RefScheduler ref(inst);
  ref.run(2000);
  const std::vector<Placement> before = ref.schedule().placements();
  const std::vector<HalfUtil> utilities = ref.utilities2();
  const std::int64_t work = ref.reference_work();
  ASSERT_FALSE(before.empty());
  const Schedule taken = ref.take_schedule();
  EXPECT_EQ(taken.placements(), before);
  EXPECT_TRUE(ref.schedule().placements().empty());
  EXPECT_EQ(ref.utilities2(), utilities);
  EXPECT_EQ(ref.reference_work(), work);

  const RunResult result = RefAlgorithm().run(inst, 2000, 0);
  EXPECT_EQ(result.schedule.placements(), before);
  EXPECT_EQ(result.utilities2, utilities);
  EXPECT_EQ(result.work_done, work);
}

TEST(Ref, AllSubcoalitionSchedulesFeasible) {
  const Instance inst = make_synthetic_instance(
      preset_lpc_egee(), 3, 800, MachineSplit::kUniform, 1.0, 33);
  // Proper subcoalitions record only for an observer, so each schedule is
  // checked where the observer sees it, complete.
  Coalition::Mask observed = 0;
  RefOptions options;
  options.on_coalition_finished = [&](Coalition c, const Engine& e,
                                      const Schedule& s) {
    ++observed;
    // Every coalition of this instance starts jobs, and the observed
    // schedule holds each of them: the checks below are not vacuous.
    EXPECT_GT(e.decisions_made(), 0u) << "mask=" << c.mask();
    EXPECT_EQ(s.size(), e.decisions_made()) << "mask=" << c.mask();
    // A coalition's schedule must be a feasible greedy schedule of the
    // restricted instance (here we can reuse the full instance: the
    // validators only look at placements that exist, and greediness is
    // checked against the coalition's own machines via the engine's totals).
    EXPECT_EQ(s.check_machine_exclusive(inst), std::nullopt)
        << "mask=" << c.mask();
    EXPECT_EQ(s.check_fifo(inst), std::nullopt) << "mask=" << c.mask();
  };
  RefScheduler ref(inst, options);
  ref.run(800);
  EXPECT_EQ(observed, Coalition::grand(inst.num_orgs()).mask());
}

// What the observer saw of one coalition.
struct ObservedCoalition {
  Coalition::Mask mask;
  std::uint64_t events;
  std::uint64_t decisions;
  HalfUtil value2;
  std::int64_t work;
  std::vector<Placement> placements;
};

// Each coalition's placements, observed, are the decisions its engine
// made; the grand coalition's are REF's result.
TEST(Ref, ObserverSeesEachCoalitionsEngineAndFullSchedule) {
  const Instance inst = make_synthetic_instance(
      preset_lpc_egee(), 4, 1500, MachineSplit::kZipf, 1.0, 59);
  const Coalition grand = Coalition::grand(inst.num_orgs());
  std::vector<ObservedCoalition> seen;
  RefOptions options;
  options.on_coalition_finished = [&seen](Coalition c, const Engine& e,
                                          const Schedule& s) {
    seen.push_back({c.mask(), e.events_processed(), e.decisions_made(),
                    e.value2(), e.total_work_done(), s.placements()});
  };
  RefScheduler ref(inst, options);
  ref.run(1500);

  // Once per coalition, in ascending mask order.
  ASSERT_EQ(seen.size(), grand.mask());
  for (Coalition::Mask mask = 1; mask <= grand.mask(); ++mask) {
    const ObservedCoalition& s = seen[mask - 1];
    EXPECT_EQ(s.mask, mask);
    EXPECT_EQ(s.placements.size(), s.decisions) << "mask=" << mask;
    // Each placement is one of the coalition's own jobs.
    for (const Placement& p : s.placements) {
      EXPECT_TRUE(Coalition(mask).contains(p.org)) << "mask=" << mask;
    }
    // After run(), the engine keeps the counters and values the observer
    // saw.
    const Engine& e = ref.engine(Coalition(mask));
    EXPECT_EQ(e.events_processed(), s.events) << "mask=" << mask;
    EXPECT_EQ(e.decisions_made(), s.decisions) << "mask=" << mask;
    EXPECT_EQ(e.value2(), s.value2) << "mask=" << mask;
    EXPECT_EQ(e.total_work_done(), s.work) << "mask=" << mask;
  }
  EXPECT_GT(seen.back().decisions, 0u);
  EXPECT_EQ(seen.back().placements, ref.schedule().placements());

  // The observer only reads: an unobserved run, whose proper
  // subcoalitions record nothing, gives the same result.
  RefScheduler plain(inst);
  plain.run(1500);
  EXPECT_EQ(plain.schedule().placements(), ref.schedule().placements());
  EXPECT_EQ(plain.utilities2(), ref.utilities2());
  EXPECT_EQ(plain.contributions(), ref.contributions());
}

TEST(Ref, GenericRuleKeepsEverySubcoalitionSchedule) {
  // The Fig. 1 rule evaluates subcoalition schedules while supersets run,
  // so every coalition records into a schedule of its own that stays.
  const Instance inst = make_synthetic_instance(
      preset_lpc_egee(), 3, 300, MachineSplit::kUniform, 1.0, 47);
  CompletedWorkUtilityFn throughput;
  std::vector<std::pair<const Schedule*, std::vector<Placement>>> seen;
  RefOptions options;
  options.generic_utility = &throughput;
  options.on_coalition_finished = [&seen](Coalition c, const Engine& e,
                                          const Schedule& s) {
    EXPECT_EQ(s.size(), e.decisions_made()) << "mask=" << c.mask();
    seen.emplace_back(&s, s.placements());
  };
  RefScheduler ref(inst, options);
  ref.run(300);
  const Coalition grand = Coalition::grand(inst.num_orgs());
  ASSERT_EQ(seen.size(), grand.mask());
  for (Coalition::Mask mask = 1; mask <= grand.mask(); ++mask) {
    const auto& [schedule, placements] = seen[mask - 1];
    EXPECT_FALSE(placements.empty()) << "mask=" << mask;
    // Still held, unchanged, after every superset ran.
    EXPECT_EQ(schedule->placements(), placements) << "mask=" << mask;
    for (Coalition::Mask other = 1; other < mask; ++other) {
      EXPECT_NE(seen[other - 1].first, schedule) << "mask=" << mask;
    }
  }
  EXPECT_EQ(seen.back().second, ref.schedule().placements());
}

TEST(Ref, UtilitiesMatchClosedFormOnSchedule) {
  const Instance inst = make_synthetic_instance(
      preset_lpc_egee(), 3, 1000, MachineSplit::kZipf, 1.0, 37);
  RefScheduler ref(inst);
  ref.run(1000);
  const auto psi2 = ref.utilities2();
  for (OrgId u = 0; u < inst.num_orgs(); ++u) {
    EXPECT_EQ(psi2[u], sp_org_half_utility(inst, ref.schedule(), u, 1000));
  }
}

TEST(Ref, SymmetricOrganizationsGetNearEqualUtilities) {
  // Exact equality is unattainable in the discrete problem (the paper makes
  // this point below Definition 3.1: utilities can only be *close* to the
  // contributions); REF must keep symmetric organizations within a small
  // relative band, and their Shapley contributions must be exactly equal.
  const Instance inst = symmetric_instance(3, 8, 5);
  RefScheduler ref(inst);
  ref.run(200);
  const auto psi2 = ref.utilities2();
  const HalfUtil lo = std::min({psi2[0], psi2[1], psi2[2]});
  const HalfUtil hi = std::max({psi2[0], psi2[1], psi2[2]});
  EXPECT_LT(static_cast<double>(hi - lo), 0.05 * static_cast<double>(hi));
  const auto phi = ref.contributions();
  EXPECT_NEAR(phi[0], phi[1], 1e-9);
  EXPECT_NEAR(phi[1], phi[2], 1e-9);
}

TEST(Ref, ContributionsAreEfficient) {
  // Shapley efficiency: contributions sum to the grand coalition's value.
  const Instance inst = make_synthetic_instance(
      preset_lpc_egee(), 4, 1200, MachineSplit::kZipf, 1.0, 41);
  RefScheduler ref(inst);
  ref.run(1200);
  const auto phi = ref.contributions();
  double phi_sum = 0.0;
  for (double p : phi) phi_sum += p;
  const double v_grand =
      static_cast<double>(sp_half_value(inst, ref.schedule(), 1200)) / 2.0;
  EXPECT_NEAR(phi_sum, v_grand, 1e-6 * std::max(1.0, v_grand));
}

TEST(Ref, LenderOrganizationIsCompensated) {
  // Org 0 owns both machines but rarely submits; orgs 1..2 own nothing and
  // flood. When org 0's job finally arrives, REF must start it immediately:
  // its contribution greatly exceeds its utility.
  InstanceBuilder b;
  const OrgId lender = b.add_org("lender", 2);
  const OrgId f1 = b.add_org("flood1", 0);
  const OrgId f2 = b.add_org("flood2", 0);
  for (int i = 0; i < 40; ++i) {
    b.add_job(f1, 0, 4);
    b.add_job(f2, 0, 4);
  }
  b.add_job(lender, 10, 4);
  const Instance inst = std::move(b).build();
  RefScheduler ref(inst);
  ref.run(300);
  const auto start = ref.schedule().start_of(lender, 0);
  ASSERT_TRUE(start.has_value());
  // Machines free at multiples of 4; release is 10, so the first decision
  // point at/after 10 is 12.
  EXPECT_EQ(*start, 12);
}

TEST(Ref, SingleOrganizationDegeneratesToFifo) {
  InstanceBuilder b;
  const OrgId o = b.add_org("solo", 1);
  b.add_job(o, 0, 3);
  b.add_job(o, 1, 2);
  b.add_job(o, 2, 4);
  const Instance inst = std::move(b).build();
  RefScheduler ref(inst);
  ref.run(100);
  EXPECT_EQ(ref.schedule().start_of(o, 0), 0);
  EXPECT_EQ(ref.schedule().start_of(o, 1), 3);
  EXPECT_EQ(ref.schedule().start_of(o, 2), 5);
}

TEST(Ref, GenericDistanceRuleMatchesSpecializedForSpUtility) {
  // Fig. 1 (generic Distance with psi_sp) and Fig. 3 (specialized argmax of
  // phi - psi) must produce the same schedule.
  const Instance inst = make_synthetic_instance(
      preset_lpc_egee(), 3, 400, MachineSplit::kUniform, 1.0, 43);
  RefScheduler specialized(inst);
  specialized.run(400);

  SpUtilityFn sp;
  RefOptions options;
  options.generic_utility = &sp;
  RefScheduler generic(inst, options);
  generic.run(400);

  EXPECT_EQ(specialized.utilities2(), generic.utilities2());
  EXPECT_EQ(specialized.schedule().placements().size(),
            generic.schedule().placements().size());
  for (const Placement& p : specialized.schedule().placements()) {
    EXPECT_EQ(generic.schedule().start_of(p.org, p.index), p.start);
  }
}

TEST(Ref, GenericRuleSupportsOtherUtilities) {
  // The generic Distance rule (Fig. 1) must run with a non-psi_sp utility
  // and still produce a feasible greedy schedule — the paper's claim that
  // the fair-scheduling construction works "for arbitrary utilities".
  const Instance inst = make_synthetic_instance(
      preset_lpc_egee(), 3, 300, MachineSplit::kUniform, 1.0, 47);
  CompletedWorkUtilityFn throughput;
  RefOptions options;
  options.generic_utility = &throughput;
  RefScheduler ref(inst, options);
  ref.run(300);
  EXPECT_EQ(ref.schedule().validate(inst, 300), std::nullopt);
  EXPECT_EQ(ref.schedule().size(),
            static_cast<std::size_t>(ref.engine(Coalition::grand(3))
                                         .completed(0) +
                                     ref.engine(Coalition::grand(3))
                                         .completed(1) +
                                     ref.engine(Coalition::grand(3))
                                         .completed(2) +
                                     ref.engine(Coalition::grand(3))
                                         .running(0) +
                                     ref.engine(Coalition::grand(3))
                                         .running(1) +
                                     ref.engine(Coalition::grand(3))
                                         .running(2)));
}

TEST(Ref, RunTwiceThrows) {
  const Instance inst = symmetric_instance(2, 2, 1);
  RefScheduler ref(inst);
  ref.run(10);
  EXPECT_THROW(ref.run(10), std::logic_error);
}

TEST(Ref, RejectsTooManyOrgs) {
  InstanceBuilder b;
  for (int u = 0; u < 17; ++u) b.add_org("o", 1);
  const Instance inst = std::move(b).build();
  EXPECT_THROW(RefScheduler{inst}, std::invalid_argument);
}

TEST(Ref, ReferenceWorkCountsCompletedParts) {
  const Instance inst = symmetric_instance(2, 3, 4);
  RefScheduler ref(inst);
  ref.run(9);
  EXPECT_EQ(ref.reference_work(), completed_work(inst, ref.schedule(), 9));
}

TEST(Ref, UtilitiesIgnorePlacementsStartingAtOrAfterT) {
  // The UtilityFunction contract the generic rule relies on: REF reads
  // v(C', t) off subcoalition schedules that already extend past t.
  const Instance inst = make_synthetic_instance(
      preset_lpc_egee(), 3, 600, MachineSplit::kUniform, 1.0, 53);
  RefScheduler ref(inst);
  ref.run(600);
  const Schedule& full = ref.schedule();
  SpUtilityFn sp;
  CompletedWorkUtilityFn throughput;
  for (Time t : {Time{0}, Time{1}, Time{57}, Time{250}, Time{599}}) {
    Schedule before;
    for (const Placement& p : full.placements()) {
      if (p.start < t) before.add(p);
    }
    for (OrgId u = 0; u < inst.num_orgs(); ++u) {
      EXPECT_EQ(sp.eval(inst, full, u, t), sp.eval(inst, before, u, t))
          << "t=" << t << " org=" << u;
      EXPECT_EQ(throughput.eval(inst, full, u, t),
                throughput.eval(inst, before, u, t))
          << "t=" << t << " org=" << u;
    }
  }
}

struct RefGolden {
  std::vector<HalfUtil> utilities2;
  std::vector<double> contributions;
  // FNV-1a over every coalition's mask and placements, in mask order.
  std::uint64_t digest;
  // Summed over all coalition engines.
  std::uint64_t events;
  std::uint64_t decisions;
};

void expect_golden(const Instance& inst, Time horizon, const RefGolden& golden,
                   RefOptions options = {}) {
  // Proper subcoalitions record only for an observer; the digest reads
  // each schedule in the observer, which fires in ascending mask order.
  std::uint64_t digest = fixtures::kFnvOffset;
  std::uint64_t events = 0;
  std::uint64_t decisions = 0;
  options.on_coalition_finished = [&](Coalition c, const Engine& e,
                                      const Schedule& s) {
    EXPECT_EQ(s.size(), e.decisions_made()) << "mask=" << c.mask();
    fixtures::fnv_mix(digest, c.mask());
    fixtures::fnv_mix_placements(digest, s);
    events += e.events_processed();
    decisions += e.decisions_made();
  };
  RefScheduler ref(inst, options);
  ref.run(horizon);
  EXPECT_EQ(ref.utilities2(), golden.utilities2);
  EXPECT_EQ(ref.contributions(), golden.contributions);
  EXPECT_EQ(digest, golden.digest);
  EXPECT_EQ(events, golden.events);
  EXPECT_EQ(decisions, golden.decisions);
  // The counters stay readable through engine(mask) after run().
  std::uint64_t kept_events = 0;
  std::uint64_t kept_decisions = 0;
  for (Coalition::Mask mask = 1; mask < (Coalition::Mask{1} << inst.num_orgs());
       ++mask) {
    kept_events += ref.engine(Coalition(mask)).events_processed();
    kept_decisions += ref.engine(Coalition(mask)).decisions_made();
  }
  EXPECT_EQ(kept_events, golden.events);
  EXPECT_EQ(kept_decisions, golden.decisions);
}

// Pinned REF output: utilities, contributions at the horizon, a digest of
// every coalition's schedule and the summed engine counters. The values
// were recorded with all coalitions interleaved on one global (time, size,
// mask) event order; any other order that runs every subcoalition before
// its supersets must reproduce them.
TEST(RefGolden, LpcEgeeZipfSixOrgs) {
  const Instance inst = make_synthetic_instance(
      preset_lpc_egee(), 6, 10000, MachineSplit::kZipf, 1.0, 2013);
  expect_golden(
      inst, 10000,
      {{1153164528, 291310972, 739396634, 820992014, 301903118, 812699136},
       {0x1.3513f5ef1111p+29, 0x1.7576e63cccccdp+27, 0x1.148342bd9999ap+28,
        0x1.6313cbc51111p+28, 0x1.599bff6777778p+27, 0x1.63081fdd11111p+28},
       0xfad8944918574d91ULL,
       64996,
       32408});
}

TEST(RefGolden, UnitJobs) {
  expect_golden(
      fixtures::unit_instance(5, 40, 7), 100,
      {{6872, 6696, 6874, 6752, 6922},
       {0x1.af0cccccccccdp+11, 0x1.9decccccccccdp+11, 0x1.aedcccccccccep+11,
        0x1.a66f777777778p+11, 0x1.b1fa222222224p+11},
       0x4cdfd466661c400cULL,
       6400,
       3200});
}

TEST(RefGolden, ZeroMachineOrgs) {
  expect_golden(
      fixtures::zero_machine_instance(), 200,
      {{41032, 50692, 44698, 47316, 48842},
       {0x1.cf9aeeeeeeeeep+14, 0x1.5fab444444446p+14, 0x1.551fddddddddep+13,
        0x1.41a4f77777777p+15, 0x1.77cfddddddddfp+13},
       0x4e2c3861b35211edULL,
       4493,
       2102});
}

TEST(RefGolden, GenericRuleWithCompletedWork) {
  // An instance on which the Fig. 1 rule with CompletedWorkUtilityFn
  // schedules differently from psi_sp.
  const Instance inst = make_synthetic_instance(
      preset_lpc_egee(), 5, 2000, MachineSplit::kZipf, 1.0, 47);
  CompletedWorkUtilityFn throughput;
  RefOptions options;
  options.generic_utility = &throughput;
  expect_golden(
      inst, 2000,
      {{1150690, 7222234, 5788216, 28008810, 6555716},
       {0x1.23e6391111112p+19, 0x1.afb8f4eeeeefp+21, 0x1.64665aeeeeeeep+21,
        0x1.ab8541e666667p+23, 0x1.92cca24444444p+21},
       0xdbcccd9bd0311a26ULL,
       4950,
       2750},
      options);
}

}  // namespace
}  // namespace fairsched
