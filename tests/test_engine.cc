// Tests for the discrete-event engine: event ordering, greedy/FIFO
// feasibility of produced schedules, and exactness of the closed-form
// utility accrual against the Eq. 3 closed form evaluated on the final
// schedule.

#include "sim/engine.h"

#include <gtest/gtest.h>

#include <tuple>
#include <vector>

#include "fixtures.h"
#include "metrics/utility.h"
#include "sched/fair_share.h"
#include "sched/fcfs.h"
#include "sched/round_robin.h"
#include "workload/synthetic.h"

namespace fairsched {
namespace {

// Forwards to `inner` and records every notification the engine and the
// driver deliver. Releases and completions carry the job index they refer
// to, recovered from the engine, so the record pins the full
// (time, kind, org, index) event order.
class RecordingPolicy final : public Policy {
 public:
  // Completions order before releases, as in the engine's tie-break.
  enum Kind { kAdvance, kComplete, kRelease, kStart };
  struct Note {
    Kind kind;
    Time time;
    OrgId org;
    std::uint32_t index;
    MachineId machine;
    friend bool operator==(const Note&, const Note&) = default;
  };

  RecordingPolicy(const Engine& engine, Policy& inner)
      : engine_(engine), inner_(inner) {}

  void reset(const PolicyView& view) override { inner_.reset(view); }
  OrgId select(const PolicyView& view) override { return inner_.select(view); }
  void on_start(const PolicyView& view, OrgId org, std::uint32_t index,
                MachineId machine) override {
    notes_.push_back({kStart, view.now(), org, index, machine});
    inner_.on_start(view, org, index, machine);
  }
  void on_release(const PolicyView& view, OrgId org) override {
    const std::uint32_t index =
        engine_.schedule().num_started(org) + engine_.waiting(org) - 1;
    notes_.push_back({kRelease, view.now(), org, index, kNoMachine});
    inner_.on_release(view, org);
  }
  void on_complete(const PolicyView& view, OrgId org,
                   MachineId machine) override {
    // The job that just ended on `machine`: the only placement of `org`
    // there whose end is now.
    const Instance& inst = engine_.instance();
    std::uint32_t index = 0;
    for (const Placement& p : engine_.schedule().placements()) {
      if (p.org != org || p.machine != machine) continue;
      if (p.start + inst.job(org, p.index).processing == view.now()) {
        index = p.index;
      }
    }
    notes_.push_back({kComplete, view.now(), org, index, machine});
    inner_.on_complete(view, org, machine);
  }
  void on_advance(const PolicyView& view, Time dt) override {
    notes_.push_back({kAdvance, view.now(), kNoOrg, 0, kNoMachine});
    inner_.on_advance(view, dt);
  }

  const std::vector<Note>& notes() const { return notes_; }
  // (kind, org, index) of a release or completion.
  using Event = std::tuple<Kind, OrgId, std::uint32_t>;
  // The releases and completions applied at time t, in order.
  std::vector<Event> events_at(Time t) const {
    std::vector<Event> out;
    for (const Note& n : notes_) {
      if (n.time == t && (n.kind == kComplete || n.kind == kRelease)) {
        out.emplace_back(n.kind, n.org, n.index);
      }
    }
    return out;
  }

 private:
  const Engine& engine_;
  Policy& inner_;
  std::vector<Note> notes_;
};

// Unit and two-slot jobs released in [0, 8) on k organizations owning zero
// to two machines each: most timestamps carry several completions and
// several releases at once.
Instance colliding_instance(std::uint64_t seed, std::uint32_t k) {
  Rng rng(seed);
  InstanceBuilder b;
  for (std::uint32_t u = 0; u < k; ++u) {
    b.add_org("o" + std::to_string(u),
              static_cast<std::uint32_t>(rng.uniform_u64(3)));
  }
  b.add_org("anchor", 1);  // keeps the platform non-empty
  for (std::uint32_t u = 0; u < k; ++u) {
    const auto jobs = 2 + static_cast<std::uint32_t>(rng.uniform_u64(12));
    for (std::uint32_t i = 0; i < jobs; ++i) {
      b.add_job(u, static_cast<Time>(rng.uniform_u64(8)),
                1 + static_cast<Time>(rng.uniform_u64(2)));
    }
  }
  return std::move(b).build();
}

Instance small_instance() {
  InstanceBuilder b;
  const OrgId a = b.add_org("a", 1);
  const OrgId c = b.add_org("c", 2);
  b.add_job(a, 0, 4);
  b.add_job(a, 2, 3);
  b.add_job(a, 2, 5);
  b.add_job(c, 1, 2);
  b.add_job(c, 1, 6);
  b.add_job(c, 8, 1);
  return std::move(b).build();
}

TEST(Engine, ProducesFeasibleGreedySchedule) {
  const Instance inst = small_instance();
  Engine engine(inst);
  FcfsPolicy policy;
  engine.run(policy, 100);
  EXPECT_EQ(engine.schedule().validate(inst, 100), std::nullopt);
  EXPECT_EQ(engine.schedule().size(), inst.num_jobs());
}

TEST(Engine, AccruedUtilitiesMatchClosedFormOnSchedule) {
  const Instance inst = small_instance();
  for (Time horizon : {3, 5, 8, 11, 14, 50}) {
    Engine engine(inst);
    FcfsPolicy policy;
    engine.run(policy, horizon);
    for (OrgId u = 0; u < inst.num_orgs(); ++u) {
      EXPECT_EQ(engine.psi2(u),
                sp_org_half_utility(inst, engine.schedule(), u, horizon))
          << "u=" << u << " horizon=" << horizon;
    }
  }
}

TEST(Engine, WorkDoneMatchesCompletedWork) {
  const Instance inst = small_instance();
  for (Time horizon : {4, 9, 40}) {
    Engine engine(inst);
    RoundRobinPolicy policy;
    engine.run(policy, horizon);
    EXPECT_EQ(engine.total_work_done(),
              completed_work(inst, engine.schedule(), horizon));
  }
}

TEST(Engine, ContributionAccountingConserved) {
  // Sum over orgs of contribution work == sum of utility work (every
  // executed unit belongs to exactly one job and one machine), and the same
  // for the psi2-valued aggregates.
  const Instance inst = small_instance();
  Engine engine(inst);
  FcfsPolicy policy;
  engine.run(policy, 25);
  std::int64_t work_u = 0, work_c = 0;
  HalfUtil psi_u = 0, psi_c = 0;
  for (OrgId u = 0; u < inst.num_orgs(); ++u) {
    work_u += engine.work_done(u);
    work_c += engine.contrib_work(u);
    psi_u += engine.psi2(u);
    psi_c += engine.contrib_psi2(u);
  }
  EXPECT_EQ(work_u, work_c);
  EXPECT_EQ(psi_u, psi_c);
}

TEST(Engine, HorizonTruncatesAccounting) {
  const Instance inst = small_instance();
  Engine early(inst), late(inst);
  FcfsPolicy p1, p2;
  early.run(p1, 6);
  late.run(p2, 60);
  // At the early horizon strictly less work is accounted.
  EXPECT_LT(early.total_work_done(), late.total_work_done());
  EXPECT_EQ(late.total_work_done(), inst.total_work());
}

TEST(Engine, CoalitionRestrictionUsesOnlyMemberResources) {
  const Instance inst = small_instance();
  Engine engine(inst, Coalition::singleton(0));
  FcfsPolicy policy;
  engine.run(policy, 100);
  EXPECT_EQ(engine.total_machines(), 1u);
  // Only org 0's jobs ran.
  EXPECT_EQ(engine.completed(0), 3u);
  EXPECT_EQ(engine.completed(1), 0u);
  EXPECT_EQ(engine.psi2(1), 0);
  // Org 0 alone on one machine: jobs back to back 0-4, 4-7, 7-12.
  EXPECT_EQ(engine.schedule().start_of(0, 0), 0);
  EXPECT_EQ(engine.schedule().start_of(0, 1), 4);
  EXPECT_EQ(engine.schedule().start_of(0, 2), 7);
}

TEST(Engine, PairCoalitionSharesMachines) {
  const Instance inst = small_instance();
  Engine engine(inst, Coalition::grand(2));
  FcfsPolicy policy;
  engine.run(policy, 100);
  EXPECT_EQ(engine.total_machines(), 3u);
  EXPECT_EQ(engine.completed(0) + engine.completed(1), 6u);
}

TEST(Engine, ManualSteppingMatchesRun) {
  const Instance inst = small_instance();
  Engine manual(inst);
  FcfsPolicy policy;
  PolicyView view(manual);
  const Time horizon = 40;
  for (;;) {
    const Time t = manual.next_event();
    if (t == kTimeInfinity || t >= horizon) break;
    manual.advance_to(t);
    while (manual.needs_decision()) {
      manual.start_front(policy.select(view));
    }
  }
  manual.advance_to(horizon);

  Engine driven(inst);
  FcfsPolicy policy2;
  driven.run(policy2, horizon);
  for (OrgId u = 0; u < inst.num_orgs(); ++u) {
    EXPECT_EQ(manual.psi2(u), driven.psi2(u));
  }
  EXPECT_EQ(manual.schedule().placements().size(),
            driven.schedule().placements().size());
}

TEST(Engine, StartFrontPreconditionsEnforced) {
  const Instance inst = small_instance();
  Engine engine(inst);
  // At time 0 nothing has been released for org 1 yet.
  engine.advance_to(0);
  EXPECT_THROW(engine.start_front(1), std::logic_error);
}

TEST(Engine, RandomMachinePickStillFeasible) {
  const Instance inst = small_instance();
  EngineOptions options;
  options.machine_pick = MachinePick::kRandomFree;
  options.seed = 7;
  Engine engine(inst, options);
  FcfsPolicy policy;
  engine.run(policy, 100);
  EXPECT_EQ(engine.schedule().validate(inst, 100), std::nullopt);
}

TEST(Engine, RandomMachinePickDeterministicPerSeed) {
  const Instance inst = small_instance();
  auto run_once = [&](std::uint64_t seed) {
    EngineOptions options;
    options.machine_pick = MachinePick::kRandomFree;
    options.seed = seed;
    Engine engine(inst, options);
    FcfsPolicy policy;
    engine.run(policy, 100);
    std::vector<MachineId> machines;
    for (const Placement& p : engine.schedule().placements()) {
      machines.push_back(p.machine);
    }
    return machines;
  };
  EXPECT_EQ(run_once(3), run_once(3));
}

// The one same-time rule (engine.h): completions before releases, then by
// organization, then by job index — whatever order the heaps saw the
// events pushed in.
TEST(Engine, SameTimeEventsApplyCompletionsFirstThenByOrgThenIndex) {
  InstanceBuilder b;
  const OrgId a = b.add_org("a", 2);
  const OrgId c = b.add_org("c", 0);
  const OrgId d = b.add_org("d", 1);
  b.add_job(a, 0, 7);
  b.add_job(a, 0, 7);
  b.add_job(a, 7, 1);
  b.add_job(c, 7, 1);
  b.add_job(d, 0, 7);
  b.add_job(d, 7, 1);
  b.add_job(d, 7, 1);
  const Instance inst = std::move(b).build();
  Engine engine(inst);
  FcfsPolicy fcfs;
  RecordingPolicy recorder(engine, fcfs);
  engine.run(recorder, 20);
  using R = RecordingPolicy;
  const std::vector<R::Event> expected = {
      {R::kComplete, a, 0},
      {R::kComplete, a, 1},
      {R::kComplete, d, 0},
      {R::kRelease, a, 2},
      {R::kRelease, c, 0},
      {R::kRelease, d, 1},
      {R::kRelease, d, 2},
  };
  EXPECT_EQ(recorder.events_at(7), expected);
}

TEST(Engine, EventStreamIsTotallyOrderedOnCollidingWorkloads) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    const Instance inst = colliding_instance(seed, 6);
    Engine engine(inst);
    FairSharePolicy fairshare;
    RecordingPolicy recorder(engine, fairshare);
    engine.run(recorder, 40);
    using Key = std::tuple<Time, RecordingPolicy::Kind, OrgId, std::uint32_t>;
    std::vector<Key> keys;
    for (const RecordingPolicy::Note& n : recorder.notes()) {
      if (n.kind == RecordingPolicy::kComplete ||
          n.kind == RecordingPolicy::kRelease) {
        keys.emplace_back(n.time, n.kind, n.org, n.index);
      }
    }
    EXPECT_EQ(keys.size(), engine.events_processed()) << "seed=" << seed;
    for (std::size_t i = 1; i < keys.size(); ++i) {
      EXPECT_LT(keys[i - 1], keys[i]) << "seed=" << seed << " i=" << i;
    }
  }
}

// Injecting each timestamp's releases in a shuffled organization order
// changes nothing a policy can see: the notification and decision
// sequences equal the preloaded engine's.
TEST(Engine, ShuffledInjectionMatchesThePreloadedEngine) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    const Instance inst = colliding_instance(seed, 6);
    const Time horizon = 40;
    Engine preloaded(inst);
    FairSharePolicy fair_batch;
    RecordingPolicy batch(preloaded, fair_batch);
    preloaded.run(batch, horizon);

    // Shuffle the organizations within each release time; each org's own
    // jobs stay FIFO because inject_release always takes the next one.
    std::vector<OrgId> arrivals;
    std::vector<OrgId> group;
    std::vector<std::uint32_t> seen(inst.num_orgs(), 0);
    Time group_time = -1;
    Rng rng(mix_seed(seed, 77));
    for (const OrgId u : fixtures::arrivals_by_release(inst)) {
      const Time t = inst.job(u, seen[u]++).release;
      if (t != group_time) {
        rng.shuffle(group);
        arrivals.insert(arrivals.end(), group.begin(), group.end());
        group.clear();
        group_time = t;
      }
      group.push_back(u);
    }
    rng.shuffle(group);
    arrivals.insert(arrivals.end(), group.begin(), group.end());
    ASSERT_NE(arrivals, fixtures::arrivals_by_release(inst));
    EngineOptions options;
    options.external_releases = true;
    Engine injected(inst, options);
    FairSharePolicy fair_injected;
    RecordingPolicy online(injected, fair_injected);
    fixtures::run_injected(injected, online, arrivals, horizon);

    EXPECT_EQ(online.notes(), batch.notes()) << "seed=" << seed;
    EXPECT_EQ(injected.schedule().placements(),
              preloaded.schedule().placements())
        << "seed=" << seed;
  }
}

TEST(Engine, LargerSyntheticWorkloadStaysConsistent) {
  const SyntheticSpec spec = preset_lpc_egee();
  const Instance inst = make_synthetic_instance(spec, 4, 4000,
                                                MachineSplit::kZipf, 1.0, 99);
  const Time horizon = 4000;
  Engine engine(inst);
  FcfsPolicy policy;
  engine.run(policy, horizon);
  EXPECT_EQ(engine.schedule().validate(inst, horizon), std::nullopt);
  for (OrgId u = 0; u < inst.num_orgs(); ++u) {
    EXPECT_EQ(engine.psi2(u),
              sp_org_half_utility(inst, engine.schedule(), u, horizon));
  }
  EXPECT_EQ(engine.total_work_done(),
            completed_work(inst, engine.schedule(), horizon));
}

TEST(Engine, NoJobsMeansNoEvents) {
  InstanceBuilder b;
  b.add_org("a", 3);
  const Instance inst = std::move(b).build();
  Engine engine(inst);
  EXPECT_EQ(engine.next_event(), kTimeInfinity);
  FcfsPolicy policy;
  engine.run(policy, 100);
  EXPECT_EQ(engine.total_work_done(), 0);
}

}  // namespace
}  // namespace fairsched
