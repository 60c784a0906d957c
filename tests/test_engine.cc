// Tests for the discrete-event engine: event ordering, greedy/FIFO
// feasibility of produced schedules, and exactness of the closed-form
// utility accrual against the Eq. 3 closed form evaluated on the final
// schedule.

#include "sim/engine.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <queue>
#include <string>
#include <tuple>
#include <vector>

#include "fixtures.h"
#include "metrics/utility.h"
#include "sched/fair_share.h"
#include "sched/fcfs.h"
#include "sched/round_robin.h"
#include "strategy/deviation.h"
#include "workload/synthetic.h"

namespace fairsched {
namespace {

// Forwards to `inner` and records every notification the engine and the
// driver deliver. A release notification carries its run: the index of the
// first job it released and how many (the growth of the organization's
// released count since its previous release notification). A completion
// notification carries its run too: the index of the job that ended on the
// notified machine (the run's last), recovered from the placements, and
// how many jobs completed (the growth of completed(org)). So the record
// pins the full (time, kind, org, index) event order.
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
    std::uint32_t count = 1;  // jobs released or completed by the note
    friend bool operator==(const Note&, const Note&) = default;
  };

  // Records the engine's placements too: on_complete reads them.
  RecordingPolicy(Engine& engine, Policy& inner)
      : engine_(engine),
        inner_(inner),
        released_(engine.num_orgs(), 0),
        completed_(engine.num_orgs(), 0) {
    engine.record_into(&schedule_);
  }

  void reset(const PolicyView& view) override { inner_.reset(view); }
  OrgId select(const PolicyView& view) override { return inner_.select(view); }
  void on_start(const PolicyView& view, OrgId org, std::uint32_t index,
                MachineId machine) override {
    notes_.push_back({kStart, view.now(), org, index, machine});
    inner_.on_start(view, org, index, machine);
  }
  void on_release(const PolicyView& view, OrgId org) override {
    const std::uint32_t released =
        engine_.started(org) + engine_.waiting(org);
    notes_.push_back({kRelease, view.now(), org, released_[org], kNoMachine,
                      released - released_[org]});
    released_[org] = released;
    inner_.on_release(view, org);
  }
  void on_complete(const PolicyView& view, OrgId org,
                   MachineId machine) override {
    // The run's last job: the only placement of `org` on `machine` whose
    // end is now.
    const Instance& inst = engine_.instance();
    std::uint32_t index = 0;
    for (const Placement& p : schedule_.placements()) {
      if (p.org != org || p.machine != machine) continue;
      if (p.start + inst.job(org, p.index).processing == view.now()) {
        index = p.index;
      }
    }
    const std::uint32_t completed = engine_.completed(org);
    notes_.push_back({kComplete, view.now(), org, index, machine,
                      completed - completed_[org]});
    completed_[org] = completed;
    inner_.on_complete(view, org, machine);
  }
  void on_advance(const PolicyView& view, Time dt) override {
    notes_.push_back({kAdvance, view.now(), kNoOrg, 0, kNoMachine});
    inner_.on_advance(view, dt);
  }

  const std::vector<Note>& notes() const { return notes_; }
  const Schedule& schedule() const { return schedule_; }
  // (kind, org, index, count) of a completion run (index of its last job)
  // or a release run (index of its first job).
  using Event = std::tuple<Kind, OrgId, std::uint32_t, std::uint32_t>;
  // The release and completion notifications at time t, in order.
  std::vector<Event> events_at(Time t) const {
    std::vector<Event> out;
    for (const Note& n : notes_) {
      if (n.time == t && (n.kind == kComplete || n.kind == kRelease)) {
        out.emplace_back(n.kind, n.org, n.index, n.count);
      }
    }
    return out;
  }

 private:
  const Engine& engine_;
  Policy& inner_;
  std::vector<Note> notes_;
  // Per organization: jobs released as of its last release notification,
  // and jobs completed as of its last completion notification.
  std::vector<std::uint32_t> released_;
  std::vector<std::uint32_t> completed_;
  Schedule schedule_;
};

// Unit and two-slot jobs (up to `max_processing` slots) released in [0, 8)
// on k organizations owning zero to two machines each: most timestamps
// carry several completions and several releases at once.
Instance colliding_instance(std::uint64_t seed, std::uint32_t k,
                            std::uint64_t max_processing = 2) {
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
                1 + static_cast<Time>(rng.uniform_u64(max_processing)));
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
  Schedule schedule;
  engine.record_into(&schedule);
  FcfsPolicy policy;
  engine.run(policy, 100);
  EXPECT_EQ(schedule.validate(inst, 100), std::nullopt);
  EXPECT_EQ(schedule.size(), inst.num_jobs());
}

// Only a start with a recording target set appends a placement, in
// decision order; counters and accounting do not depend on recording.
TEST(Engine, RecordsPlacementsOnlyWhileATargetIsSet) {
  const Instance inst = small_instance();
  const Time horizon = 25;
  // Steps FCFS by hand to the horizon; recording stops from `stop` on.
  auto drive = [&](Engine& engine, Schedule* schedule, Time stop) {
    engine.record_into(schedule);
    FcfsPolicy policy;
    PolicyView view(engine);
    for (;;) {
      const Time t = engine.next_event();
      if (t == kTimeInfinity || t >= horizon) break;
      if (t >= stop) engine.record_into(nullptr);
      engine.advance_to(t);
      while (engine.needs_decision()) engine.start_front(policy.select(view));
    }
    engine.advance_to(horizon);
  };
  Engine full(inst), partial(inst), unrecorded(inst);
  Schedule all, early;
  drive(full, &all, horizon);
  drive(partial, &early, 6);
  drive(unrecorded, nullptr, horizon);

  EXPECT_EQ(all.size(), full.decisions_made());
  ASSERT_GT(early.size(), 0u);
  ASSERT_LT(early.size(), all.size());
  EXPECT_TRUE(std::equal(early.placements().begin(), early.placements().end(),
                         all.placements().begin()));
  for (const Engine* e : {&partial, &unrecorded}) {
    EXPECT_EQ(e->decisions_made(), full.decisions_made());
    EXPECT_EQ(e->events_processed(), full.events_processed());
    EXPECT_EQ(e->value2(), full.value2());
    EXPECT_EQ(e->total_work_done(), full.total_work_done());
  }
}

TEST(Engine, AccruedUtilitiesMatchClosedFormOnSchedule) {
  const Instance inst = small_instance();
  for (Time horizon : {3, 5, 8, 11, 14, 50}) {
    Engine engine(inst);
    Schedule schedule;
    engine.record_into(&schedule);
    FcfsPolicy policy;
    engine.run(policy, horizon);
    for (OrgId u = 0; u < inst.num_orgs(); ++u) {
      EXPECT_EQ(engine.psi2(u),
                sp_org_half_utility(inst, schedule, u, horizon))
          << "u=" << u << " horizon=" << horizon;
    }
  }
}

TEST(Engine, WorkDoneMatchesCompletedWork) {
  const Instance inst = small_instance();
  for (Time horizon : {4, 9, 40}) {
    Engine engine(inst);
    Schedule schedule;
    engine.record_into(&schedule);
    RoundRobinPolicy policy;
    engine.run(policy, horizon);
    EXPECT_EQ(engine.total_work_done(),
              completed_work(inst, schedule, horizon));
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
  Schedule schedule;
  engine.record_into(&schedule);
  FcfsPolicy policy;
  engine.run(policy, 100);
  EXPECT_EQ(engine.total_machines(), 1u);
  // Only org 0's jobs ran.
  EXPECT_EQ(engine.completed(0), 3u);
  EXPECT_EQ(engine.completed(1), 0u);
  EXPECT_EQ(engine.psi2(1), 0);
  // Org 0 alone on one machine: jobs back to back 0-4, 4-7, 7-12.
  EXPECT_EQ(schedule.start_of(0, 0), 0);
  EXPECT_EQ(schedule.start_of(0, 1), 4);
  EXPECT_EQ(schedule.start_of(0, 2), 7);
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
  Schedule manual_schedule;
  manual.record_into(&manual_schedule);
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
  Schedule driven_schedule;
  driven.record_into(&driven_schedule);
  FcfsPolicy policy2;
  driven.run(policy2, horizon);
  for (OrgId u = 0; u < inst.num_orgs(); ++u) {
    EXPECT_EQ(manual.psi2(u), driven.psi2(u));
  }
  EXPECT_EQ(manual_schedule.placements().size(),
            driven_schedule.placements().size());
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
  Schedule schedule;
  engine.record_into(&schedule);
  FcfsPolicy policy;
  engine.run(policy, 100);
  EXPECT_EQ(schedule.validate(inst, 100), std::nullopt);
}

TEST(Engine, RandomMachinePickDeterministicPerSeed) {
  const Instance inst = small_instance();
  auto run_once = [&](std::uint64_t seed) {
    EngineOptions options;
    options.machine_pick = MachinePick::kRandomFree;
    options.seed = seed;
    Engine engine(inst, options);
    Schedule schedule;
    engine.record_into(&schedule);
    FcfsPolicy policy;
    engine.run(policy, 100);
    std::vector<MachineId> machines;
    for (const Placement& p : schedule.placements()) {
      machines.push_back(p.machine);
    }
    return machines;
  };
  EXPECT_EQ(run_once(3), run_once(3));
}

// The one same-time rule (engine.h): completions before releases, then by
// organization, then by job index — whatever order the heaps saw the
// events pushed in. An organization's releases at one time reach the
// policy as one notification for the run, and so do its completions.
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
      {R::kComplete, a, 1, 2},
      {R::kComplete, d, 0, 1},
      {R::kRelease, a, 2, 1},
      {R::kRelease, c, 0, 1},
      {R::kRelease, d, 1, 2},
  };
  EXPECT_EQ(recorder.events_at(7), expected);
  const std::vector<R::Event> at_zero = {{R::kRelease, a, 0, 2},
                                         {R::kRelease, d, 0, 1}};
  EXPECT_EQ(recorder.events_at(0), at_zero);
  // At 8, a's, c's and d's last starts complete: three runs in org order.
  const std::vector<R::Event> at_eight = {{R::kComplete, a, 2, 1},
                                          {R::kComplete, c, 0, 1},
                                          {R::kComplete, d, 1, 1}};
  EXPECT_EQ(recorder.events_at(8), at_eight);
  // Seven releases and seven completions are still seven events each; the
  // version counts the five release runs, six completion runs and seven
  // starts the policy heard.
  EXPECT_EQ(engine.events_processed(), 14u);
  EXPECT_EQ(engine.state_version(), 18u);
}

// Notifications follow the one order, and each notification is one whole
// same-(time, org) run. A release run starts at the organization's first
// job released at that time and carries every job released then. A
// completion run carries every job of the organization that ends then, and
// its machine is the one the highest-indexed of them ran on.
TEST(Engine, EventStreamIsTotallyOrderedOnCollidingWorkloads) {
  std::uint32_t longest_completion_run = 0;
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    const Instance inst = colliding_instance(seed, 6);
    Engine engine(inst);
    FairSharePolicy fairshare;
    RecordingPolicy recorder(engine, fairshare);
    engine.run(recorder, 40);
    using R = RecordingPolicy;
    using Key = std::tuple<Time, R::Kind, OrgId>;
    std::vector<Key> keys;
    std::uint64_t events = 0;
    std::uint64_t heard = 0;
    std::uint32_t longest_release_run = 0;
    for (const R::Note& n : recorder.notes()) {
      if (n.kind == R::kAdvance) continue;
      ++heard;
      if (n.kind == R::kStart) continue;
      events += n.count;
      // Runs key by (time, org) alone: two notes of one run would tie.
      keys.emplace_back(n.time, n.kind, n.org);
      const auto jobs = inst.jobs_of(n.org);
      if (n.kind == R::kComplete) {
        std::uint32_t run = 0;
        std::uint32_t last = 0;
        for (const Placement& p : recorder.schedule().placements()) {
          if (p.org != n.org || p.start + jobs[p.index].processing != n.time) {
            continue;
          }
          ++run;
          last = std::max(last, p.index);
        }
        EXPECT_EQ(n.count, run) << "seed=" << seed << " t=" << n.time;
        EXPECT_EQ(n.index, last) << "seed=" << seed << " t=" << n.time;
        longest_completion_run = std::max(longest_completion_run, n.count);
        continue;
      }
      std::uint32_t run = 0;
      for (const Job& job : jobs) run += job.release == n.time ? 1 : 0;
      EXPECT_EQ(n.count, run) << "seed=" << seed;
      longest_release_run = std::max(longest_release_run, n.count);
      EXPECT_EQ(jobs[n.index].release, n.time) << "seed=" << seed;
      EXPECT_TRUE(n.index == 0 || jobs[n.index - 1].release < n.time)
          << "seed=" << seed;
    }
    EXPECT_GT(longest_release_run, 1u) << "seed=" << seed;
    EXPECT_EQ(events, engine.events_processed()) << "seed=" << seed;
    EXPECT_EQ(heard, engine.state_version()) << "seed=" << seed;
    for (std::size_t i = 1; i < keys.size(); ++i) {
      EXPECT_LT(keys[i - 1], keys[i]) << "seed=" << seed << " i=" << i;
    }
  }
  EXPECT_GT(longest_completion_run, 1u);
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
    EXPECT_EQ(online.schedule().placements(),
              batch.schedule().placements())
        << "seed=" << seed;
  }
}

// --- Streamed release runs ---------------------------------------------------
//
// A preloaded engine admits an organization's successor releases without a
// heap round-trip while each one is the earliest event (engine.h). An
// external-releases engine fed every release in order keeps them all in
// the heap. Both must deliver the same notifications, placements and event
// count.

struct RecordedRun {
  std::vector<RecordingPolicy::Note> notes;
  std::vector<Placement> placements;
  std::uint64_t events = 0;
};

template <class P>
RecordedRun run_preloaded(const Instance& inst, Time horizon) {
  Engine engine(inst);
  P inner;
  RecordingPolicy recorder(engine, inner);
  engine.run(recorder, horizon);
  return {recorder.notes(), recorder.schedule().placements(),
          engine.events_processed()};
}

template <class P>
RecordedRun run_through_heap(const Instance& inst, Time horizon) {
  EngineOptions options;
  options.external_releases = true;
  Engine engine(inst, options);
  P inner;
  RecordingPolicy recorder(engine, inner);
  fixtures::run_injected(engine, recorder, fixtures::arrivals_by_release(inst),
                         horizon);
  return {recorder.notes(), recorder.schedule().placements(),
          engine.events_processed()};
}

template <class P>
void expect_release_paths_agree(const Instance& inst, Time horizon,
                                const std::string& what) {
  const RecordedRun direct = run_preloaded<P>(inst, horizon);
  const RecordedRun heap = run_through_heap<P>(inst, horizon);
  EXPECT_EQ(direct.notes, heap.notes) << what;
  EXPECT_EQ(direct.placements, heap.placements) << what;
  EXPECT_EQ(direct.events, heap.events) << what;
}

// Two organizations whose long same-release runs interleave with each
// other and with completions: org 0 owns the only machine.
Instance release_run_instance() {
  InstanceBuilder b;
  const OrgId a = b.add_org("a", 1);
  const OrgId c = b.add_org("c", 0);
  for (Time r : {0, 0, 0, 2, 2, 3, 3, 3, 3, 9}) b.add_job(a, r, 1 + r % 3);
  for (Time r : {0, 2, 2, 2, 3, 5, 5, 9, 9}) b.add_job(c, r, 2);
  return std::move(b).build();
}

TEST(EngineReleaseRuns, SplitUnitDeviationsMatchTheHeapPath) {
  const auto splitunit = strategy::parse_deviation("splitunit");
  // Longer jobs keep every machine busy for a while, so advance_to jumps
  // over several release times at once and runs meet other organizations'
  // releases in the heap.
  for (const std::uint64_t max_processing : {2, 6}) {
    for (std::uint64_t seed = 1; seed <= 20; ++seed) {
      const Instance honest = colliding_instance(seed, 6, max_processing);
      for (OrgId deviator = 0; deviator < 6; ++deviator) {
        const Instance inst =
            strategy::apply_deviation(honest, deviator, splitunit);
        const std::string what =
            "seed=" + std::to_string(seed) +
            " deviator=" + std::to_string(deviator) +
            " max_processing=" + std::to_string(max_processing);
        expect_release_paths_agree<FairSharePolicy>(inst, 60, what);
        expect_release_paths_agree<FcfsPolicy>(inst, 60, what);
      }
    }
  }
}

TEST(EngineReleaseRuns, HandBuiltRunsMatchTheHeapPath) {
  const Instance inst = release_run_instance();
  for (Time horizon : {1, 3, 4, 12, 60}) {
    const std::string what = "horizon=" + std::to_string(horizon);
    expect_release_paths_agree<FairSharePolicy>(inst, horizon, what);
    expect_release_paths_agree<FcfsPolicy>(inst, horizon, what);
  }
}

TEST(EngineReleaseRuns, SuccessorAtTheTargetTimeIsAdmittedOneLaterIsNot) {
  InstanceBuilder b;
  const OrgId a = b.add_org("a", 1);
  b.add_job(a, 1, 1);
  b.add_job(a, 3, 1);
  b.add_job(a, 3, 1);
  b.add_job(a, 4, 1);
  const Instance inst = std::move(b).build();
  Engine engine(inst);
  engine.advance_to(3);
  EXPECT_EQ(engine.waiting(a), 3u);  // released at 1, 3 and 3 (= t)
  EXPECT_EQ(engine.events_processed(), 3u);
  EXPECT_EQ(engine.next_event(), 4);  // the successor past t stays pending
  engine.advance_to(4);
  EXPECT_EQ(engine.waiting(a), 4u);
  EXPECT_EQ(engine.next_event(), kTimeInfinity);
  expect_release_paths_agree<FcfsPolicy>(inst, 10, "at t");
}

TEST(EngineReleaseRuns, PendingCompletionAtTheSuccessorsTimeGoesFirst) {
  InstanceBuilder b;
  const OrgId a = b.add_org("a", 1);
  b.add_job(a, 0, 2);  // runs [0, 2)
  b.add_job(a, 1, 1);
  b.add_job(a, 2, 1);  // released when job 0 completes
  const Instance inst = std::move(b).build();
  Engine engine(inst);
  FcfsPolicy fcfs;
  RecordingPolicy recorder(engine, fcfs);
  engine.run(recorder, 10);
  using R = RecordingPolicy;
  const std::vector<R::Event> expected = {{R::kComplete, a, 0, 1},
                                          {R::kRelease, a, 2, 1}};
  EXPECT_EQ(recorder.events_at(2), expected);
  expect_release_paths_agree<FcfsPolicy>(inst, 10, "completion tie");
}

TEST(EngineReleaseRuns, SameTimeTieWithAWaitingOrgFollowsOrgIds) {
  // One advance_to over [3, 10]: the running org's successor run at 5 (two
  // jobs, one notification) meets another org's release at 5 in the heap,
  // and the lower id goes first either way round.
  for (const bool runner_is_lower : {false, true}) {
    InstanceBuilder b;
    const OrgId low = b.add_org("low", 1);
    const OrgId high = b.add_org("high", 1);
    const OrgId runner = runner_is_lower ? low : high;
    const OrgId other = runner_is_lower ? high : low;
    b.add_job(runner, 3, 1);
    b.add_job(runner, 5, 1);
    b.add_job(runner, 5, 1);
    b.add_job(other, 5, 1);
    const Instance inst = std::move(b).build();
    Engine engine(inst);
    FcfsPolicy fcfs;
    RecordingPolicy recorder(engine, fcfs);
    engine.attach(&recorder);
    engine.advance_to(10);
    using R = RecordingPolicy;
    const std::vector<R::Event> expected =
        runner_is_lower
            ? std::vector<R::Event>{{R::kRelease, low, 1, 2},
                                    {R::kRelease, high, 0, 1}}
            : std::vector<R::Event>{{R::kRelease, low, 0, 1},
                                    {R::kRelease, high, 1, 2}};
    EXPECT_EQ(recorder.events_at(5), expected)
        << "runner_is_lower=" << runner_is_lower;
    EXPECT_EQ(engine.events_processed(), 4u);
    EXPECT_EQ(engine.state_version(), 3u);
    expect_release_paths_agree<FcfsPolicy>(inst, 20, "org tie");
  }
}

// --- Run boundaries ----------------------------------------------------------
//
// The release notifications and counters of advancing through `targets`
// without deciding: preloaded, or with every release injected up front in
// `arrivals` order when that is given.
struct AdmittedRuns {
  // (time, org, first index, count) per release notification.
  std::vector<std::tuple<Time, OrgId, std::uint32_t, std::uint32_t>> runs;
  std::uint64_t events = 0;
  std::uint64_t version = 0;
};

AdmittedRuns admit(const Instance& inst, const std::vector<Time>& targets,
                   const std::vector<OrgId>* arrivals = nullptr) {
  EngineOptions options;
  options.external_releases = arrivals != nullptr;
  Engine engine(inst, options);
  FcfsPolicy fcfs;
  RecordingPolicy recorder(engine, fcfs);
  engine.attach(&recorder);
  if (arrivals != nullptr) {
    for (const OrgId u : *arrivals) engine.inject_release(u);
  }
  for (const Time t : targets) engine.advance_to(t);
  AdmittedRuns out;
  for (const RecordingPolicy::Note& n : recorder.notes()) {
    if (n.kind == RecordingPolicy::kRelease) {
      out.runs.emplace_back(n.time, n.org, n.index, n.count);
    }
  }
  out.events = engine.events_processed();
  out.version = engine.state_version();
  return out;
}

void expect_runs(const Instance& inst, const std::vector<OrgId>& arrivals,
                 const AdmittedRuns& expected) {
  for (const std::vector<Time>& targets :
       {std::vector<Time>{10}, std::vector<Time>{0, 2, 3, 4, 10}}) {
    const std::string what = "targets=" + std::to_string(targets.size());
    for (const bool injected : {false, true}) {
      const AdmittedRuns got =
          admit(inst, targets, injected ? &arrivals : nullptr);
      EXPECT_EQ(got.runs, expected.runs) << what << " injected=" << injected;
      EXPECT_EQ(got.events, expected.events)
          << what << " injected=" << injected;
      EXPECT_EQ(got.version, expected.version)
          << what << " injected=" << injected;
    }
  }
}

TEST(EngineReleaseRuns, OneOrgAtTAndTPlusOneIsTwoRuns) {
  InstanceBuilder b;
  const OrgId a = b.add_org("a", 1);
  for (const Time r : {3, 3, 4, 4, 4}) b.add_job(a, r, 1);
  const Instance inst = std::move(b).build();
  expect_runs(inst, {a, a, a, a, a},
              {{{3, a, 0, 2}, {4, a, 2, 3}}, /*events=*/5, /*version=*/2});
}

TEST(EngineReleaseRuns, TwoOrgsAtTAreTwoRuns) {
  InstanceBuilder b;
  const OrgId a = b.add_org("a", 1);
  const OrgId c = b.add_org("c", 1);
  for (const Time r : {2, 2}) b.add_job(a, r, 1);
  for (const Time r : {2, 2, 2}) b.add_job(c, r, 1);
  const Instance inst = std::move(b).build();
  // Injected interleaved: the heap still hands each org's run over whole.
  expect_runs(inst, {c, a, c, a, c},
              {{{2, a, 0, 2}, {2, c, 0, 3}}, /*events=*/5, /*version=*/2});
}

// --- Completion runs ---------------------------------------------------------
//
// An organization's completions at one timestamp reach the listener as one
// on_complete, after the accounting of the whole run (engine.h). A
// preloaded engine and an injected one deliver the same runs.

// What a listener reads at one on_complete.
struct CompletionSeen {
  Time time;
  OrgId org;
  MachineId machine;
  std::uint32_t completed;
  std::uint32_t running;
  std::uint32_t free_machines;
  std::int64_t work_done;
  std::uint64_t events;
  friend bool operator==(const CompletionSeen&,
                         const CompletionSeen&) = default;
};

// FCFS that records what it reads at each on_complete.
class CompletionProbe final : public Policy {
 public:
  explicit CompletionProbe(const Engine& engine) : engine_(engine) {}

  void reset(const PolicyView& view) override { fcfs_.reset(view); }
  OrgId select(const PolicyView& view) override { return fcfs_.select(view); }
  void on_start(const PolicyView& view, OrgId org, std::uint32_t index,
                MachineId machine) override {
    fcfs_.on_start(view, org, index, machine);
  }
  void on_release(const PolicyView& view, OrgId org) override {
    fcfs_.on_release(view, org);
  }
  void on_complete(const PolicyView& view, OrgId org,
                   MachineId machine) override {
    seen.push_back({view.now(), org, machine, view.completed(org),
                    view.running(org), view.free_machines(),
                    view.work_done(org), engine_.events_processed()});
    fcfs_.on_complete(view, org, machine);
  }
  void on_advance(const PolicyView& view, Time dt) override {
    fcfs_.on_advance(view, dt);
  }

  std::vector<CompletionSeen> seen;

 private:
  const Engine& engine_;
  FcfsPolicy fcfs_;
};

// Runs FCFS over `inst` preloaded and injected; expects both to hear
// `expected` and to end at `version`.
void expect_completion_runs(const Instance& inst,
                            const std::vector<CompletionSeen>& expected,
                            std::uint64_t version) {
  for (const bool injected : {false, true}) {
    EngineOptions options;
    options.external_releases = injected;
    Engine engine(inst, options);
    CompletionProbe probe(engine);
    if (injected) {
      fixtures::run_injected(engine, probe, fixtures::arrivals_by_release(inst),
                             20);
    } else {
      engine.run(probe, 20);
    }
    EXPECT_EQ(probe.seen, expected) << "injected=" << injected;
    EXPECT_EQ(engine.state_version(), version) << "injected=" << injected;
  }
}

TEST(EngineCompletionRuns, OneNotificationAfterTheWholeRunsAccounting) {
  InstanceBuilder b;
  const OrgId a = b.add_org("a", 3);  // machines 0-2
  const OrgId c = b.add_org("c", 2);  // machines 3-4
  for (const Time p : {5, 5, 5, 9}) b.add_job(a, 0, p);
  b.add_job(c, 0, 5);
  const Instance inst = std::move(b).build();
  // All five start at 0 on machines 0-4. At 5, a's three jobs end as one
  // run: its note already sees all three machines free and all 15 units
  // done, plus 5 of the running job's.
  const std::vector<CompletionSeen> expected = {
      {5, a, 2, 3, 1, 3, 20, 8},
      {5, c, 4, 1, 0, 4, 5, 9},
      {9, a, 3, 4, 0, 5, 24, 10},
  };
  // Two release runs, three completion runs and five starts.
  expect_completion_runs(inst, expected, 10);
}

TEST(EngineCompletionRuns, TwoOrgsCompletingAtTAreTwoRunsInOrgOrder) {
  InstanceBuilder b;
  const OrgId low = b.add_org("low", 1);    // machine 0
  const OrgId high = b.add_org("high", 2);  // machines 1-2
  b.add_job(high, 0, 6);  // machine 0
  b.add_job(high, 0, 6);  // machine 1
  b.add_job(low, 1, 5);   // machine 2, pushed last
  const Instance inst = std::move(b).build();
  // Everything ends at 6: the lower org's run goes first, whatever machine
  // ids and push order say.
  const std::vector<CompletionSeen> expected = {
      {6, low, 2, 1, 0, 1, 5, 4},
      {6, high, 1, 2, 0, 3, 12, 6},
  };
  expect_completion_runs(inst, expected, 7);
}

// Under kRandomFree the completion heap orders by time alone, so a run is
// the adjacent pops of one (time, org): the engine's notes must equal the
// runs of a replay of that heap's push/pop sequence.
TEST(EngineCompletionRuns, RandomFreeRunsFollowThePopOrder) {
  struct Pending {
    Time time;
    OrgId org;
    MachineId machine;
  };
  const auto pops_after = [](const Pending& x, const Pending& y) {
    return x.time > y.time;
  };
  using Run = std::tuple<Time, OrgId, std::uint32_t, MachineId>;
  std::uint32_t longest = 0;
  bool split_run = false;  // one (time, org) cut in two by another org
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    const Instance inst = colliding_instance(seed, 6);
    EngineOptions options;
    options.machine_pick = MachinePick::kRandomFree;
    options.seed = seed;
    Engine engine(inst, options);
    FairSharePolicy fairshare;
    RecordingPolicy recorder(engine, fairshare);
    const Time horizon = 40;
    engine.run(recorder, horizon);

    // Each decision time's starts are pushed after every completion due by
    // then has popped.
    std::priority_queue<Pending, std::vector<Pending>, decltype(pops_after)>
        heap(pops_after);
    std::vector<Pending> popped;
    const auto pop_until = [&](Time t) {
      while (!heap.empty() && heap.top().time <= t) {
        popped.push_back(heap.top());
        heap.pop();
      }
    };
    for (const Placement& p : recorder.schedule().placements()) {
      pop_until(p.start);
      heap.push({p.start + inst.job(p.org, p.index).processing, p.org,
                 p.machine});
    }
    pop_until(horizon);

    std::vector<Run> expected;
    for (std::size_t i = 0; i < popped.size(); ++i) {
      const Pending& e = popped[i];
      if (i > 0 && popped[i - 1].time == e.time &&
          popped[i - 1].org == e.org) {
        auto& [time, org, count, machine] = expected.back();
        ++count;
        machine = e.machine;
        longest = std::max(longest, count);
        continue;
      }
      for (const Run& run : expected) {
        split_run = split_run ||
                    (std::get<0>(run) == e.time && std::get<1>(run) == e.org);
      }
      expected.emplace_back(e.time, e.org, 1, e.machine);
    }
    std::vector<Run> heard;
    for (const RecordingPolicy::Note& n : recorder.notes()) {
      if (n.kind == RecordingPolicy::kComplete) {
        heard.emplace_back(n.time, n.org, n.count, n.machine);
      }
    }
    EXPECT_EQ(heard, expected) << "seed=" << seed;
  }
  EXPECT_GT(longest, 1u);
  EXPECT_TRUE(split_run);
}

TEST(Engine, LargerSyntheticWorkloadStaysConsistent) {
  const SyntheticSpec spec = preset_lpc_egee();
  const Instance inst = make_synthetic_instance(spec, 4, 4000,
                                                MachineSplit::kZipf, 1.0, 99);
  const Time horizon = 4000;
  Engine engine(inst);
  Schedule schedule;
  engine.record_into(&schedule);
  FcfsPolicy policy;
  engine.run(policy, horizon);
  EXPECT_EQ(schedule.validate(inst, horizon), std::nullopt);
  for (OrgId u = 0; u < inst.num_orgs(); ++u) {
    EXPECT_EQ(engine.psi2(u), sp_org_half_utility(inst, schedule, u, horizon));
  }
  EXPECT_EQ(engine.total_work_done(),
            completed_work(inst, schedule, horizon));
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
