// Exact-equivalence suite for the incremental (push-based) policy ports.
//
// Every in-tree policy used to be a pure select()-scan; the ports in
// sched/ answer the same question from an incrementally maintained mirror
// (sched/org_index.h). The contract is *bit-exact equivalence*, not
// approximation: on any instance, the incremental policy must produce the
// identical decision sequence — and therefore the identical schedule and
// utilities — as the historical scan, under both drivers:
//
//   * attached   — Engine::run delivers the push notifications;
//   * detached   — a manual driver steps advance_to/start_front without
//                  attaching, and the mirror heals through
//                  PolicyView::state_version (IncrementalPolicy::
//                  ensure_synced).
//
// Besides random contended instances, the suite runs the traffic the
// Theorem 4.1 deviation grid produces: one organization's jobs split into
// same-release runs of unit pieces, each reaching the mirror as one
// release notification, often into a queue that already waits (the case
// the mirrors skip without re-keying).
//
// The scan reference policies below are verbatim copies of the historical
// select() loops (first-strict-improvement argmin scans), kept here as the
// executable specification the ports are measured against.

#include <gtest/gtest.h>

#include <limits>
#include <algorithm>
#include <memory>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "core/instance.h"
#include "exp/policy_registry.h"
#include "sim/engine.h"
#include "sim/policy.h"
#include "strategy/deviation.h"
#include "util/rng.h"

namespace fairsched {
namespace {

// Shorthand for the open policy registry (see exp/policy_registry.h).
exp::PolicyRegistry& registry() { return exp::PolicyRegistry::global(); }

// --- scan reference policies (the historical implementations) --------------

class ScanFcfs : public Policy {
 public:
  OrgId select(const PolicyView& view) override {
    OrgId best = kNoOrg;
    Time best_release = 0;
    for (OrgId u = 0; u < view.num_orgs(); ++u) {
      if (view.waiting(u) == 0) continue;
      const Time r = view.front_release(u);
      if (best == kNoOrg || r < best_release) {
        best = u;
        best_release = r;
      }
    }
    return best;
  }
};

class ScanRoundRobin : public Policy {
 public:
  void reset(const PolicyView& /*view*/) override { cursor_ = 0; }
  OrgId select(const PolicyView& view) override {
    const std::uint32_t n = view.num_orgs();
    for (std::uint32_t i = 0; i < n; ++i) {
      const OrgId u = (cursor_ + i) % n;
      if (view.waiting(u) > 0) {
        cursor_ = (u + 1) % n;
        return u;
      }
    }
    return kNoOrg;
  }

 private:
  OrgId cursor_ = 0;
};

class ScanRandom : public Policy {
 public:
  explicit ScanRandom(std::uint64_t seed) : rng_(seed) {}
  OrgId select(const PolicyView& view) override {
    // The historical scan built the ascending candidate vector and drew
    // one index; OrderStatSet::kth must reproduce both the draw and the
    // pick bit-for-bit.
    std::vector<OrgId> candidates;
    for (OrgId u = 0; u < view.num_orgs(); ++u) {
      if (view.waiting(u) > 0) candidates.push_back(u);
    }
    return candidates[static_cast<std::size_t>(
        rng_.uniform_u64(candidates.size()))];
  }

 private:
  Rng rng_;
};

// The fair-share family's class-then-ratio-then-first-wins scan;
// parameterized over the balanced metric exactly as the policies are.
class ScanRatioShare : public Policy {
 public:
  using Metric = double (*)(const PolicyView&, OrgId);
  explicit ScanRatioShare(Metric metric) : metric_(metric) {}

  OrgId select(const PolicyView& view) override {
    OrgId best = kNoOrg;
    double best_ratio = std::numeric_limits<double>::infinity();
    bool best_zero_share = true;
    for (OrgId u = 0; u < view.num_orgs(); ++u) {
      if (view.waiting(u) == 0) continue;
      const double share = view.share(u);
      const bool zero_share = share <= 0.0;
      const double ratio = zero_share ? 0.0 : metric_(view, u) / share;
      if (best == kNoOrg || (best_zero_share && !zero_share) ||
          (best_zero_share == zero_share && ratio < best_ratio)) {
        best = u;
        best_ratio = ratio;
        best_zero_share = zero_share;
      }
    }
    return best;
  }

 private:
  Metric metric_;
};

class ScanDirectContr : public Policy {
 public:
  OrgId select(const PolicyView& view) override {
    // Largest deficit phi~ - psi == smallest psi2 - contrib_psi2.
    OrgId best = kNoOrg;
    HalfUtil best_key = 0;
    for (OrgId u = 0; u < view.num_orgs(); ++u) {
      if (view.waiting(u) == 0) continue;
      const HalfUtil key = view.psi2(u) - view.contrib_psi2(u);
      if (best == kNoOrg || key < best_key) {
        best = u;
        best_key = key;
      }
    }
    return best;
  }
};

std::unique_ptr<Policy> make_scan_reference(const std::string& name,
                                            std::uint64_t seed) {
  if (name == "fcfs") return std::make_unique<ScanFcfs>();
  if (name == "roundrobin") return std::make_unique<ScanRoundRobin>();
  if (name == "random") return std::make_unique<ScanRandom>(seed);
  if (name == "fairshare") {
    return std::make_unique<ScanRatioShare>(
        +[](const PolicyView& view, OrgId u) {
          return static_cast<double>(view.work_done(u));
        });
  }
  if (name == "utfairshare") {
    return std::make_unique<ScanRatioShare>(
        +[](const PolicyView& view, OrgId u) {
          return static_cast<double>(view.psi2(u)) / 2.0;
        });
  }
  if (name == "currfairshare") {
    return std::make_unique<ScanRatioShare>(
        +[](const PolicyView& view, OrgId u) {
          return static_cast<double>(view.running(u));
        });
  }
  if (name == "directcontr") return std::make_unique<ScanDirectContr>();
  ADD_FAILURE() << "no scan reference for " << name;
  return nullptr;
}

// --- drivers ----------------------------------------------------------------

using Decision = std::pair<Time, OrgId>;

struct RunTrace {
  std::vector<Decision> decisions;
  std::vector<HalfUtil> utilities2;
  std::vector<Placement> placements;
};

// Forwards everything to `inner` and records each (time, selection).
class Recorder : public Policy {
 public:
  Recorder(Policy& inner, std::vector<Decision>& out)
      : inner_(inner), out_(out) {}
  void reset(const PolicyView& view) override { inner_.reset(view); }
  OrgId select(const PolicyView& view) override {
    const OrgId u = inner_.select(view);
    out_.emplace_back(view.now(), u);
    return u;
  }
  void on_start(const PolicyView& view, OrgId org, std::uint32_t index,
                MachineId machine) override {
    inner_.on_start(view, org, index, machine);
  }
  void on_release(const PolicyView& view, OrgId org) override {
    inner_.on_release(view, org);
  }
  void on_complete(const PolicyView& view, OrgId org,
                   MachineId machine) override {
    inner_.on_complete(view, org, machine);
  }
  void on_advance(const PolicyView& view, Time dt) override {
    inner_.on_advance(view, dt);
  }

 private:
  Policy& inner_;
  std::vector<Decision>& out_;
};

RunTrace finish(const Engine& engine, const Schedule& schedule) {
  RunTrace trace;
  for (OrgId u = 0; u < engine.num_orgs(); ++u) {
    trace.utilities2.push_back(engine.psi2(u));
  }
  trace.placements = schedule.placements();
  return trace;
}

// Engine::run — the policy is attached and receives every notification.
RunTrace run_attached(const Instance& inst, Policy& policy, Time horizon,
                      EngineOptions options = {}) {
  Engine engine(inst, options);
  Schedule schedule;
  engine.record_into(&schedule);
  std::vector<Decision> decisions;
  Recorder recorder(policy, decisions);
  engine.run(recorder, horizon);
  RunTrace trace = finish(engine, schedule);
  trace.decisions = std::move(decisions);
  return trace;
}

// Manual stepping without attach(): the policy sees no notifications and
// must answer from the view alone. Waking at *every* event (not just
// next_decision_time) also cross-checks the run loop's wake-skipping.
RunTrace run_detached(const Instance& inst, Policy& policy, Time horizon,
                      bool call_reset, EngineOptions options = {}) {
  Engine engine(inst, options);
  Schedule schedule;
  engine.record_into(&schedule);
  PolicyView view(engine);
  if (call_reset) policy.reset(view);
  std::vector<Decision> decisions;
  for (;;) {
    while (engine.needs_decision()) {
      const OrgId u = policy.select(view);
      decisions.emplace_back(engine.now(), u);
      engine.start_front(u);
    }
    const Time t = engine.next_event();
    if (t == kTimeInfinity || t >= horizon) break;
    engine.advance_to(t);
  }
  engine.advance_to(horizon);
  RunTrace trace = finish(engine, schedule);
  trace.decisions = std::move(decisions);
  return trace;
}

// Random contended instances; some organizations contribute no machines.
Instance random_instance(std::uint64_t seed) {
  Rng rng(mix_seed(seed, 0xE0F1));
  InstanceBuilder b;
  const std::uint32_t k =
      2 + static_cast<std::uint32_t>(rng.uniform_u64(4));
  std::uint32_t total_machines = 0;
  for (std::uint32_t u = 0; u < k; ++u) {
    const std::uint32_t m = static_cast<std::uint32_t>(rng.uniform_u64(3));
    total_machines += m;
    b.add_org("o" + std::to_string(u), m);
  }
  if (total_machines == 0) b.add_org("backbone", 2);
  const std::uint64_t jobs = 20 + rng.uniform_u64(60);
  for (std::uint64_t j = 0; j < jobs; ++j) {
    b.add_job(static_cast<OrgId>(rng.uniform_u64(k)),
              static_cast<Time>(rng.uniform_u64(60)),
              1 + static_cast<Time>(rng.uniform_u64(12)));
  }
  return std::move(b).build();
}

// random_instance with organization seed % k deviating by splitunit: each
// of its jobs becomes unit pieces released together.
Instance unit_piece_instance(std::uint64_t seed) {
  const Instance honest = random_instance(seed);
  return strategy::apply_deviation(
      honest, static_cast<OrgId>(seed % honest.num_orgs()),
      strategy::parse_deviation("splitunit"));
}

// Every incremental port in the registry.
const std::vector<std::string> kPorts = {
    "fcfs",        "roundrobin",    "random", "fairshare",
    "utfairshare", "currfairshare", "directcontr"};

using EquivCase = std::tuple<std::string, std::uint64_t>;

std::string case_name(const ::testing::TestParamInfo<EquivCase>& info) {
  return std::get<0>(info.param) + "_s" +
         std::to_string(std::get<1>(info.param));
}

class PolicyEquivalence : public ::testing::TestWithParam<EquivCase> {};

// The tentpole guarantee: the incremental port and the historical scan
// make the identical decisions, hence the identical schedule and exact
// integer utilities.
TEST_P(PolicyEquivalence, IncrementalPortMatchesScanReference) {
  const auto& [name, seed] = GetParam();
  const Instance inst = random_instance(seed);
  const Time horizon = 60 + static_cast<Time>(seed % 5) * 20;

  const auto incremental = registry().make_policy(name, seed);
  const auto scan = make_scan_reference(name, seed);
  const RunTrace a = run_attached(inst, *incremental, horizon);
  const RunTrace b = run_attached(inst, *scan, horizon);

  EXPECT_EQ(a.decisions, b.decisions);
  EXPECT_EQ(a.placements, b.placements);
  EXPECT_EQ(a.utilities2, b.utilities2);
}

// Driver independence: an attached run and a detached manual stepping loop
// (which also wakes at every event instead of skipping) agree exactly.
TEST_P(PolicyEquivalence, AttachedRunMatchesDetachedStepping) {
  const auto& [name, seed] = GetParam();
  const Instance inst = random_instance(seed);
  const Time horizon = 60 + static_cast<Time>(seed % 5) * 20;

  const auto attached_policy = registry().make_policy(name, seed);
  const auto detached_policy = registry().make_policy(name, seed);
  const RunTrace a = run_attached(inst, *attached_policy, horizon);
  const RunTrace d =
      run_detached(inst, *detached_policy, horizon, /*call_reset=*/true);

  EXPECT_EQ(a.decisions, d.decisions);
  EXPECT_EQ(a.placements, d.placements);
  EXPECT_EQ(a.utilities2, d.utilities2);
}

INSTANTIATE_TEST_SUITE_P(
    Ports, PolicyEquivalence,
    ::testing::Combine(
        ::testing::ValuesIn(kPorts),
        ::testing::Values<std::uint64_t>(1, 2, 3, 4)),
    case_name);

class UnitPieceEquivalence : public ::testing::TestWithParam<EquivCase> {};

// Same-release unit-piece runs: the port agrees with the scan reference
// under Engine::run and under detached stepping. Engines pick machines as
// the registry runs the policy: DIRECTCONTR draws them at random, so the
// owner credited by a start (whose key starts drifting) varies.
TEST_P(UnitPieceEquivalence, BothDriversMatchScanReference) {
  const auto& [name, seed] = GetParam();
  const Instance inst = unit_piece_instance(seed);
  ASSERT_GT(inst.num_jobs(), random_instance(seed).num_jobs());
  const Time horizon = 60 + static_cast<Time>(seed % 5) * 20;
  EngineOptions options;
  options.seed = seed;
  if (name == "directcontr") options.machine_pick = MachinePick::kRandomFree;

  const auto scan = make_scan_reference(name, seed);
  const auto attached_policy = registry().make_policy(name, seed);
  const auto detached_policy = registry().make_policy(name, seed);
  const RunTrace s = run_attached(inst, *scan, horizon, options);
  const RunTrace a = run_attached(inst, *attached_policy, horizon, options);
  const RunTrace d = run_detached(inst, *detached_policy, horizon,
                                  /*call_reset=*/true, options);

  EXPECT_EQ(a.decisions, s.decisions);
  EXPECT_EQ(a.placements, s.placements);
  EXPECT_EQ(a.utilities2, s.utilities2);
  EXPECT_EQ(d.decisions, s.decisions);
  EXPECT_EQ(d.placements, s.placements);
  EXPECT_EQ(d.utilities2, s.utilities2);
}

INSTANTIATE_TEST_SUITE_P(
    Ports, UnitPieceEquivalence,
    ::testing::Combine(::testing::ValuesIn(kPorts),
                       ::testing::Values<std::uint64_t>(1, 2, 3, 4, 5, 6, 7,
                                                        8)),
    case_name);

// DIRECTCONTR: a waiting organization whose key has never moved starts
// drifting when another organization's job starts on its machine. Org 0
// owns no machine; at t=0 its two jobs take o1's and o2's machines while
// o1 waits, and o2 releases at t=1. At t=2 o1's machine frees with o1 and
// o2 both waiting and both credited for 2 hosted units: equal keys, so o1
// (lower id) must win — which it only does if the mirror refreshed o1's
// key although no job of o1's own started or completed.
TEST(PolicyEquivalence, DirectContrRefreshesAWaitingOwnerWhoseMachineRuns) {
  InstanceBuilder b;
  b.add_org("x", 0);
  b.add_org("o1", 1);
  b.add_org("o2", 1);
  b.add_job(0, 0, 2);
  b.add_job(0, 0, 5);
  b.add_job(1, 0, 1);
  b.add_job(2, 1, 1);
  const Instance inst = std::move(b).build();

  const auto incremental = registry().make_policy("directcontr");
  const auto scan = make_scan_reference("directcontr", 0);
  const RunTrace a = run_attached(inst, *incremental, 20);
  const RunTrace s = run_attached(inst, *scan, 20);
  const std::vector<Decision> expected = {{0, 0}, {0, 0}, {2, 1}, {3, 2}};
  EXPECT_EQ(s.decisions, expected);
  EXPECT_EQ(a.decisions, s.decisions);
  EXPECT_EQ(a.placements, s.placements);
}

// A mirror must also survive a driver that neither attaches nor resets:
// ensure_synced() has to rebuild everything from the view on first use.
TEST(PolicyEquivalence, DetachedWithoutResetHealsFromTheView) {
  for (const std::string& name : kPorts) {
    const Instance inst = random_instance(7);
    const auto attached_policy = registry().make_policy(name);
    const auto cold_policy = registry().make_policy(name);
    const RunTrace a = run_attached(inst, *attached_policy, 100);
    const RunTrace d =
        run_detached(inst, *cold_policy, 100, /*call_reset=*/false);
    EXPECT_EQ(a.decisions, d.decisions) << name;
    EXPECT_EQ(a.utilities2, d.utilities2) << name;
  }
}

// --- push-lifecycle delivery probe ------------------------------------------

// Counts every notification and checks the documented delivery points
// (sim/policy.h): on_release after the waiting count grew by the run's
// jobs, on_complete after the completed count grew by the run's jobs and
// their machines freed, on_advance with the positive clock delta — and
// that each of on_release, on_complete and on_start moves state_version()
// by exactly one.
class CountingPolicy : public Policy {
 public:
  void reset(const PolicyView& view) override {
    version = view.state_version();
    released.assign(view.num_orgs(), 0);
    completed.assign(view.num_orgs(), 0);
  }
  OrgId select(const PolicyView& view) override {
    ++selects;
    for (OrgId u = 0; u < view.num_orgs(); ++u) {
      if (view.waiting(u) > 0) return u;
    }
    return kNoOrg;
  }
  void on_release(const PolicyView& view, OrgId org) override {
    ++releases;
    heard(view);
    // Every job of org released so far is waiting, running or completed.
    const std::uint32_t now_released =
        view.waiting(org) + view.running(org) + view.completed(org);
    EXPECT_GT(now_released, released[org]);
    released_jobs += now_released - released[org];
    longest_run = std::max(longest_run, now_released - released[org]);
    released[org] = now_released;
  }
  void on_complete(const PolicyView& view, OrgId org,
                   MachineId /*machine*/) override {
    ++completes;
    heard(view);
    EXPECT_GT(view.completed(org), completed[org]);
    const std::uint32_t run = view.completed(org) - completed[org];
    completed_jobs += run;
    longest_completion_run = std::max(longest_completion_run, run);
    completed[org] = view.completed(org);
    // No start falls inside a run, so every machine it freed is free.
    EXPECT_GE(view.free_machines(), run);
  }
  void on_advance(const PolicyView& /*view*/, Time dt) override {
    EXPECT_GT(dt, 0);
    advanced += dt;
  }
  void on_start(const PolicyView& view, OrgId org, std::uint32_t /*index*/,
                MachineId /*machine*/) override {
    ++starts;
    heard(view);
    EXPECT_GT(view.running(org), 0u);
  }

  std::uint64_t selects = 0;
  std::uint64_t releases = 0;
  std::uint64_t released_jobs = 0;
  std::uint32_t longest_run = 0;
  std::uint64_t completes = 0;
  std::uint64_t completed_jobs = 0;
  std::uint32_t longest_completion_run = 0;
  std::uint64_t starts = 0;
  Time advanced = 0;
  std::uint64_t version = 0;
  std::vector<std::uint32_t> released;
  std::vector<std::uint32_t> completed;

 private:
  void heard(const PolicyView& view) {
    EXPECT_EQ(view.state_version(), version + 1);
    version = view.state_version();
  }
};

TEST(PushLifecycle, EveryEventAndStartIsDeliveredExactlyOnce) {
  // The split-unit instance releases long same-time runs, and its unit
  // pieces end in same-time runs.
  for (const bool split : {false, true}) {
    const Instance inst =
        split ? unit_piece_instance(11) : random_instance(11);
    const Time horizon = 120;
    Engine engine(inst);
    CountingPolicy policy;
    engine.run(policy, horizon);

    // Every released job and every completed job is one processed event;
    // one release or completion notification per same-time run, one
    // on_start per decision, the version counts exactly the notifications
    // heard, and the advance deltas telescope over the whole run.
    EXPECT_EQ(policy.released_jobs + policy.completed_jobs,
              engine.events_processed())
        << "split=" << split;
    EXPECT_EQ(policy.releases + policy.completes + policy.starts,
              engine.state_version())
        << "split=" << split;
    EXPECT_EQ(policy.starts, engine.decisions_made()) << "split=" << split;
    EXPECT_EQ(policy.selects, policy.starts) << "split=" << split;
    EXPECT_EQ(policy.advanced, horizon) << "split=" << split;
    EXPECT_GT(policy.releases, 0u) << "split=" << split;
    EXPECT_GT(policy.completes, 0u) << "split=" << split;
    if (split) {
      EXPECT_GT(policy.longest_run, 1u);
      EXPECT_GT(policy.longest_completion_run, 1u);
    }
  }
}

}  // namespace
}  // namespace fairsched
