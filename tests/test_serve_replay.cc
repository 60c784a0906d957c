// The differential serve-vs-batch replay contract (serve/session.h): the
// same event trace fed through the online ServeSession and through the
// batch engine must produce byte-identical decision streams for every
// deterministic policy — including seeded ones (the decision sequence is a
// function of (trace, policy, seed) on both sides) and config-defined
// registry entries. Also pinned here: the corollaries that make the serve
// loop operable (stats-interval invariance, truncated-source prefix
// agreement, record/replay recovery), the trace round-trip, and the strict
// line-numbered protocol diagnostics.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "exp/policy_registry.h"
#include "exp/scenarios.h"
#include "exp/sweep_config.h"
#include "fixtures.h"
#include "sched/direct_contr.h"
#include "serve/event_source.h"
#include "serve/live_instance.h"
#include "serve/session.h"
#include "sim/engine.h"
#include "workload/synthetic.h"

namespace fairsched {
namespace {

using exp::PolicyRegistry;
using serve::JobEvent;
using serve::ServeOptions;
using serve::ServeReport;
using serve::ServeSession;
using serve::SyntheticEventSource;
using serve::SyntheticServeSpec;
using serve::TraceEventSource;

// A small but adversarial synthetic session: more demand than machines so
// queues form, Zipf skew so some orgs churn while others stay resident.
SyntheticServeSpec test_spec(std::uint64_t seed = 2013) {
  SyntheticServeSpec spec;
  spec.orgs = 40;
  spec.machines_per_org = 1;
  spec.events = 3000;
  spec.arrival_rate = 30.0;  // ~30 * e^{3.5} >> 40 machines: overload
  spec.zipf_s = 1.0;
  spec.seed = seed;
  return spec;
}

std::string spec_to_trace(const SyntheticServeSpec& spec) {
  SyntheticEventSource source(spec);
  std::ostringstream out;
  serve::write_trace_header(out, source.machines());
  while (std::optional<JobEvent> event = source.next()) {
    serve::write_job_line(out, *event);
  }
  out << "end\n";
  return out.str();
}

// The engine a registry entry runs on, seeded as `serve`/`replay` seed it
// (DIRECTCONTR's random machine pick draws from it).
EngineOptions engine_for(const std::string& policy, std::uint64_t seed) {
  PolicyRegistry& registry = PolicyRegistry::global();
  EngineOptions options =
      registry.find(registry.make(policy).base)->engine_options;
  options.seed = seed;
  return options;
}

struct ServeResult {
  std::string decisions;
  std::string recorded;
  ServeReport report;
};

ServeResult run_serve(const std::string& trace, const std::string& policy,
                      std::uint64_t seed, std::uint64_t stats_interval = 0,
                      Time horizon = 0) {
  std::istringstream in(trace);
  TraceEventSource source(in, "test-trace");
  std::ostringstream decisions;
  std::ostringstream recorded;
  std::ostringstream stats;
  ServeOptions options;
  options.horizon = horizon;
  options.stats_interval = stats_interval;
  options.stats = &stats;
  options.decisions = &decisions;
  options.record_trace = &recorded;
  options.engine = engine_for(policy, seed);
  ServeSession session(source.machines(),
                       PolicyRegistry::global().make_policy(policy, seed),
                       options);
  session.run(source);
  return ServeResult{decisions.str(), recorded.str(), session.report()};
}

std::string run_batch(const std::string& trace, const std::string& policy,
                      std::uint64_t seed, Time horizon = 0) {
  std::istringstream in(trace);
  TraceEventSource source(in, "test-trace");
  const Instance inst = serve::materialize_trace(source);
  std::ostringstream decisions;
  const std::unique_ptr<Policy> p =
      PolicyRegistry::global().make_policy(policy, seed);
  serve::replay_batch(inst, *p, horizon, &decisions,
                      engine_for(policy, seed));
  return decisions.str();
}

// Every policy-shaped registry entry — the policies the serve loop
// supports, resolved with default parameters.
std::vector<std::string> serveable_policies() {
  std::vector<std::string> result;
  PolicyRegistry& registry = PolicyRegistry::global();
  for (const std::string& name : registry.names()) {
    if (registry.find(name)->policy) result.push_back(name);
  }
  return result;
}

TEST(ServeReplayTest, EveryServeablePolicyReplaysByteIdentically) {
  const std::string trace = spec_to_trace(test_spec());
  const std::vector<std::string> policies = serveable_policies();
  // The in-tree roster; growing it extends this differential suite
  // automatically.
  ASSERT_GE(policies.size(), 6u);
  EXPECT_NE(std::find(policies.begin(), policies.end(), "directcontr"),
            policies.end());
  for (const std::string& policy : policies) {
    const ServeResult serve = run_serve(trace, policy, /*seed=*/7);
    const std::string batch = run_batch(trace, policy, /*seed=*/7);
    ASSERT_FALSE(serve.decisions.empty()) << policy;
    EXPECT_EQ(serve.decisions, batch) << "policy " << policy;
    // Drained session: every arrival was admitted, started, and completed.
    EXPECT_EQ(serve.report.arrivals, 3000u) << policy;
    EXPECT_EQ(serve.report.decisions, 3000u) << policy;
    EXPECT_EQ(serve.report.completions, 3000u) << policy;
    EXPECT_EQ(serve.report.decision_latency.total_count(),
              serve.report.decisions)
        << policy;
  }
}

TEST(ServeReplayTest, ConfigDefinedPoliciesReplayByteIdentically) {
  // Register config-defined entries exactly as `--config` would; the serve
  // loop must drive them like any built-in.
  exp::ScenarioOptions defaults;
  std::istringstream config(
      "policies = servecfgswitch, servecfgmix\n"
      "workload = unit\n"
      "[policy servecfgswitch]\n"
      "switch = fairshare, roundrobin\n"
      "switch-at = 40\n"
      "[policy servecfgmix]\n"
      "mix = fairshare:0.7, fcfs:0.3\n");
  exp::parse_sweep_config(config, "test-serve.cfg", defaults);
  const std::string trace = spec_to_trace(test_spec(11));
  for (const std::string policy : {"servecfgswitch", "servecfgmix"}) {
    const ServeResult serve = run_serve(trace, policy, /*seed=*/3);
    EXPECT_EQ(serve.decisions, run_batch(trace, policy, /*seed=*/3))
        << policy;
  }
}

TEST(ServeReplayTest, SeededPoliciesDivergeAcrossSeedsButReplayEachSeed) {
  const std::string trace = spec_to_trace(test_spec());
  const ServeResult seed_a = run_serve(trace, "random", 1);
  const ServeResult seed_b = run_serve(trace, "random", 2);
  EXPECT_NE(seed_a.decisions, seed_b.decisions);
  EXPECT_EQ(seed_a.decisions, run_batch(trace, "random", 1));
  EXPECT_EQ(seed_b.decisions, run_batch(trace, "random", 2));
}

TEST(ServeReplayTest, StatsIntervalDoesNotPerturbDecisions) {
  const std::string trace = spec_to_trace(test_spec());
  const ServeResult quiet = run_serve(trace, "fairshare", 7, 0);
  const ServeResult chatty = run_serve(trace, "fairshare", 7, 1);
  const ServeResult sparse = run_serve(trace, "fairshare", 7, 500);
  EXPECT_EQ(quiet.decisions, chatty.decisions);
  EXPECT_EQ(quiet.decisions, sparse.decisions);
  EXPECT_EQ(quiet.report.final_time, chatty.report.final_time);
  EXPECT_GT(chatty.report.stats_lines, sparse.report.stats_lines);
}

TEST(ServeReplayTest, HorizonMatchesBatchHorizon) {
  const std::string trace = spec_to_trace(test_spec());
  for (const Time horizon : {Time{1}, Time{17}, Time{50}, Time{100000}}) {
    EXPECT_EQ(run_serve(trace, "fairshare", 7, 0, horizon).decisions,
              run_batch(trace, "fairshare", 7, horizon))
        << "horizon " << horizon;
  }
}

// Restart story, part 1: a source that stops mid-stream (crash, truncated
// log) yields exactly the full run's decisions up to the first missing
// event's time — the online loop never "invents" divergent history, it
// only drains the tail it believes is final.
TEST(ServeReplayTest, TruncatedSourceAgreesOnThePast) {
  const SyntheticServeSpec spec = test_spec();
  SyntheticEventSource full_source(spec);
  std::vector<JobEvent> events;
  while (std::optional<JobEvent> e = full_source.next()) {
    events.push_back(*e);
  }
  const std::size_t cut = events.size() / 2;
  const Time cut_time = events[cut].time;  // first event the crash lost

  std::ostringstream full_text;
  std::ostringstream cut_text;
  serve::write_trace_header(full_text, full_source.machines());
  serve::write_trace_header(cut_text, full_source.machines());
  for (std::size_t i = 0; i < events.size(); ++i) {
    serve::write_job_line(full_text, events[i]);
    if (i < cut) serve::write_job_line(cut_text, events[i]);
  }

  auto decisions_before = [](const std::string& stream, Time t) {
    std::vector<std::string> lines;
    std::istringstream in(stream);
    std::string line;
    while (std::getline(in, line)) {
      std::istringstream fields(line);
      std::string word;
      Time time = 0;
      fields >> word >> time;
      if (time < t) lines.push_back(line);
    }
    return lines;
  };
  const ServeResult full = run_serve(full_text.str(), "fairshare", 7);
  const ServeResult partial = run_serve(cut_text.str(), "fairshare", 7);
  EXPECT_EQ(decisions_before(partial.decisions, cut_time),
            decisions_before(full.decisions, cut_time));
}

// Restart story, part 2: replaying the session's own recorded event log
// through a fresh session reproduces the decision stream and counters
// exactly — a crashed daemon recovers by replay.
TEST(ServeReplayTest, RecordedTraceReplaysToTheIdenticalSession) {
  const std::string trace = spec_to_trace(test_spec());
  const ServeResult first = run_serve(trace, "currfairshare", 7);
  ASSERT_FALSE(first.recorded.empty());
  const ServeResult second = run_serve(first.recorded, "currfairshare", 7);
  EXPECT_EQ(first.decisions, second.decisions);
  EXPECT_EQ(first.report.arrivals, second.report.arrivals);
  EXPECT_EQ(first.report.decisions, second.report.decisions);
  EXPECT_EQ(first.report.final_time, second.report.final_time);
  EXPECT_EQ(first.recorded, second.recorded);  // recording is idempotent
}

TEST(ServeReplayTest, TraceRoundTripPreservesEveryEvent) {
  const SyntheticServeSpec spec = test_spec(5);
  SyntheticEventSource source(spec);
  std::vector<JobEvent> original;
  std::ostringstream text;
  serve::write_trace_header(text, source.machines());
  while (std::optional<JobEvent> e = source.next()) {
    original.push_back(*e);
    serve::write_job_line(text, *e);
  }
  std::istringstream in(text.str());
  TraceEventSource parsed(in, "round-trip");
  EXPECT_EQ(parsed.machines(), source.machines());
  std::vector<JobEvent> reparsed;
  while (std::optional<JobEvent> e = parsed.next()) {
    reparsed.push_back(*e);
  }
  EXPECT_EQ(reparsed, original);
}

// The strict protocol: every rejection is an std::invalid_argument naming
// the source and the 1-based line, mirroring parse_shard_spec's
// convention (the CLI turns it into "error: ..." + exit 1).
TEST(ServeReplayTest, MalformedTraceLinesReportLineNumbers) {
  auto parse_error = [](const std::string& text) -> std::string {
    std::istringstream in(text);
    try {
      TraceEventSource source(in, "bad-trace");
      while (source.next().has_value()) {
      }
    } catch (const std::invalid_argument& e) {
      return e.what();
    }
    return "";
  };
  auto expect_contains = [&](const std::string& text,
                             const std::string& needle) {
    const std::string what = parse_error(text);
    EXPECT_NE(what.find(needle), std::string::npos)
        << "wanted '" << needle << "' in: " << what;
  };
  expect_contains("org 1\njob 0 0 0\n", "bad-trace line 2");
  expect_contains("org 1\njob 0 0 0\n", "positive integer");
  // Blank and comment lines still count toward the line number.
  expect_contains("org 1\n# fine\n\njob 1 2 3\n", "line 4");
  expect_contains("org 1\njob 1 2 3\n", "organization id < 1");
  expect_contains("job 0 0 1\n", "before any `org`");
  expect_contains("org 1\njob 5 0 1\njob 4 0 1\n", "goes backwards");
  expect_contains("org 1\njob 1 0 1\norg 2\n", "platform is frozen");
  expect_contains("org 1\nfrob 1 2\n", "unknown directive 'frob'");
  expect_contains("org 1\nend\njob 1 0 1\n", "after `end`");
  expect_contains("org 1\njob 1 0\n", "want `job <time> <org> <processing>`");
  expect_contains("", "no organizations");
  expect_contains("org 1\njob 99999999999999999999 0 1\n",
                  "not a nonnegative integer");
}

// LiveInstance is the one sanctioned Instance mutator; its guards are what
// keep the grown instance identical to an InstanceBuilder build.
TEST(ServeReplayTest, LiveInstanceEnforcesBuilderInvariants) {
  serve::LiveInstance live({2, 1});
  EXPECT_EQ(live.num_orgs(), 2u);
  EXPECT_EQ(live.append_job(0, 5, 3), 0u);
  EXPECT_EQ(live.append_job(0, 5, 1), 1u);  // equal releases fine
  EXPECT_EQ(live.append_job(1, 2, 2), 0u);  // other org independent
  EXPECT_THROW(live.append_job(2, 0, 1), std::invalid_argument);
  EXPECT_THROW(live.append_job(0, 4, 1), std::invalid_argument);
  EXPECT_THROW(live.append_job(0, 9, 0), std::invalid_argument);
  EXPECT_EQ(live.num_jobs(), 3u);
  EXPECT_EQ(live.instance().total_work(), 6);
  EXPECT_EQ(live.instance().last_release(), 5);
  EXPECT_THROW(serve::LiveInstance({0, 0}), std::invalid_argument);
}

TEST(ServeReplayTest, InjectReleaseGuardsItsPreconditions) {
  serve::LiveInstance live({1});
  EngineOptions options;
  options.external_releases = true;
  Engine engine(live.instance(), options);
  EXPECT_THROW(engine.inject_release(0), std::logic_error);  // no job yet
  live.append_job(0, 3, 2);
  EXPECT_EQ(engine.inject_release(0), 3);
  EXPECT_EQ(engine.injected(0), 1u);
  EXPECT_THROW(engine.inject_release(0), std::logic_error);  // drained
  engine.advance_to(5);
  // LiveInstance accepts this append (release 4 >= the previous job's 3),
  // but the engine's clock is already at 5: events must be fed before the
  // loop advances past them, so the injection is refused.
  live.append_job(0, 4, 1);
  EXPECT_THROW(engine.inject_release(0), std::logic_error);
  // A non-external engine refuses injection outright.
  Engine batch(live.instance());
  EXPECT_THROW(batch.inject_release(0), std::logic_error);
}

// External releases compose with the random machine pick too: fed
// serve-style, DIRECTCONTR's engine reproduces the preloaded run placement
// for placement, machines included. The completion heap sees the same
// push/pop sequence either way, so the random draw indexes the same free
// list.
void expect_injected_matches_preloaded(const Instance& inst) {
  const Time horizon = inst.last_release() + 200;
  EngineOptions options;
  options.machine_pick = MachinePick::kRandomFree;
  options.seed = 17;
  Engine preloaded(inst, options);
  Schedule batch_schedule;
  preloaded.record_into(&batch_schedule);
  DirectContrPolicy batch_policy;
  preloaded.run(batch_policy, horizon);

  options.external_releases = true;
  Engine injected(inst, options);
  Schedule serve_schedule;
  injected.record_into(&serve_schedule);
  DirectContrPolicy serve_policy;
  fixtures::run_injected(injected, serve_policy,
                         fixtures::arrivals_by_release(inst), horizon);

  ASSERT_GT(batch_schedule.size(), 0u);
  EXPECT_EQ(serve_schedule.placements(), batch_schedule.placements());
  for (OrgId u = 0; u < inst.num_orgs(); ++u) {
    EXPECT_EQ(injected.psi2(u), preloaded.psi2(u)) << "u=" << u;
    EXPECT_EQ(injected.contrib_psi2(u), preloaded.contrib_psi2(u))
        << "u=" << u;
  }
  EXPECT_EQ(injected.events_processed(), preloaded.events_processed());
  EXPECT_EQ(injected.decisions_made(), preloaded.decisions_made());
}

TEST(ServeReplayTest, InjectedRandomFreeEngineMatchesThePreloadedRun) {
  expect_injected_matches_preloaded(fixtures::unit_instance(5, 40, 7));
  expect_injected_matches_preloaded(make_synthetic_instance(
      preset_lpc_egee(), 5, 3000, MachineSplit::kZipf, 1.0, 91));
}

}  // namespace
}  // namespace fairsched
