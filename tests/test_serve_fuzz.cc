// Randomized serve-loop fuzzing (run under ASan/UBSan in CI): bursty
// arrival streams — simultaneous timestamps, minimum-length jobs, idle and
// churning organizations, uneven platforms — driven through ServeSession
// and checked against the batch engine plus the session's own invariants:
// no job is lost (arrivals == decisions == completions after a drain),
// decision times are monotone, and the latency histogram counts exactly
// one sample per decision. Also fuzzes LiveInstance against
// InstanceBuilder: growing an instance job-by-job must land on the
// field-identical immutable instance.

#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "core/instance.h"
#include "exp/policy_registry.h"
#include "serve/event_source.h"
#include "serve/live_instance.h"
#include "serve/session.h"
#include "util/rng.h"

namespace fairsched {
namespace {

using exp::PolicyRegistry;
using serve::JobEvent;
using serve::ServeOptions;
using serve::ServeReport;
using serve::ServeSession;
using serve::TraceEventSource;

struct FuzzTrace {
  std::vector<std::uint32_t> machines;
  std::vector<JobEvent> events;
  std::string text;
};

// A deliberately bursty, lumpy workload: geometric-ish time gaps with a
// heavy atom at zero (simultaneous arrivals), a platform mixing fat and
// single-machine organizations, and jobs down to the minimum length 1.
FuzzTrace make_fuzz_trace(std::uint64_t seed) {
  Rng rng(mix_seed(seed, 0xf0220ULL));
  FuzzTrace trace;
  const std::uint32_t orgs = 1 + rng.uniform_u64(12);
  for (std::uint32_t u = 0; u < orgs; ++u) {
    trace.machines.push_back(
        rng.uniform_u64(4) == 0 ? 1 + rng.uniform_u64(5) : 1);
  }
  const std::uint32_t events = 50 + rng.uniform_u64(400);
  Time t = 0;
  for (std::uint32_t i = 0; i < events; ++i) {
    // 2/3 of events share the previous timestamp.
    if (rng.uniform_u64(3) != 0) {
      t += rng.uniform_u64(4);
    }
    JobEvent event;
    event.time = t;
    event.org = rng.uniform_u64(orgs);
    event.processing = 1 + rng.uniform_u64(rng.uniform_u64(4) == 0 ? 50 : 3);
    trace.events.push_back(event);
  }
  std::ostringstream out;
  serve::write_trace_header(out, trace.machines);
  for (const JobEvent& event : trace.events) {
    serve::write_job_line(out, event);
  }
  trace.text = out.str();
  return trace;
}

ServeReport run_and_check(const FuzzTrace& trace, const std::string& policy,
                          std::uint64_t seed) {
  std::istringstream serve_in(trace.text);
  TraceEventSource serve_source(serve_in, "fuzz");
  std::ostringstream serve_decisions;
  std::ostringstream stats;
  ServeOptions options;
  options.stats = &stats;
  options.stats_interval = 64;
  options.decisions = &serve_decisions;
  ServeSession session(serve_source.machines(),
                       PolicyRegistry::global().make_policy(policy, seed),
                       options);
  session.run(serve_source);
  const ServeReport& report = session.report();

  // Differential: byte-identical to the batch engine over the same trace.
  std::istringstream batch_in(trace.text);
  TraceEventSource batch_source(batch_in, "fuzz");
  const Instance inst = serve::materialize_trace(batch_source);
  std::ostringstream batch_decisions;
  const std::unique_ptr<Policy> batch_policy =
      PolicyRegistry::global().make_policy(policy, seed);
  serve::replay_batch(inst, *batch_policy, 0, &batch_decisions);
  EXPECT_EQ(serve_decisions.str(), batch_decisions.str())
      << "policy " << policy << " seed " << seed;

  // No lost jobs: a drained session started and completed every arrival.
  const std::uint64_t n = trace.events.size();
  EXPECT_EQ(report.arrivals, n);
  EXPECT_EQ(report.decisions, n);
  EXPECT_EQ(report.completions, n);
  EXPECT_EQ(report.engine_events, 2 * n);  // each job: release + completion
  // Exactly one latency sample per decision.
  EXPECT_EQ(report.decision_latency.total_count(), report.decisions);
  EXPECT_GE(report.decision_latency.max(), report.decision_latency.p99());
  // The clock never runs backwards through the decision stream, and no
  // decision precedes its job's release.
  std::istringstream lines(serve_decisions.str());
  std::string word;
  Time prev = 0;
  std::uint64_t parsed = 0;
  while (lines >> word) {
    EXPECT_EQ(word, "decision");
    Time time = 0;
    OrgId org = 0;
    std::uint32_t index = 0;
    MachineId machine = 0;
    lines >> time >> org >> index >> machine;
    EXPECT_GE(time, prev);
    prev = time;
    EXPECT_LT(org, trace.machines.size());
    EXPECT_GE(time, inst.job(org, index).release);
    parsed++;
  }
  EXPECT_EQ(parsed, report.decisions);
  EXPECT_GE(report.final_time, prev);
  EXPECT_GE(report.peak_resident_jobs, 1u);
  EXPECT_LE(report.peak_resident_orgs, trace.machines.size());
  return report;
}

TEST(ServeFuzzTest, RandomStreamsHoldEveryInvariant) {
  const std::vector<std::string> policies = {"fairshare", "fcfs",
                                             "roundrobin", "random"};
  for (std::uint64_t seed = 0; seed < 24; ++seed) {
    const FuzzTrace trace = make_fuzz_trace(seed);
    run_and_check(trace, policies[seed % policies.size()], seed);
  }
}

TEST(ServeFuzzTest, AllArrivalsSimultaneous) {
  FuzzTrace trace;
  trace.machines = {2, 1, 1};
  for (std::uint32_t i = 0; i < 200; ++i) {
    trace.events.push_back(JobEvent{0, static_cast<OrgId>(i % 3), 1});
  }
  std::ostringstream out;
  serve::write_trace_header(out, trace.machines);
  for (const JobEvent& event : trace.events) {
    serve::write_job_line(out, event);
  }
  trace.text = out.str();
  const ServeReport report = run_and_check(trace, "fairshare", 1);
  // 200 unit jobs at t=0 on 4 machines: the backlog is the whole stream.
  EXPECT_EQ(report.peak_resident_jobs, 200u);
  EXPECT_EQ(report.final_time, 50);
}

TEST(ServeFuzzTest, SingleOrgSingleMachine) {
  FuzzTrace trace;
  trace.machines = {1};
  Time t = 0;
  for (std::uint32_t i = 0; i < 100; ++i) {
    trace.events.push_back(JobEvent{t, 0, 1 + (i % 7)});
    t += (i % 3);
  }
  std::ostringstream out;
  serve::write_trace_header(out, trace.machines);
  for (const JobEvent& event : trace.events) {
    serve::write_job_line(out, event);
  }
  trace.text = out.str();
  const ServeReport report = run_and_check(trace, "fcfs", 2);
  EXPECT_EQ(report.peak_resident_orgs, 1u);
}

// Same-time bursts reach the session as one release notification per
// organization; each organization still counts as resident once, and
// leaves when its last job completes.
TEST(ServeFuzzTest, MultiJobBurstsCountEachOrgResidentOnce) {
  FuzzTrace trace;
  trace.machines = {1, 1};
  for (int i = 0; i < 3; ++i) trace.events.push_back(JobEvent{0, 0, 1});
  for (int i = 0; i < 2; ++i) trace.events.push_back(JobEvent{0, 1, 1});
  // Org 0 drains by t=3 and comes back with another burst.
  for (int i = 0; i < 2; ++i) trace.events.push_back(JobEvent{10, 0, 1});
  std::ostringstream out;
  serve::write_trace_header(out, trace.machines);
  for (const JobEvent& event : trace.events) {
    serve::write_job_line(out, event);
  }
  trace.text = out.str();
  for (const std::string policy : {"fcfs", "fairshare"}) {
    const ServeReport report = run_and_check(trace, policy, 3);
    EXPECT_EQ(report.peak_resident_orgs, 2u) << policy;
    EXPECT_EQ(report.peak_resident_jobs, 5u) << policy;
  }

  // After the drain no organization is resident.
  std::istringstream in(trace.text);
  TraceEventSource source(in, "burst");
  std::ostringstream stats;
  ServeOptions options;
  options.stats = &stats;
  ServeSession session(source.machines(),
                       PolicyRegistry::global().make_policy("fcfs", 3),
                       options);
  session.run(source);
  EXPECT_NE(stats.str().find(" resident-orgs=0 "), std::string::npos)
      << stats.str();
}

TEST(ServeFuzzTest, LiveInstanceMatchesBuilderFieldForField) {
  for (std::uint64_t seed = 100; seed < 112; ++seed) {
    const FuzzTrace trace = make_fuzz_trace(seed);
    serve::LiveInstance live(trace.machines);
    InstanceBuilder builder;
    for (std::size_t u = 0; u < trace.machines.size(); ++u) {
      builder.add_org("org" + std::to_string(u), trace.machines[u]);
    }
    for (const JobEvent& event : trace.events) {
      live.append_job(event.org, event.time, event.processing);
      builder.add_job(event.org, event.time, event.processing);
    }
    const Instance built = std::move(builder).build();
    const Instance& grown = live.instance();
    ASSERT_EQ(grown.num_orgs(), built.num_orgs());
    ASSERT_EQ(grown.num_jobs(), built.num_jobs());
    EXPECT_EQ(grown.total_work(), built.total_work());
    EXPECT_EQ(grown.last_release(), built.last_release());
    EXPECT_EQ(grown.total_machines(), built.total_machines());
    for (OrgId u = 0; u < built.num_orgs(); ++u) {
      ASSERT_EQ(grown.jobs_of(u).size(), built.jobs_of(u).size());
      EXPECT_EQ(grown.machines_of(u), built.machines_of(u));
      for (std::size_t j = 0; j < built.jobs_of(u).size(); ++j) {
        const Job& a = grown.jobs_of(u)[j];
        const Job& b = built.jobs_of(u)[j];
        ASSERT_EQ(a.org, b.org);
        ASSERT_EQ(a.index, b.index);
        ASSERT_EQ(a.release, b.release);
        ASSERT_EQ(a.processing, b.processing);
      }
    }
  }
}

}  // namespace
}  // namespace fairsched
