// serve: one op is one scheduling decision of a ServeSession under the
// fairshare policy, over 10^5 single-machine organizations and 10^6
// synthetic arrivals at rate 600. Set-up generates the arrivals into
// memory; every session replays them through the benchmark's own
// EventSource, so the timed loop does no generation work.
//
// trace_serve_layer runs the same traced sessions at a tenth of the size
// (10^4 organizations, 10^5 arrivals, the same load per machine) inside a
// sweep workload's traced run.

#include <algorithm>
#include <cstdio>
#include <exception>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench.h"
#include "exp/policy_registry.h"
#include "layers.h"
#include "serve/event_source.h"
#include "serve/session.h"
#include "util/latency_histogram.h"
#include "util/rng.h"

namespace perfbench {

namespace {

using fairsched::LatencyHistogram;
using fairsched::serve::EventSource;
using fairsched::serve::JobEvent;
using fairsched::serve::ServeReport;

// The input of a serve session.
struct ServeShape {
  std::uint32_t orgs;
  std::uint64_t arrivals;
  double arrival_rate;
  std::uint64_t warmup_arrivals;
};

constexpr ServeShape kWorkloadShape{100000, 1000000, 600.0, 100000};
constexpr ServeShape kProbeShape{10000, 100000, 60.0, 10000};
// Prefix replayed through the batch engine for the decision-stream check.
constexpr std::uint64_t kDigestArrivals = 20000;
constexpr std::size_t kMinSessions = 3;
// Untraced/traced session pairs of the traced run.
constexpr std::size_t kTracedPairs = 2;
constexpr double kMaxTimedSeconds = 120.0;
const char* const kPolicy = "fairshare";

struct Arrivals {
  std::vector<std::uint32_t> machines;
  std::vector<JobEvent> events;
};

Arrivals generate_arrivals(std::uint64_t seed, const ServeShape& shape) {
  fairsched::serve::SyntheticServeSpec spec;
  spec.orgs = shape.orgs;
  spec.machines_per_org = 1;
  spec.events = shape.arrivals;
  spec.arrival_rate = shape.arrival_rate;
  spec.seed = seed;
  fairsched::serve::SyntheticEventSource source(spec);
  Arrivals arrivals;
  arrivals.machines = source.machines();
  arrivals.events.reserve(shape.arrivals);
  while (std::optional<JobEvent> event = source.next()) {
    arrivals.events.push_back(*event);
  }
  return arrivals;
}

// Replays the first `limit` pre-generated arrivals.
class MemorySource final : public EventSource {
 public:
  MemorySource(const Arrivals& arrivals, std::uint64_t limit)
      : arrivals_(arrivals),
        limit_(std::min<std::uint64_t>(limit, arrivals.events.size())) {}

  const std::vector<std::uint32_t>& machines() const override {
    return arrivals_.machines;
  }
  std::optional<JobEvent> next() override {
    if (next_ == limit_) return std::nullopt;
    return arrivals_.events[next_++];
  }

 private:
  const Arrivals& arrivals_;
  std::uint64_t limit_;
  std::uint64_t next_ = 0;
};

// Counts every pull from the wrapped source, timing a sample of them.
class TracedSource final : public EventSource {
 public:
  explicit TracedSource(EventSource& inner) : inner_(inner) {}

  const std::vector<std::uint32_t>& machines() const override {
    return inner_.machines();
  }
  std::optional<JobEvent> next() override {
    if (!pulls.due()) return inner_.next();
    const std::uint64_t t0 = ticks();
    std::optional<JobEvent> event = inner_.next();
    pulls.add(ticks() - t0);
    return event;
  }

  SampledSpan pulls;

 private:
  EventSource& inner_;
};

std::unique_ptr<fairsched::Policy> make_policy() {
  return fairsched::exp::PolicyRegistry::global().make_policy(kPolicy);
}

struct Session {
  ServeReport report;
  double ms = 0.0;
  std::string error;  // "" = passed
};

std::string check_session(const ServeReport& report, std::uint64_t limit) {
  if (report.arrivals != limit || report.decisions != limit ||
      report.completions != limit) {
    return "decisions, arrivals and completions differ from the input";
  }
  return "";
}

// One session over the first `limit` arrivals; `policy` and `source` may
// be decorated by the caller.
Session run_session(std::unique_ptr<fairsched::Policy> policy,
                    EventSource& source, std::uint64_t limit,
                    std::ostream* decisions = nullptr) {
  Session session;
  try {
    fairsched::serve::ServeOptions serve_options;
    serve_options.decisions = decisions;
    fairsched::serve::ServeSession serve(source.machines(), std::move(policy),
                                         serve_options);
    const auto t0 = Clock::now();
    serve.run(source);
    session.ms = ms_since(t0);
    session.report = serve.report();
    session.error = check_session(session.report, limit);
  } catch (const std::exception& e) {
    session.error = e.what();
  }
  return session;
}

// Counts a session's decisions as ops, all failed if the session failed.
void account(Result& result, const Session& session, std::uint64_t limit) {
  result.attempted += limit;
  if (!session.error.empty()) {
    result.fail_op("session: " + session.error, limit);
  }
}

// Set-up: the arrivals of `seed`, then one warm-up session.
Arrivals set_up(std::uint64_t seed, const ServeShape& shape) {
  Arrivals arrivals = generate_arrivals(seed, shape);
  MemorySource warmup(arrivals, shape.warmup_arrivals);
  const Session session =
      run_session(make_policy(), warmup, shape.warmup_arrivals);
  if (!session.error.empty()) {
    throw std::runtime_error("warm-up session failed: " + session.error);
  }
  return arrivals;
}

// The replay contract on a prefix: the served decision stream equals the
// batch engine's on the same events. Marks `result` incorrect otherwise.
void check_replay(const Arrivals& arrivals, Result& result) {
  MemorySource served_source(arrivals, kDigestArrivals);
  std::ostringstream served;
  const Session session =
      run_session(make_policy(), served_source, kDigestArrivals, &served);
  std::string error = session.error;
  if (error.empty()) {
    MemorySource batch_source(arrivals, kDigestArrivals);
    const fairsched::Instance inst =
        fairsched::serve::materialize_trace(batch_source);
    std::ostringstream batch;
    const std::unique_ptr<fairsched::Policy> policy = make_policy();
    fairsched::serve::replay_batch(inst, *policy, 0, &batch);
    if (fairsched::hash_fnv1a64(served.str()) !=
        fairsched::hash_fnv1a64(batch.str())) {
      error = "served decision stream differs from replay_batch";
    }
  }
  if (!error.empty()) {
    result.correct = false;
    result.note("replay check failed: " + error);
  }
}

// The traced run: untraced and traced sessions over every arrival,
// interleaved, then the replay check. Returns the serve-layer metrics and
// the sched metrics of the session's policy.
std::map<std::string, double> trace_sessions(const Arrivals& arrivals,
                                             Result& result, SpanLog& spans) {
  const std::uint64_t limit = arrivals.events.size();
  const TickRate tick_rate;
  PolicyCalls calls;
  double source_ticks = 0.0;
  double untraced_ms = 0.0;
  double traced_ms = 0.0;
  ServeReport last;
  for (std::size_t k = 0; k < kTracedPairs; ++k) {
    auto traced_session = [&] {
      MemorySource memory(arrivals, limit);
      TracedSource source(memory);
      const auto t0 = Clock::now();
      const Session session = run_session(
          std::make_unique<TracedPolicy>(make_policy(), calls), source,
          limit);
      spans.add(k, "serve.session", "", t0, Clock::now());
      account(result, session, limit);
      traced_ms += session.ms;
      source_ticks += source.pulls.total_ticks();
      last = session.report;
    };
    if (k % 2 == 1) traced_session();
    MemorySource source(arrivals, limit);
    const Session plain = run_session(make_policy(), source, limit);
    account(result, plain, limit);
    untraced_ms += plain.ms;
    if (k % 2 == 0) traced_session();
  }
  check_replay(arrivals, result);

  const double ns_per_tick = tick_rate.ns_per_tick();
  const double decisions =
      static_cast<double>(kTracedPairs) * static_cast<double>(limit);
  const double n = static_cast<double>(kTracedPairs);
  std::map<std::string, double> m;
  m["sched.decisions"] = static_cast<double>(calls.select.calls) / n;
  m["sched.select_ns_p50"] =
      static_cast<double>(calls.select_hist.p50()) * ns_per_tick;
  m["sched.select_ns_p99"] =
      static_cast<double>(calls.select_hist.p99()) * ns_per_tick;
  m["serve.source_ns"] = source_ticks * ns_per_tick / decisions;
  m["serve.select_ns"] = calls.select.total_ticks() * ns_per_tick / decisions;
  m["serve.notify_ns"] = calls.notify.total_ticks() * ns_per_tick / decisions;
  m["serve.self_ns"] = traced_ms * 1e6 / decisions - m["serve.source_ns"] -
                       m["serve.select_ns"] - m["serve.notify_ns"];
  m["serve.engine_events"] = static_cast<double>(last.engine_events);
  m["serve.peak_resident_jobs"] = static_cast<double>(last.peak_resident_jobs);
  m["serve.peak_resident_orgs"] = static_cast<double>(last.peak_resident_orgs);
  m["trace.overhead"] = traced_ms / untraced_ms - 1.0;
  m["trace.layer_sum_share"] = traced_ms / untraced_ms;
  char line[256];
  std::snprintf(line, sizeof(line),
                "serve traced: %zu session pairs of %llu decisions over %zu "
                "orgs, untraced %.1f ns/decision, traced %.1f ns/decision",
                kTracedPairs, static_cast<unsigned long long>(limit),
                arrivals.machines.size(), untraced_ms * 1e6 / decisions,
                traced_ms * 1e6 / decisions);
  result.note(line);
  return m;
}

}  // namespace

Result run_serve_workload(const Options& options) {
  Result result;

  // --- set-up: generate the arrivals and warm up, repeated.
  std::vector<double> setup_s;
  Arrivals arrivals;
  for (std::size_t r = 0; r < kSetupRepeats; ++r) {
    const auto t0 = Clock::now();
    arrivals = set_up(op_seed(options.seed, 0), kWorkloadShape);
    setup_s.push_back(ms_since(t0) / 1000.0);
  }

  if (options.trace) {
    SpanLog spans;
    add_per_layer(result, trace_sessions(arrivals, result, spans));
    const std::string path = options.out_dir + "/trace-serve.jsonl";
    if (!spans.write(path)) result.note("could not write " + path);
    return result;
  }

  const std::uint64_t limit = arrivals.events.size();
  LatencyHistogram latency;
  std::vector<Batch> sessions;
  const auto start = Clock::now();
  while (sessions.size() < kMinSessions ||
         ms_since(start) / 1000.0 < options.seconds) {
    if (ms_since(start) / 1000.0 >= kMaxTimedSeconds) break;
    MemorySource source(arrivals, limit);
    reset_peak_rss();
    const Session session = run_session(make_policy(), source, limit);
    account(result, session, limit);
    latency.merge(session.report.decision_latency);
    sessions.push_back({session.report.decisions, session.ms, peak_rss_mb()});
  }
  check_replay(arrivals, result);
  const std::size_t samples = latency.total_count();
  add_end_to_end(result, sessions, static_cast<double>(latency.p50()) / 1e6,
                 static_cast<double>(latency.value_at_quantile(0.90)) / 1e6,
                 samples, setup_s);
  add_p99_note(result, static_cast<double>(latency.p99()) / 1e6, samples);
  char line[128];
  std::snprintf(line, sizeof(line), "%zu sessions of %llu decisions",
                sessions.size(), static_cast<unsigned long long>(limit));
  result.note(line);
  return result;
}

std::map<std::string, double> trace_serve_layer(const Options& options,
                                                Result& result,
                                                SpanLog& spans) {
  const Arrivals arrivals = set_up(op_seed(options.seed, 0), kProbeShape);
  std::map<std::string, double> m = trace_sessions(arrivals, result, spans);
  std::erase_if(m, [](const auto& metric) {
    return !metric.first.starts_with("serve.");
  });
  return m;
}

}  // namespace perfbench
