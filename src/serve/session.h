#pragma once

// ServeSession: the long-running online scheduler loop.
//
// A session keeps org/job state resident in one external-releases Engine
// (sim/engine.h) over a LiveInstance, consumes job arrivals from an
// EventSource, and makes scheduling decisions incrementally under any
// policy-shaped registry policy. The loop is the event-driven mirror of
// Engine::run:
//
//   loop:
//     td = engine.next_decision_time()            (over injected events)
//     while source's next arrival is at <= td:    (it could move td earlier)
//        append to the live instance + inject_release; recompute td
//     if td >= horizon (or everything drained): stop
//     advance_to(td); while needs_decision(): select + start_front
//
// --- The differential replay contract --------------------------------------
//
// Feeding a trace through this loop produces a decision stream (one
// format_decision_line per start, in decision order) BYTE-IDENTICAL to
// running the batch engine over the Instance built from the same trace
// with the same policy and seed (replay_batch below). The argument: the
// inject loop only stops once every arrival at or before the next decision
// time is pending, so each wake-up time equals the batch run's
// next_decision_time; the release and completion heaps pop in a total
// order (sim/engine.h), so injection order cannot reorder releases, and
// the completion heap sees the identical push/pop sequence (pushes come
// from the identical decisions), so advance_to applies the same events in
// the same order; hence every select() sees the identical view and the
// streams match. Enforced for every in-tree policy by
// tests/test_serve_replay.cc and the CI serve job. Corollaries: the
// decision stream is independent of the stats interval, and a crashed
// session recovers exactly by replaying its recorded event log.
//
// --- Observability ---------------------------------------------------------
//
// Each decision's latency (select + start + notify) is recorded into a
// LatencyHistogram (util/latency_histogram.h) through an injectable
// nanosecond clock — tests substitute a deterministic fake so the stats
// JSON is golden-testable. Periodic `serve-stats:` lines report resident
// counts and latency percentiles without perturbing decisions; the final
// ServeReport serializes to a BENCH_serve.json-compatible JSON document
// (write_report_json) gated in CI by scripts/compare_bench.py.

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/types.h"
#include "serve/event_source.h"
#include "serve/live_instance.h"
#include "sim/engine.h"
#include "sim/policy.h"
#include "util/latency_histogram.h"

namespace fairsched::serve {

struct ServeOptions {
  // Stop making decisions at this time, like Engine::run's horizon;
  // 0 = run until the source and every pending event drain.
  Time horizon = 0;
  // Arrivals between periodic `serve-stats:` lines; 0 = none. Pure
  // output — the decision stream is identical at any interval.
  std::uint64_t stats_interval = 0;
  std::ostream* stats = nullptr;         // periodic stats lines
  std::ostream* decisions = nullptr;     // decision stream sink
  std::ostream* record_trace = nullptr;  // echo consumed events as a trace
  // Nanosecond clock for latency/throughput measurement; default
  // steady_clock. Tests inject a deterministic fake.
  std::function<std::uint64_t()> clock_ns;
  // The engine the policy runs on: its registry entry's EngineOptions,
  // seeded with the run's seed (DIRECTCONTR's random machine pick). The
  // session adds external_releases itself.
  EngineOptions engine;
};

struct ServeReport {
  std::uint32_t orgs = 0;
  std::uint32_t machines = 0;
  std::uint64_t arrivals = 0;       // source events consumed
  std::uint64_t engine_events = 0;  // releases admitted + completions
  std::uint64_t decisions = 0;
  std::uint64_t completions = 0;
  std::uint32_t peak_resident_jobs = 0;  // max waiting + running
  std::uint32_t peak_resident_orgs = 0;  // max orgs with pending work
  Time final_time = 0;
  std::uint64_t stats_lines = 0;
  std::uint64_t elapsed_ns = 0;
  LatencyHistogram decision_latency;  // ns per decision; total == decisions
};

// One decision as a protocol line: "decision <time> <org> <index>
// <machine>\n". The one formatter both serve and batch replay use — byte
// equality of their streams is the replay contract.
std::string format_decision_line(Time time, OrgId org, std::uint32_t index,
                                 MachineId machine);

class ServeSession {
 public:
  // The platform is frozen from `machines`; `policy` makes every decision.
  ServeSession(const std::vector<std::uint32_t>& machines,
               std::unique_ptr<Policy> policy, ServeOptions options);
  ~ServeSession();

  // Consumes `source` to completion (or to options.horizon). One call per
  // session.
  void run(EventSource& source);

  const ServeReport& report() const { return report_; }
  const Engine& engine() const { return *engine_; }

 private:
  class StatsListener;  // forwards notifications to the policy + counters

  void emit_stats_line();

  ServeOptions options_;
  LiveInstance live_;
  std::unique_ptr<Policy> policy_;
  std::unique_ptr<StatsListener> listener_;
  std::unique_ptr<Engine> engine_;
  ServeReport report_;
  bool ran_ = false;
};

// The batch half of the differential contract: runs `policy` over a fully
// materialized instance through Engine::run and writes the decision stream
// (if `decisions` is non-null) in the same line format. `horizon` <= 0
// picks the drain bound last_release + total_work + 1, past every possible
// decision. `engine_options` must match the serve run's
// ServeOptions::engine for the streams to compare. Returns the number of
// decisions.
std::uint64_t replay_batch(const Instance& inst, Policy& policy,
                           Time horizon, std::ostream* decisions,
                           const EngineOptions& engine_options = {});

// Builds the Instance a trace denotes (same platform, all jobs), for
// replay_batch. Consumes the source.
Instance materialize_trace(EventSource& source);

// Serializes `report` as the stable BENCH_serve.json schema (sorted,
// deterministic given the report; tests/golden/serve_stats.json pins it).
void write_report_json(std::ostream& out, const ServeReport& report,
                       const std::string& policy, const std::string& source);

}  // namespace fairsched::serve
