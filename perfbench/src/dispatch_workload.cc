// dispatch: one op is one shard attempt (WorkerTransport::run_shard) over
// two warm local PersistentTransport sessions of one worker thread each.
// A round is a `custom` smallrandom sweep (fcfs, fairshare, roundrobin;
// horizon 60; 64 instances -> 64 shards) with a fresh seed, so no shard is
// served from an earlier round's session cache. The sessions outlive the
// rounds: each round's Dispatcher owns only non-owning decorators.
//
// trace_dist_layer runs the same traced rounds, fewer of them, inside a
// sweep workload's traced run.

#include <pthread.h>
#include <sched.h>

#include <algorithm>
#include <bit>
#include <cstdio>
#include <exception>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench.h"
#include "dist/dispatcher.h"
#include "dist/protocol.h"
#include "dist/transport.h"
#include "exp/scenarios.h"
#include "exp/sweep.h"
#include "exp/sweep_artifact.h"
#include "exp/sweep_plan.h"
#include "util/cli.h"
#include "util/latency_histogram.h"

namespace perfbench {

namespace {

using fairsched::dist::DispatchRequest;
using fairsched::dist::PersistentTransport;
using fairsched::dist::WorkerTransport;
using fairsched::exp::SweepCell;

constexpr std::size_t kShards = 64;
constexpr std::size_t kWorkers = 2;
constexpr std::size_t kWarmupRounds = 6;
// Enough attempts for ten samples beyond p90 and p99.
constexpr std::size_t kMinRounds = 20;
// Untraced/traced round pairs of the traced run, and of the reduced one a
// sweep workload runs: 16 pairs hold 1024 traced attempts, ten beyond p99.
constexpr std::size_t kTracedPairs = 60;
constexpr std::size_t kProbePairs = 16;
constexpr std::size_t kProbeWarmupRounds = 2;
constexpr double kMaxTimedSeconds = 120.0;

struct Round {
  fairsched::exp::SweepSpec spec;
  fairsched::exp::SweepPlan plan;
  DispatchRequest request;
};

// Builds the round's sweep exactly as a shard-worker rebuilds it from the
// request's argv, so the plan fingerprints agree. The sweep seed is a
// flag value, parsed as a signed 64-bit integer: keep it non-negative.
Round make_round(std::uint64_t op) {
  const std::uint64_t seed = op >> 1;
  const std::vector<std::string> args = {
      "custom", "--policies=fcfs,fairshare,roundrobin",
      "--workload=smallrandom", "--duration=60",
      "--instances=" + std::to_string(kShards),
      "--seed=" + std::to_string(seed)};
  std::vector<const char*> argv;
  for (const std::string& arg : args) argv.push_back(arg.c_str());
  const fairsched::Flags flags(static_cast<int>(argv.size()), argv.data());
  Round round;
  round.spec = fairsched::exp::make_scenario_sweep(
      args[0], fairsched::exp::scenario_options_from_flags(flags));
  round.spec.threads = 1;
  round.plan = fairsched::exp::build_sweep_plan(round.spec);
  round.request.fingerprint = round.plan.fingerprint;
  round.request.threads = 1;
  round.request.args = args;
  return round;
}

// What one lane (one worker thread of the dispatcher) saw in a round.
struct Lane {
  std::vector<double> attempt_ms;
  std::vector<std::pair<Clock::time_point, Clock::time_point>> spans;
  double worker_ms = 0.0;  // the worker's own execution time
  double probe_ms = 0.0;   // benchmark-side parsing and byte counting
  std::uint64_t request_bytes = 0;
  std::uint64_t artifact_bytes = 0;
};

// Pins the calling thread to `cpu`, once per thread.
void pin_this_thread(int cpu) {
  thread_local int pinned = -1;
  if (pinned == cpu) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  if (pthread_setaffinity_np(pthread_self(), sizeof(set), &set) == 0) {
    pinned = cpu;
  }
}

// Forwards to a session that outlives the dispatcher, timing each
// attempt. Traced lanes also count the frame bytes and read the worker's
// execution time from the artifact.
//
// Each lane runs on its own CPU, and so does its session worker, which is
// spawned from the lane's thread and inherits its CPU mask. A lane and
// its worker then wake each other on one CPU. Left to the host's
// scheduler, a run either co-located them or not, and throughput split
// into two modes 3x apart from run to run.
class BorrowedTransport final : public WorkerTransport {
 public:
  BorrowedTransport(WorkerTransport& inner, int cpu, Lane& lane, bool traced)
      : inner_(inner), cpu_(cpu), lane_(lane), traced_(traced) {}

  const std::string& name() const override { return inner_.name(); }
  void cancel_inflight() override { inner_.cancel_inflight(); }
  std::string summary() const override { return inner_.summary(); }

  Outcome run_shard(const DispatchRequest& request,
                    std::chrono::milliseconds timeout) override {
    pin_this_thread(cpu_);
    const auto t0 = Clock::now();
    Outcome outcome = inner_.run_shard(request, timeout);
    const auto t1 = Clock::now();
    lane_.attempt_ms.push_back(ms_between(t0, t1));
    if (!traced_) return outcome;
    lane_.spans.emplace_back(t0, t1);
    std::ostringstream frame;
    fairsched::dist::write_dispatch_request(frame, request);
    lane_.request_bytes += frame.str().size();
    lane_.artifact_bytes += outcome.payload.size();
    if (outcome.status == Outcome::Status::kArtifact) {
      lane_.worker_ms += fairsched::exp::parse_shard_artifact(
                             outcome.payload, "perfbench")
                             .result.elapsed_ms;
    }
    lane_.probe_ms += ms_since(t1);
    return outcome;
  }

 private:
  WorkerTransport& inner_;
  int cpu_;
  Lane& lane_;
  bool traced_;
};

struct Sessions {
  std::vector<std::unique_ptr<PersistentTransport>> workers;
  std::vector<int> cpus;  // per lane, starting at the caller's CPU

  explicit Sessions(const std::string& program) {
    // Lanes take consecutive CPUs of the allowed set, from the current one.
    std::vector<int> allowed;
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) == 0) {
      for (int c = 0; c < CPU_SETSIZE; ++c) {
        if (CPU_ISSET(c, &set)) allowed.push_back(c);
      }
    }
    if (allowed.empty()) allowed.push_back(0);
    const auto here =
        std::find(allowed.begin(), allowed.end(), sched_getcpu());
    const std::size_t first =
        here == allowed.end()
            ? 0
            : static_cast<std::size_t>(here - allowed.begin());
    for (std::size_t w = 0; w < kWorkers; ++w) {
      cpus.push_back(allowed[(first + w) % allowed.size()]);
      workers.push_back(std::make_unique<PersistentTransport>(
          "local#" + std::to_string(w),
          std::vector<std::string>{program, "shard-worker", "--session"},
          std::vector<std::string>{program, "shard-worker"}));
    }
  }
  PersistentTransport::SessionStats totals() const {
    PersistentTransport::SessionStats sum;
    for (const auto& worker : workers) {
      const PersistentTransport::SessionStats s = worker->session_stats();
      sum.opens += s.opens;
      sum.cache_hits += s.cache_hits;
      sum.cache_misses += s.cache_misses;
      sum.replayed += s.replayed;
    }
    return sum;
  }
};

struct RoundOutcome {
  double ms = 0.0;  // Dispatcher::run
  std::size_t attempts = 0;
  std::size_t failed_attempts = 0;
  std::vector<Lane> lanes;
  std::vector<SweepCell> cells;
  std::string error;  // "" = passed
};

RoundOutcome run_round(Sessions& sessions, std::uint64_t seed, bool traced,
                       const std::string& artifact_dir) {
  RoundOutcome outcome;
  outcome.lanes.resize(kWorkers);
  try {
    const Round round = make_round(seed);
    std::vector<std::unique_ptr<WorkerTransport>> borrowed;
    for (std::size_t w = 0; w < kWorkers; ++w) {
      borrowed.push_back(std::make_unique<BorrowedTransport>(
          *sessions.workers[w], sessions.cpus[w], outcome.lanes[w], traced));
    }
    fairsched::dist::DispatchOptions dispatch_options;
    dispatch_options.shard_count = kShards;
    dispatch_options.shard_timeout = std::chrono::milliseconds(30000);
    dispatch_options.artifact_dir = artifact_dir;
    fairsched::dist::Dispatcher dispatcher(std::move(borrowed),
                                           dispatch_options);
    const auto t0 = Clock::now();
    fairsched::exp::MergedSweep merged =
        dispatcher.run(round.plan, round.request);
    outcome.ms = ms_since(t0);
    outcome.attempts = dispatcher.stats().attempts;
    outcome.failed_attempts = dispatcher.stats().failed_attempts;
    outcome.cells = std::move(merged.result.cells);
    if (outcome.attempts != kShards || outcome.failed_attempts != 0) {
      outcome.error = "attempts != shards or a failed attempt";
    }
  } catch (const std::exception& e) {
    outcome.error = e.what();
  }
  return outcome;
}

// Digest of the exact accumulator states and work of every cell, so a
// round's result is kept as 8 bytes until it is verified.
std::uint64_t cells_digest(const std::vector<SweepCell>& cells) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  auto mix = [&h](std::uint64_t word) {
    for (int b = 0; b < 8; ++b) {
      h = (h ^ ((word >> (8 * b)) & 0xff)) * 0x100000001b3ull;
    }
  };
  for (const SweepCell& cell : cells) {
    for (const fairsched::StatsAccumulator* acc :
         {&cell.unfairness, &cell.rel_distance, &cell.utilization}) {
      const fairsched::StatsAccumulator::State state = acc->state();
      mix(state.count);
      for (double v : {state.mean, state.m2, state.min, state.max, state.sum}) {
        mix(std::bit_cast<std::uint64_t>(v));
      }
    }
    mix(static_cast<std::uint64_t>(cell.work_done));
  }
  return h;
}

// The merged cells of a round must equal an in-process run bit for bit.
std::string check_cells(std::uint64_t seed, std::uint64_t merged_digest) {
  const Round round = make_round(seed);
  const fairsched::exp::SweepResult local =
      fairsched::exp::SweepDriver().run(round.spec);
  if (cells_digest(local.cells) != merged_digest) {
    return "merged cells differ from an in-process SweepDriver::run";
  }
  return "";
}

// Rounds to verify against in-process runs once the clock has stopped.
class RoundChecks {
 public:
  explicit RoundChecks(Result& result) : result_(result) {}

  // Counts the round's shard attempts as ops: all failed when the round
  // failed, else pending until verify().
  void account(std::uint64_t seed, const RoundOutcome& round) {
    result_.attempted += kShards;
    if (!round.error.empty()) {
      result_.fail_op("round: " + round.error, kShards);
      return;
    }
    to_check_.emplace_back(seed, cells_digest(round.cells));
  }
  void verify() {
    for (const auto& [seed, digest] : to_check_) {
      const std::string error = check_cells(seed, digest);
      if (!error.empty()) result_.fail_op("round: " + error, kShards);
    }
    to_check_.clear();
  }

 private:
  Result& result_;
  std::vector<std::pair<std::uint64_t, std::uint64_t>> to_check_;
};

// Spawns both sessions and warms them up with fixed-seed rounds.
std::unique_ptr<Sessions> set_up(const Options& options, std::size_t rounds,
                                 const std::string& artifact_dir) {
  if (options.worker_bin.empty()) {
    throw std::invalid_argument("dispatch needs --worker-bin");
  }
  auto sessions = std::make_unique<Sessions>(options.worker_bin);
  for (std::size_t i = 0; i < rounds; ++i) {
    const RoundOutcome round =
        run_round(*sessions, warmup_seed(i), false, artifact_dir);
    if (!round.error.empty()) {
      throw std::runtime_error("warm-up round failed: " + round.error);
    }
  }
  return sessions;
}

// The traced run: untraced and traced rounds interleaved (fresh seeds, so
// neither side is served from the other's session cache). Returns the
// dist metrics and the sessions' exp cache metrics; the caller closes the
// sessions and verifies the rounds.
std::map<std::string, double> trace_rounds(Sessions& sessions,
                                           const Options& options,
                                           std::size_t pairs,
                                           const std::string& artifact_dir,
                                           RoundChecks& checks, Result& result,
                                           SpanLog& spans) {
  const PersistentTransport::SessionStats before = sessions.totals();
  double untraced_ms = 0.0;
  std::size_t untraced_attempts = 0;
  double traced_ms = 0.0;
  std::size_t traced_attempts = 0;
  std::size_t traced_failed = 0;
  std::vector<double> shard_ms;
  double worker_ms = 0.0;
  double probe_ms = 0.0;
  std::uint64_t request_bytes = 0;
  std::uint64_t artifact_bytes = 0;
  for (std::size_t k = 0; k < pairs; ++k) {
    const std::size_t index = kWarmupRounds + 2 * k;
    auto traced_round = [&] {
      const std::uint64_t seed = op_seed(options.seed, index + 1);
      const auto t0 = Clock::now();
      RoundOutcome round = run_round(sessions, seed, true, artifact_dir);
      spans.add(k, "dist.round", "", t0, Clock::now());
      traced_ms += round.ms;
      traced_attempts += round.attempts;
      traced_failed += round.failed_attempts;
      for (const Lane& lane : round.lanes) {
        shard_ms.insert(shard_ms.end(), lane.attempt_ms.begin(),
                        lane.attempt_ms.end());
        worker_ms += lane.worker_ms;
        probe_ms += lane.probe_ms;
        request_bytes += lane.request_bytes;
        artifact_bytes += lane.artifact_bytes;
        for (const auto& [a, b] : lane.spans) {
          spans.add(k, "dist.attempt", "dist.round", a, b);
        }
      }
      checks.account(seed, round);
    };
    if (k % 2 == 1) traced_round();
    const std::uint64_t seed = op_seed(options.seed, index);
    RoundOutcome plain = run_round(sessions, seed, false, artifact_dir);
    untraced_ms += plain.ms;
    untraced_attempts += plain.attempts;
    checks.account(seed, plain);
    if (k % 2 == 0) traced_round();
  }
  const PersistentTransport::SessionStats after = sessions.totals();

  const double attempts = static_cast<double>(traced_attempts);
  const double rounds = static_cast<double>(pairs);
  // Lane time: each of the kWorkers dispatcher threads is busy with an
  // attempt, or in the dispatcher itself (claiming, validating, writing
  // artifacts, merging) for the whole round.
  const double lane_ms = static_cast<double>(kWorkers) * traced_ms;
  double busy_ms = 0.0;
  for (double ms : shard_ms) busy_ms += ms;
  const double hits = static_cast<double>(after.cache_hits - before.cache_hits);
  const double misses =
      static_cast<double>(after.cache_misses - before.cache_misses);
  std::map<std::string, double> m;
  std::vector<double> sorted = shard_ms;
  m["dist.shard_ms_p50"] = percentile(sorted, 0.50);
  m["dist.shard_ms_p99"] = percentile(sorted, 0.99);
  m["dist.worker_ms"] = worker_ms / attempts;
  m["dist.transport_ms"] = (busy_ms - worker_ms) / attempts;
  m["dist.dispatch_self_ms"] = (lane_ms - busy_ms - probe_ms) / attempts;
  m["dist.request_bytes"] = static_cast<double>(request_bytes) / attempts;
  m["dist.artifact_bytes"] = static_cast<double>(artifact_bytes) / attempts;
  m["dist.attempts"] = attempts / rounds;
  m["dist.failed_attempts"] = static_cast<double>(traced_failed) / rounds;
  m["dist.session_opens"] = static_cast<double>(after.opens - before.opens);
  m["exp.cache_hits"] = hits / attempts;
  m["exp.cache_misses"] = misses / attempts;
  m["exp.hit_rate"] = hits + misses > 0.0 ? hits / (hits + misses) : 0.0;
  m["exp.replayed_runs"] =
      static_cast<double>(after.replayed - before.replayed) / attempts;
  const double untraced_lane_ms_per_op =
      static_cast<double>(kWorkers) * untraced_ms /
      static_cast<double>(untraced_attempts);
  m["trace.overhead"] =
      (traced_ms / attempts) /
          (untraced_ms / static_cast<double>(untraced_attempts)) -
      1.0;
  m["trace.layer_sum_share"] =
      ((lane_ms - probe_ms) / attempts) / untraced_lane_ms_per_op;

  char line[256];
  std::snprintf(line, sizeof(line),
                "dispatch traced: %zu round pairs, untraced %.4f lane-ms/op, "
                "traced %.4f lane-ms/op (probes excluded)",
                pairs, untraced_lane_ms_per_op,
                (lane_ms - probe_ms) / attempts);
  result.note(line);
  return m;
}

}  // namespace

Result run_dispatch_workload(const Options& options) {
  Result result;
  const std::string artifact_dir = options.out_dir + "/dispatch-artifacts";

  // --- set-up: spawn both sessions and warm them up, repeated.
  std::vector<double> setup_s;
  std::unique_ptr<Sessions> sessions;
  for (std::size_t r = 0; r < kSetupRepeats; ++r) {
    sessions.reset();  // says goodbye to the previous sessions
    const auto t0 = Clock::now();
    sessions = set_up(options, kWarmupRounds, artifact_dir);
    setup_s.push_back(ms_since(t0) / 1000.0);
  }
  RoundChecks checks(result);

  if (options.trace) {
    SpanLog spans;
    const std::map<std::string, double> m = trace_rounds(
        *sessions, options, kTracedPairs, artifact_dir, checks, result, spans);
    sessions.reset();
    checks.verify();
    add_per_layer(result, m);
    const std::string path = options.out_dir + "/trace-dispatch.jsonl";
    if (!spans.write(path)) result.note("could not write " + path);
    return result;
  }

  // Attempt latencies go to a fixed-size histogram and rounds to one
  // (attempts, time) batch each, so memory does not grow with the
  // throughput of the run.
  fairsched::LatencyHistogram latency_ns;
  std::vector<Batch> batches;
  const auto start = Clock::now();
  for (std::size_t i = kWarmupRounds;; ++i) {
    const double elapsed = ms_since(start) / 1000.0;
    if ((elapsed >= options.seconds && batches.size() >= kMinRounds) ||
        elapsed >= kMaxTimedSeconds) {
      break;
    }
    const std::uint64_t seed = op_seed(options.seed, i);
    reset_peak_rss();
    const RoundOutcome round = run_round(*sessions, seed, false, artifact_dir);
    for (const Lane& lane : round.lanes) {
      for (double ms : lane.attempt_ms) {
        latency_ns.record(static_cast<std::uint64_t>(ms * 1e6));
      }
    }
    batches.push_back({round.attempts, round.ms, peak_rss_mb()});
    checks.account(seed, round);
  }
  const double worker_rss_mb = children_peak_rss_mb();
  sessions.reset();
  checks.verify();
  const std::size_t samples = latency_ns.total_count();
  add_end_to_end(result, batches, static_cast<double>(latency_ns.p50()) / 1e6,
                 static_cast<double>(latency_ns.value_at_quantile(0.90)) / 1e6,
                 samples, setup_s);
  add_p99_note(result, static_cast<double>(latency_ns.p99()) / 1e6, samples);
  char line[160];
  std::snprintf(line, sizeof(line),
                "%zu rounds of %zu shards; largest session worker peak RSS "
                "%.1f MB",
                batches.size(), kShards, worker_rss_mb);
  result.note(line);
  return result;
}

std::map<std::string, double> trace_dist_layer(const Options& options,
                                               Result& result,
                                               SpanLog& spans) {
  const std::string artifact_dir = options.out_dir + "/dispatch-artifacts";
  std::unique_ptr<Sessions> sessions =
      set_up(options, kProbeWarmupRounds, artifact_dir);
  RoundChecks checks(result);
  std::map<std::string, double> m = trace_rounds(
      *sessions, options, kProbePairs, artifact_dir, checks, result, spans);
  sessions.reset();
  checks.verify();
  std::erase_if(m, [](const auto& metric) {
    return !metric.first.starts_with("dist.");
  });
  return m;
}

}  // namespace perfbench
