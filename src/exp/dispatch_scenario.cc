// `fairsched_exp dispatch`, `--processes=N` and `fairsched_exp
// shard-worker` — the CLI shell over the distributed dispatcher (src/dist,
// docs/DISTRIBUTED.md).
//
// dispatch builds the sweep exactly like the single-host subcommand
// would, then hands the whole-run plan to dist::Dispatcher with one
// session transport per --workers/--hosts entry; --processes=N does the
// same with N local workers. The request each worker receives carries the
// original argv (minus orchestration/reporting/dispatch flags) so the
// worker rebuilds the identical spec; a --config file's bytes ride along
// in the request, so remote hosts need no shared filesystem. shard-worker
// is the other end of that protocol.

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include "dist/dispatcher.h"
#include "dist/protocol.h"
#include "dist/transport.h"
#include "exp/executor.h"
#include "exp/reporter.h"
#include "exp/scenarios.h"
#include "exp/sweep_artifact.h"
#include "exp/sweep_plan.h"
#include "exp/workload_cache.h"
#include "util/cli.h"

namespace fairsched::exp {

namespace {

// A scratch directory, removed with its contents on scope exit.
struct ScratchDir {
  std::filesystem::path dir;
  ~ScratchDir() {
    if (!dir.empty()) {
      std::error_code ec;
      std::filesystem::remove_all(dir, ec);
    }
  }
};

// One --workers/--hosts entry, parsed but not yet constructed: dry runs
// need the worker names without exec-able transports.
struct WorkerSpec {
  bool local = true;
  std::string host;  // ssh target when !local
  std::string name;  // display name ("local#0", "ssh:hostb#2")
};

void append_worker_entry(const std::string& entry, const std::string& where,
                         std::vector<WorkerSpec>& specs) {
  std::string base = entry;
  std::size_t count = 1;
  const std::size_t star = entry.rfind('*');
  if (star != std::string::npos) {
    base = trim_whitespace(entry.substr(0, star));
    const std::string multiplier = trim_whitespace(entry.substr(star + 1));
    try {
      std::size_t consumed = 0;
      count = std::stoul(multiplier, &consumed);
      if (consumed != multiplier.size() || count == 0) {
        throw std::invalid_argument(multiplier);
      }
    } catch (const std::exception&) {
      throw std::invalid_argument("worker entry '" + entry + "' (" + where +
                                  "): the *N multiplier must be a positive "
                                  "integer");
    }
  }
  for (std::size_t i = 0; i < count; ++i) {
    WorkerSpec spec;
    if (base == "local") {
      spec.local = true;
    } else if (base.rfind("ssh:", 0) == 0 && base.size() > 4) {
      spec.local = false;
      spec.host = base.substr(4);
    } else {
      throw std::invalid_argument(
          "worker entry '" + entry + "' (" + where +
          ") must be `local` or `ssh:HOST`, optionally with a *N "
          "multiplier");
    }
    specs.push_back(std::move(spec));
  }
}

// --workers entries first, then the --hosts file (one entry per line,
// `#` comments); defaults to local*2 when both are empty. Names get a
// global #index suffix so duplicated entries stay distinguishable in the
// dispatch log.
std::vector<WorkerSpec> parse_worker_specs(const ScenarioOptions& options) {
  std::vector<WorkerSpec> specs;
  for (const std::string& entry : split_and_trim(options.workers_spec, ',')) {
    append_worker_entry(entry, "--workers", specs);
  }
  if (!options.hosts_path.empty()) {
    std::ifstream hosts(options.hosts_path);
    if (!hosts) {
      throw std::invalid_argument("cannot open --hosts file: " +
                                  options.hosts_path);
    }
    std::string line;
    while (std::getline(hosts, line)) {
      const std::size_t comment = line.find('#');
      if (comment != std::string::npos) line = line.substr(0, comment);
      line = trim_whitespace(line);
      if (line.empty()) continue;
      append_worker_entry(line, options.hosts_path, specs);
    }
  }
  if (specs.empty()) {
    append_worker_entry("local", "default", specs);
    append_worker_entry("local", "default", specs);
  }
  for (std::size_t i = 0; i < specs.size(); ++i) {
    specs[i].name = (specs[i].local ? "local" : "ssh:" + specs[i].host) +
                    "#" + std::to_string(i);
  }
  return specs;
}

// One session transport per worker spec. `sessions` = false points the
// transports at the one-shot `shard-worker` instead: each detects its
// peer as v1 and serves every later attempt spawn-per-attempt — the
// --dispatch-bench baseline.
std::vector<std::unique_ptr<dist::WorkerTransport>> build_transports(
    const std::vector<WorkerSpec>& specs, const ScenarioOptions& options,
    dist::DispatchLog* log, bool sessions = true) {
  if (options.program.empty()) {
    throw std::invalid_argument(
        "dispatch needs the harness's own binary path for its workers; "
        "run through fairsched_exp");
  }
  const std::vector<std::string> ssh_command =
      split_and_trim(options.ssh_command, ' ');
  const std::string remote_program = options.remote_program.empty()
                                         ? options.program
                                         : options.remote_program;
  std::vector<std::unique_ptr<dist::WorkerTransport>> transports;
  transports.reserve(specs.size());
  for (const WorkerSpec& spec : specs) {
    std::vector<std::string> one_shot_argv;
    if (spec.local) {
      one_shot_argv = {options.program, "shard-worker"};
    } else {
      // ssh joins the remaining tokens with spaces for the remote shell,
      // so remote program paths must not contain shell metacharacters;
      // the fake ssh harness receives them as separate argv entries.
      one_shot_argv = ssh_command;
      one_shot_argv.insert(one_shot_argv.end(),
                           {spec.host, remote_program, "shard-worker"});
    }
    std::vector<std::string> session_argv = one_shot_argv;
    if (sessions) session_argv.push_back("--session");
    auto transport = std::make_unique<dist::PersistentTransport>(
        spec.name, std::move(session_argv), std::move(one_shot_argv), log);
    if (!spec.local && !options.worker_threads_explicit) {
      // Remote thread-budget fix: without --worker-threads the request
      // would carry a share of the *local* host's budget; send 0 instead,
      // which the worker resolves to its own hardware concurrency
      // (dist/protocol.h).
      transport->set_thread_override(0);
    }
    transports.push_back(std::move(transport));
  }
  return transports;
}

// The local-first thread default: this host's budget (the plan's
// --threads, or the hardware concurrency) split across the workers, at
// least 1 each. Genuinely remote fleets should set --worker-threads.
std::size_t thread_share(const SweepPlan& plan, std::size_t workers) {
  const std::size_t budget =
      plan.spec.threads
          ? plan.spec.threads
          : std::max<std::size_t>(1, std::thread::hardware_concurrency());
  return std::max<std::size_t>(1, budget / workers);
}

// The request every attempt shares: the original argv with the
// orchestration, reporting and dispatch-layer flags stripped (each is
// either re-derived per attempt or meaningless on a worker), the
// subcommand swapped for `command` (dispatch's --sweep, or the invoking
// subcommand under --processes), and the --config file's bytes embedded
// for hosts without the file.
dist::DispatchRequest build_dispatch_request(const ScenarioOptions& options,
                                             const std::string& command,
                                             const SweepPlan& plan,
                                             std::size_t threads) {
  dist::DispatchRequest request;
  request.fingerprint = plan.fingerprint;
  request.threads = threads;
  request.args.push_back(command);
  std::vector<std::string> tail;
  if (!options.raw_args.empty()) {
    tail.assign(options.raw_args.begin() + 1, options.raw_args.end());
  }
  tail = drop_flag_tokens(
      tail, {"processes", "shard", "partial-out", "csv", "json",
             "stream-records", "threads", "config", "workers", "hosts",
             "ssh-cmd", "remote-program", "sweep", "shards",
             "worker-threads", "timeout-ms", "retries", "backoff-ms",
             "backoff-cap-ms", "artifact-dir", "dispatch-log", "resume",
             "dry-run", "speculate", "speculate-factor", "dispatch-bench",
             "bench-repeats"});
  request.args.insert(request.args.end(), tail.begin(), tail.end());
  if (!options.config_path.empty()) {
    std::ifstream config(options.config_path, std::ios::binary);
    if (!config) {
      throw std::invalid_argument("cannot read --config file to embed: " +
                                  options.config_path);
    }
    std::ostringstream content;
    content << config.rdbuf();
    request.config_content = content.str();
    request.config_name =
        std::filesystem::path(options.config_path).filename().string();
  }
  return request;
}

void print_worker_summaries(const dist::Dispatcher& dispatcher,
                            std::FILE* human) {
  for (const auto& worker : dispatcher.workers()) {
    const std::string line = worker->summary();
    if (!line.empty()) {
      std::fprintf(human, "  worker %s: %s\n", worker->name().c_str(),
                   line.c_str());
    }
  }
}

// --dispatch-bench: run the identical dispatch --bench-repeats times in
// spawn-per-attempt mode (transports pointed at the one-shot shard-worker,
// which they detect as v1 peers on repeat 1), then again over one set of
// persistent sessions (the Dispatcher is reused, so sessions — and their
// caches — stay warm across repeats), assert the two modes' CSVs are
// byte-identical, and write the BENCH_dispatch.json record CI gates
// against bench/baselines/dispatch.json. Repeat 1 of session mode is the
// cold session (spawn + first plan parse); repeats 2+ are fully warm.
int run_dispatch_bench(const ScenarioOptions& options, const SweepPlan& plan,
                       const std::vector<WorkerSpec>& specs,
                       const dist::DispatchOptions& dispatch_options,
                       const dist::DispatchRequest& request,
                       dist::DispatchLog* log, std::FILE* human) {
  const std::size_t repeats = std::max<std::size_t>(2, options.bench_repeats);
  auto csv_of = [](const MergedSweep& merged) {
    std::ostringstream out;
    CsvReporter csv(out);
    csv.report(merged.spec, merged.result);
    return out.str();
  };
  auto elapsed_ms = [](std::chrono::steady_clock::time_point since) {
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - since)
        .count();
  };
  // Mean over repeats 2..R — the warm measurement for either mode.
  auto warm_mean = [](const std::vector<double>& walls) {
    double sum = 0.0;
    for (std::size_t i = 1; i < walls.size(); ++i) sum += walls[i];
    return sum / static_cast<double>(walls.size() - 1);
  };

  std::vector<double> spawn_ms;
  std::string spawn_csv;
  {
    dist::Dispatcher dispatcher(
        build_transports(specs, options, log, /*sessions=*/false),
        dispatch_options, log);
    for (std::size_t r = 0; r < repeats; ++r) {
      const auto started = std::chrono::steady_clock::now();
      const MergedSweep merged = dispatcher.run(plan, request);
      spawn_ms.push_back(elapsed_ms(started));
      if (r == 0) spawn_csv = csv_of(merged);
      std::fprintf(human, "  spawn   repeat %zu/%zu: %.1f ms\n", r + 1,
                   repeats, spawn_ms.back());
      std::fflush(human);
    }
  }

  std::vector<double> session_ms;
  std::string session_csv;
  dist::PersistentTransport::SessionStats session_totals;
  {
    dist::Dispatcher dispatcher(build_transports(specs, options, log),
                                dispatch_options, log);
    for (std::size_t r = 0; r < repeats; ++r) {
      const auto started = std::chrono::steady_clock::now();
      const MergedSweep merged = dispatcher.run(plan, request);
      session_ms.push_back(elapsed_ms(started));
      if (r == 0) session_csv = csv_of(merged);
      std::fprintf(human, "  session repeat %zu/%zu: %.1f ms\n", r + 1,
                   repeats, session_ms.back());
      std::fflush(human);
    }
    for (const auto& worker : dispatcher.workers()) {
      const auto* persistent =
          dynamic_cast<const dist::PersistentTransport*>(worker.get());
      if (persistent == nullptr) continue;
      const dist::PersistentTransport::SessionStats stats =
          persistent->session_stats();
      session_totals.opens += stats.opens;
      session_totals.served += stats.served;
      session_totals.fallback += stats.fallback;
      session_totals.cache_hits += stats.cache_hits;
      session_totals.cache_misses += stats.cache_misses;
      session_totals.replayed += stats.replayed;
    }
    print_worker_summaries(dispatcher, human);
  }

  if (spawn_csv != session_csv) {
    throw std::runtime_error(
        "--dispatch-bench: the persistent-session CSV differs from the "
        "spawn-per-attempt CSV — the dispatch-determinism contract is "
        "broken");
  }

  const double spawn_warm = warm_mean(spawn_ms);
  const double session_warm = warm_mean(session_ms);
  const double warm_speedup =
      session_warm > 0.0 ? spawn_warm / session_warm : 0.0;
  std::fprintf(human,
               "dispatch bench: spawn warm %.1f ms, session warm %.1f ms "
               "(cold %.1f ms), warm speedup %.2fx, %zu session(s) served "
               "%zu shard(s)\n",
               spawn_warm, session_warm, session_ms.front(), warm_speedup,
               session_totals.opens, session_totals.served);

  std::ostringstream json;
  json << "{\n";
  json << "  \"benchmark\": \"dispatch\",\n";
  json << "  \"sweep\": \"" << options.sweep << "\",\n";
  json << "  \"workers\": " << specs.size() << ",\n";
  json << "  \"shards\": " << dispatch_options.shard_count << ",\n";
  json << "  \"repeats\": " << repeats << ",\n";
  auto write_walls = [&json](const char* key,
                             const std::vector<double>& walls) {
    json << "  \"" << key << "\": [";
    for (std::size_t i = 0; i < walls.size(); ++i) {
      if (i) json << ", ";
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%.3f", walls[i]);
      json << buf;
    }
    json << "],\n";
  };
  write_walls("spawn_ms", spawn_ms);
  write_walls("session_ms", session_ms);
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.3f", spawn_warm);
  json << "  \"spawn_warm_ms\": " << buf << ",\n";
  std::snprintf(buf, sizeof(buf), "%.3f", session_ms.front());
  json << "  \"session_cold_ms\": " << buf << ",\n";
  std::snprintf(buf, sizeof(buf), "%.3f", session_warm);
  json << "  \"session_warm_ms\": " << buf << ",\n";
  std::snprintf(buf, sizeof(buf), "%.3f", warm_speedup);
  json << "  \"warm_speedup\": " << buf << ",\n";
  json << "  \"session_opens\": " << session_totals.opens << ",\n";
  json << "  \"session_served\": " << session_totals.served << ",\n";
  json << "  \"session_fallback\": " << session_totals.fallback << ",\n";
  json << "  \"cache_hits\": " << session_totals.cache_hits << ",\n";
  json << "  \"cache_misses\": " << session_totals.cache_misses << ",\n";
  json << "  \"replayed\": " << session_totals.replayed << ",\n";
  json << "  \"csv_identical\": true\n";
  json << "}\n";

  const std::string json_path =
      options.json_path.empty() ? "BENCH_dispatch.json" : options.json_path;
  if (json_path == "-") {
    std::fputs(json.str().c_str(), stdout);
  } else {
    std::ofstream out(json_path, std::ios::binary | std::ios::trunc);
    if (!out) {
      std::fprintf(stderr, "cannot open bench output: %s\n",
                   json_path.c_str());
      return 2;
    }
    out << json.str();
    std::fprintf(human, "wrote dispatch bench record: %s\n",
                 json_path.c_str());
  }
  return 0;
}

}  // namespace

int run_dispatch_scenario(const ScenarioOptions& options) {
  if (!options.shard.empty() || !options.partial_out.empty() ||
      options.processes > 1) {
    throw std::invalid_argument(
        "dispatch does its own sharding; --shard/--partial-out/--processes "
        "belong to single-host execution");
  }
  if (!options.stream_records_path.empty()) {
    throw std::invalid_argument(
        "--stream-records does not cross host boundaries; run shards "
        "explicitly (--shard=i/N) to keep per-shard streams");
  }

  const SweepSpec spec = make_scenario_sweep(options.sweep, options);
  const SweepPlan plan = build_sweep_plan(spec, PolicyRegistry::global());
  const std::vector<WorkerSpec> specs = parse_worker_specs(options);
  const std::size_t shard_count =
      options.dispatch_shards ? options.dispatch_shards : specs.size();

  if (options.dry_run) {
    std::vector<std::string> names;
    names.reserve(specs.size());
    for (const WorkerSpec& spec_entry : specs) {
      names.push_back(spec_entry.name);
    }
    dist::write_dispatch_plan_json(std::cout, plan, shard_count, names);
    return 0;
  }

  const bool machine_stdout = options.csv_path == "-" ||
                              options.json_path == "-";
  std::FILE* human = machine_stdout ? stderr : stdout;
  if (!spec.title.empty()) std::fprintf(human, "%s\n", spec.title.c_str());
  std::fprintf(human, "dispatching %zu shard(s) over %zu worker(s)%s\n",
               shard_count, specs.size(),
               options.speculate ? " [speculative re-execution]" : "");

  bool any_remote = false;
  for (const WorkerSpec& spec_entry : specs) {
    if (!spec_entry.local) any_remote = true;
  }
  if (any_remote && !options.worker_threads_explicit) {
    // The remote thread-budget footgun: without --worker-threads the
    // request's thread count is the *local* budget divided by the worker
    // count, which is meaningless on another host. build_transports
    // already overrides remote requests to threads=0 (worker hardware
    // concurrency); say so loudly.
    std::fprintf(stderr,
                 "warning: remote workers without --worker-threads — each "
                 "remote worker will use its own hardware concurrency "
                 "instead of a share of this host's budget; pass "
                 "--worker-threads=N to pin remote parallelism\n");
  }

  dist::DispatchOptions dispatch_options;
  dispatch_options.shard_count = shard_count;
  dispatch_options.shard_timeout =
      std::chrono::milliseconds(options.timeout_ms);
  dispatch_options.max_attempts = options.retries + 1;
  dispatch_options.backoff = std::chrono::milliseconds(options.backoff_ms);
  dispatch_options.backoff_cap =
      std::chrono::milliseconds(options.backoff_cap_ms);
  dispatch_options.artifact_dir = options.artifact_dir;
  dispatch_options.resume = options.resume_dispatch;
  dispatch_options.speculate = options.speculate;
  dispatch_options.speculate_factor = options.speculate_factor;
  if (options.dispatch_bench && options.resume_dispatch) {
    throw std::invalid_argument(
        "--dispatch-bench re-runs the same dispatch repeatedly; --resume "
        "would reuse the first repeat's artifacts and time nothing");
  }

  std::filesystem::create_directories(options.artifact_dir);
  const std::string log_path =
      options.dispatch_log_path.empty()
          ? options.artifact_dir + "/dispatch.log.jsonl"
          : options.dispatch_log_path;
  // Append: a --resume invocation extends the first run's log, so the
  // whole history of a recovered dispatch reads as one file.
  std::ofstream log_file(log_path, std::ios::app);
  if (!log_file) {
    std::fprintf(stderr, "cannot open dispatch log: %s\n", log_path.c_str());
    return 2;
  }
  dist::DispatchLog log(log_file);

  const dist::DispatchRequest request = build_dispatch_request(
      options, options.sweep, plan,
      options.worker_threads ? options.worker_threads
                             : thread_share(plan, specs.size()));
  if (options.dispatch_bench) {
    return run_dispatch_bench(options, plan, specs, dispatch_options,
                              request, &log, human);
  }
  dist::Dispatcher dispatcher(build_transports(specs, options, &log),
                              dispatch_options, &log);
  const MergedSweep merged = dispatcher.run(
      plan, request, [human](const std::string& message) {
        std::fprintf(human, "  finished %s\n", message.c_str());
        std::fflush(human);
      });
  const dist::DispatchStats& stats = dispatcher.stats();
  std::fprintf(human,
               "dispatch done: %zu shard(s), %zu attempt(s), %zu "
               "failure(s), %zu resumed, %zu quarantined; log: %s\n",
               stats.shard_count, stats.attempts, stats.failed_attempts,
               stats.resumed, stats.quarantined, log_path.c_str());
  if (options.speculate) {
    std::fprintf(human,
                 "  speculation: %zu duplicate attempt(s), %zu finished "
                 "second (digest-identical), %zu canceled\n",
                 stats.speculative, stats.duplicate_losses,
                 stats.duplicate_canceled);
  }
  print_worker_summaries(dispatcher, human);
  return report_sweep(merged.spec, merged.result, options);
}

SweepResult run_local_sessions(const SweepPlan& plan,
                               const std::string& command,
                               const ScenarioOptions& options,
                               const SweepDriver::Progress& progress) {
  const auto started = std::chrono::steady_clock::now();
  static std::atomic<std::uint64_t> scratch_seq{0};
  ScratchDir scratch;
  scratch.dir = std::filesystem::temp_directory_path() /
                ("fairsched-mp-" + std::to_string(::getpid()) + "-" +
                 std::to_string(scratch_seq.fetch_add(1)));
  std::filesystem::create_directories(scratch.dir);

  std::vector<WorkerSpec> specs(options.processes);
  for (std::size_t s = 0; s < specs.size(); ++s) {
    specs[s].name = "local#" + std::to_string(s);
  }
  dist::DispatchOptions dispatch_options;
  dispatch_options.shard_count = specs.size();
  dispatch_options.max_attempts = 1;
  dispatch_options.artifact_dir = scratch.dir.string();
  dist::Dispatcher dispatcher(build_transports(specs, options, nullptr),
                              dispatch_options);
  MergedSweep merged = dispatcher.run(
      plan,
      build_dispatch_request(options, command, plan,
                             thread_share(plan, specs.size())),
      progress);
  merged.result.elapsed_ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - started)
          .count();
  return std::move(merged.result);
}

namespace {

std::string sanitize_filename(const std::string& name) {
  std::string out;
  for (const char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '.' || c == '_' ||
                    c == '-';
    out += ok ? c : '_';
  }
  return out.empty() ? "sweep.config" : out;
}

// The session worker's process-lifetime cache and the identity it was
// built for. In-memory cache keys are plan-positional ("p|g|w|i"), so the
// cache is only reusable across requests whose plans fingerprint equal;
// any identity change rebuilds it from scratch.
struct SessionCache {
  std::unique_ptr<WorkloadCache> cache;
  std::uint64_t fingerprint = 0;
  std::size_t bytes = 0;
};

// One dispatch request, shared by the one-shot (v1) and session (v2)
// worker paths: rebuild the spec from the request args, refuse on
// fingerprint mismatch, execute the shard, frame the artifact to stdout.
// Returns false when stdout failed (the session must end — the
// dispatcher's framing is broken).
bool serve_dispatch_request(const dist::DispatchRequest& request_in,
                            SessionCache* session, std::size_t sequence) {
  dist::DispatchRequest request = request_in;
  ScratchDir scratch;  // the embedded config, removed on exit
  if (!request.config_content.empty() || !request.config_name.empty()) {
    scratch.dir = std::filesystem::temp_directory_path() /
                  ("fairsched-worker-" + std::to_string(::getpid()) + "-" +
                   std::to_string(sequence));
    std::filesystem::create_directories(scratch.dir);
    const std::filesystem::path config_path =
        scratch.dir / sanitize_filename(request.config_name);
    std::ofstream out(config_path, std::ios::binary);
    out.write(request.config_content.data(),
              static_cast<std::streamsize>(request.config_content.size()));
    out.flush();
    if (!out.good()) {
      throw std::runtime_error("shard-worker: cannot write embedded config "
                               "to " +
                               config_path.string());
    }
    request.args.push_back("--config=" + config_path.string());
  }

  const std::string command = request.args.front();
  // Flags skips argv[0] (the program slot); the subcommand fills it.
  std::vector<const char*> argv;
  argv.reserve(request.args.size());
  for (const std::string& arg : request.args) argv.push_back(arg.c_str());
  const Flags flags(static_cast<int>(argv.size()), argv.data());
  ScenarioOptions options = scenario_options_from_flags(flags);

  SweepSpec spec = make_scenario_sweep(command, options);
  // The dispatcher owns the thread budget; the request's value beats both
  // the spec default and any FAIRSCHED_THREADS in this host's
  // environment. 0 = this worker's own hardware concurrency
  // (dist/protocol.h) — the remote-fleet default.
  spec.threads = request.threads;

  const SweepPlan plan =
      build_sweep_plan(spec, PolicyRegistry::global(),
                       SweepShard{request.shard, request.shard_count});
  if (plan.fingerprint != request.fingerprint) {
    // The dispatch-determinism contract's front door: a worker whose
    // rebuilt plan differs (version skew, stray FAIRSCHED_* env var,
    // different registry) must refuse before spending any compute —
    // its artifact could never merge anyway.
    throw std::runtime_error(
        "shard-worker: rebuilt plan fingerprint does not match the "
        "request; this worker would compute a different sweep (check for "
        "binary version skew or FAIRSCHED_* environment overrides)");
  }

  SweepResult result;
  if (session) {
    if (!session->cache || session->fingerprint != plan.fingerprint ||
        session->bytes != spec.cache_bytes) {
      session->cache =
          std::make_unique<WorkloadCache>(spec.cache_bytes, /*retain=*/true);
      session->fingerprint = plan.fingerprint;
      session->bytes = spec.cache_bytes;
    }
    ThreadPoolExecutor executor(session->cache.get());
    result = executor.execute(plan);
  } else {
    ThreadPoolExecutor executor;
    result = executor.execute(plan);
  }

  std::ostringstream artifact;
  write_shard_artifact(artifact, plan, result);
  if (session) {
    // The stat footer feeds the dispatcher's per-worker session summary.
    // Counters are this call's delta (exp/executor.h), so the artifact
    // stays comparable to a per-run-cache worker's.
    const std::vector<std::pair<std::string, std::uint64_t>> stats = {
        {"cache_hits", result.cache.hits},
        {"cache_misses", result.cache.misses},
        {"replayed", result.replayed_runs},
    };
    dist::write_session_artifact_frame(std::cout, request.shard,
                                       request.shard_count, artifact.str(),
                                       stats);
  } else {
    dist::write_artifact_frame(std::cout, request.shard,
                               request.shard_count, artifact.str());
  }
  std::cout.flush();
  if (!std::cout.good()) {
    std::fprintf(stderr, "shard-worker: failed writing artifact frame\n");
    return false;
  }
  std::fprintf(stderr, "shard-worker: shard %zu/%zu done (%zu of %zu "
                       "tasks)\n",
               request.shard, request.shard_count, plan.shard_tasks.size(),
               plan.num_tasks);
  return true;
}

}  // namespace

int run_shard_worker_scenario(bool session) {
  if (!session) {
    const dist::DispatchRequest request =
        dist::read_dispatch_request(std::cin);
    return serve_dispatch_request(request, nullptr, 0) ? 0 : 2;
  }

  // Protocol v2: announce the session (the hello doubles as the version
  // handshake and carries this host's hardware concurrency for the
  // dispatcher's remote thread-budget default), then serve request after
  // request over the same connection. The workload cache outlives
  // requests, so later shards of the same plan re-serve each other's
  // prefixes instead of recomputing them.
  dist::SessionHello hello;
  hello.threads =
      std::max<std::size_t>(1, std::thread::hardware_concurrency());
  dist::write_session_hello(std::cout, hello);
  std::cout.flush();
  if (!std::cout.good()) {
    std::fprintf(stderr, "shard-worker: failed writing session hello\n");
    return 2;
  }

  SessionCache cache;
  std::size_t served = 0;
  while (true) {
    dist::DispatchRequest request;
    switch (dist::read_session_command(std::cin, &request)) {
      case dist::SessionCommand::kGoodbye:
        std::fprintf(stderr,
                     "shard-worker: session goodbye after %zu shard(s)\n",
                     served);
        return 0;
      case dist::SessionCommand::kEof:
        // The dispatcher hung up (done, or tearing this session down).
        std::fprintf(stderr,
                     "shard-worker: session eof after %zu shard(s)\n",
                     served);
        return 0;
      case dist::SessionCommand::kRequest:
        break;
    }
    if (!serve_dispatch_request(request, &cache, served)) return 2;
    ++served;
  }
}

}  // namespace fairsched::exp
