#include "exp/scenarios.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <memory>
#include <stdexcept>
#include <vector>

#include "exp/executor.h"
#include "exp/reporter.h"
#include "exp/sweep_artifact.h"
#include "exp/sweep_config.h"
#include "exp/sweep_plan.h"
#include "metrics/utility.h"
#include "sched/rand_fair.h"
#include "sched/ref.h"
#include "sim/engine.h"
#include "strategy/game.h"
#include "util/json.h"
#include "util/rng.h"
#include "util/table.h"
#include "workload/synthetic.h"

namespace fairsched::exp {

namespace {

// Smoke mode shrinks every dimension so CI exercises the full matrix in
// seconds: 2 windows per cell, short horizons, 1/64-scale platforms.
constexpr std::size_t kSmokeInstances = 2;
// Long enough that the scaled-down platforms saturate and the policies
// separate (all-zero unfairness would make the CI signal vacuous), short
// enough that the whole matrix runs in well under a minute on 2 cores.
constexpr Time kSmokeTableDuration = 10000;
constexpr double kSmokeScale = 64.0;

std::vector<std::string> table_policy_names() {
  return {"roundrobin", "rand15",      "directcontr",
          "fairshare",  "utfairshare", "currfairshare"};
}

// When the machine-readable stream is stdout ("-"), every human-facing
// line (title, progress, ASCII table, notes) moves to stderr so the CSV or
// JSON on stdout stays parseable.
bool machine_stdout(const ScenarioOptions& options) {
  return options.csv_path == "-" || options.json_path == "-" ||
         options.stream_records_path == "-";
}

std::FILE* human_file(const ScenarioOptions& options) {
  return machine_stdout(options) ? stderr : stdout;
}

std::ostream& human_stream(const ScenarioOptions& options) {
  return machine_stdout(options) ? std::cerr : std::cout;
}

// Emits the JSON perf baseline ("-" = stdout; --smoke defaults to
// BENCH_<sweep>.json). Returns a nonzero exit code on I/O failure.
int emit_json_baseline(const SweepSpec& spec, const SweepResult& result,
                       const ScenarioOptions& options) {
  std::string json_path = options.json_path;
  if (json_path.empty() && options.smoke) {
    json_path = "BENCH_" + spec.name + ".json";
  }
  if (json_path.empty()) return 0;
  if (json_path == "-") {
    JsonReporter json(std::cout);
    json.report(spec, result);
    return 0;
  }
  std::ofstream out(json_path);
  if (!out) {
    std::fprintf(stderr, "cannot open JSON output: %s\n", json_path.c_str());
    return 2;
  }
  JsonReporter json(out);
  json.report(spec, result);
  std::fprintf(human_file(options), "wrote perf baseline: %s\n",
               json_path.c_str());
  return 0;
}

// Emits the cell-aggregate CSV ("-" = stdout). Returns a nonzero exit
// code on I/O failure, 0 otherwise (including when --csv is unset).
int emit_csv_output(const SweepSpec& spec, const SweepResult& result,
                    const ScenarioOptions& options) {
  if (options.csv_path.empty()) return 0;
  if (options.csv_path == "-") {
    CsvReporter csv(std::cout);
    csv.report(spec, result);
    return 0;
  }
  std::ofstream out(options.csv_path);
  if (!out) {
    std::fprintf(stderr, "cannot open CSV output: %s\n",
                 options.csv_path.c_str());
    return 2;
  }
  CsvReporter csv(out);
  csv.report(spec, result);
  std::fprintf(human_file(options), "wrote CSV: %s\n",
               options.csv_path.c_str());
  return 0;
}

std::vector<SweepWorkload> archive_workloads(const ScenarioOptions& options,
                                             double scale) {
  std::vector<SweepWorkload> workloads;
  for (const SyntheticSpec& spec : default_presets(scale)) {
    SweepWorkload w;
    w.name = spec.name;
    w.kind = SweepWorkload::Kind::kSynthetic;
    w.spec = spec;
    w.orgs = options.orgs;
    w.split = options.split;
    w.zipf_s = options.zipf_s;
    workloads.push_back(std::move(w));
  }
  return workloads;
}

SweepWorkload lpc_workload(const ScenarioOptions& options) {
  SweepWorkload w;
  w.name = preset_lpc_egee().name;
  w.kind = SweepWorkload::Kind::kSynthetic;
  w.spec = preset_lpc_egee();
  w.orgs = options.orgs;
  w.split = options.split;
  w.zipf_s = options.zipf_s;
  return w;
}

// An explicit --axes flag replaces a scenario's default axes wholesale.
void apply_axes_override(SweepSpec& spec, const ScenarioOptions& options) {
  if (!options.axes.empty()) spec.axes = parse_axes_spec(options.axes);
}

// The execution knobs every scenario forwards verbatim: seeding, thread
// count, and the workload/baseline cache budget.
void apply_execution_options(SweepSpec& spec,
                             const ScenarioOptions& options) {
  spec.seed = options.seed;
  spec.threads = options.threads;
  spec.cache_bytes = options.cache_bytes();
}

// One grep-friendly cache-stats line. `label` distinguishes the per-shard
// breakdown of a merged result ("[shard 0/3]") from the totals ("").
void print_cache_stats_line(const CacheStats& cache,
                            std::uint64_t replayed_runs,
                            std::size_t prefix_groups,
                            const std::string& label, std::FILE* human) {
  std::fprintf(
      human,
      "cache-stats%s: hits=%llu misses=%llu evictions=%llu hit-rate=%.3f "
      "replayed-runs=%llu prefix-groups=%zu peak-bytes=%zu\n",
      label.c_str(), static_cast<unsigned long long>(cache.hits),
      static_cast<unsigned long long>(cache.misses),
      static_cast<unsigned long long>(cache.evictions), cache.hit_rate(),
      static_cast<unsigned long long>(replayed_runs), prefix_groups,
      cache.peak_bytes);
}

// The workload/baseline-cache accounting printed after a sweep's summary
// table (CI greps hits= on the half-life smoke sweep). A merged or
// multi-process result prints one line per shard, then the totals.
// Skipped when the cache was disabled (--no-cache / --cache-mb=0).
void print_cache_stats(const SweepResult& result, std::FILE* human) {
  if (!result.cache_enabled) return;
  if (result.shards > 1 &&
      result.per_shard_cache.size() == result.shards) {
    for (std::size_t s = 0; s < result.shards; ++s) {
      print_cache_stats_line(
          result.per_shard_cache[s], result.per_shard_replayed[s],
          result.prefix_groups,
          "[shard " + std::to_string(s) + "/" +
              std::to_string(result.shards) + "]",
          human);
    }
  }
  print_cache_stats_line(result.cache, result.replayed_runs,
                         result.prefix_groups, "", human);
}

// The utilization and rand-convergence scenarios post-process per-run
// data under a single-axis-point assumption (greedy extremes per
// instance, the per-N convergence table); extra axes would silently
// corrupt or discard results, so they are rejected instead.
void reject_axes(const char* scenario, const ScenarioOptions& options) {
  if (!options.axes.empty()) {
    throw std::invalid_argument(std::string(scenario) +
                                " does not support --axes; use `custom` "
                                "for free-form axis sweeps");
  }
}

// Scenarios that post-process per-run data (or run several sweeps) cannot
// be partitioned into mergeable shards; reject the sharding flags loudly
// instead of producing a partial analysis.
void reject_sharding(const char* scenario, const ScenarioOptions& options) {
  if (!options.shard.empty() || !options.partial_out.empty() ||
      options.processes > 1) {
    throw std::invalid_argument(
        std::string(scenario) +
        " does not support --shard/--partial-out/--processes; only plain "
        "sweep scenarios (and `custom`) can be sharded");
  }
}

}  // namespace

std::vector<std::string> drop_flag_tokens(
    const std::vector<std::string>& args,
    const std::vector<std::string>& names) {
  std::vector<std::string> out;
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& token = args[i];
    bool dropped = false;
    for (const std::string& name : names) {
      const std::string bare = "--" + name;
      if (token == bare) {
        // `--name value` consumes the value token too (mirrors Flags).
        if (i + 1 < args.size() && args[i + 1].rfind("--", 0) != 0) ++i;
        dropped = true;
        break;
      }
      if (token.rfind(bare + "=", 0) == 0) {
        dropped = true;
        break;
      }
    }
    if (!dropped) out.push_back(token);
  }
  return out;
}

namespace {

// The --stream-records sink: an owning CSV writer over a file or stdout.
// Records arrive in the deterministic fold order, so the emitted file is
// bit-identical across thread counts.
struct StreamRecords {
  std::ofstream file;
  std::unique_ptr<CsvRecordSink> csv;
};

// Opens options.stream_records_path for `spec`. Returns a nonzero exit
// code on I/O failure, 0 otherwise (including when streaming is off).
int open_stream_records(const SweepSpec& spec, const ScenarioOptions& options,
                        StreamRecords& stream) {
  if (options.stream_records_path.empty()) return 0;
  std::ostream* out = &std::cout;
  if (options.stream_records_path != "-") {
    stream.file.open(options.stream_records_path);
    if (!stream.file) {
      std::fprintf(stderr, "cannot open per-run CSV output: %s\n",
                   options.stream_records_path.c_str());
      return 2;
    }
    out = &stream.file;
  }
  stream.csv = std::make_unique<CsvRecordSink>(*out, spec);
  return 0;
}

}  // namespace

ScenarioOptions scenario_options_from_flags(const Flags& flags) {
  ScenarioOptions options;
  auto non_negative = [&flags](const char* name) {
    const std::int64_t value = flags.get_int(name, 0);
    if (value < 0) {
      throw std::invalid_argument(std::string("--") + name +
                                  " must be non-negative");
    }
    return value;
  };
  options.instances = static_cast<std::size_t>(non_negative("instances"));
  options.duration = non_negative("duration");
  const std::int64_t orgs = flags.get_int("orgs", 5);
  if (orgs < 1 || orgs > 4294967295) {
    throw std::invalid_argument("--orgs must be in [1, 2^32-1]");
  }
  options.orgs = static_cast<std::uint32_t>(orgs);
  options.seed = static_cast<std::uint64_t>(flags.get_int("seed", 2013));
  options.scale = flags.get_double("scale", 0.0);
  if (flags.has("scale") && options.scale <= 0.0) {
    throw std::invalid_argument("--scale must be positive");
  }
  options.threads = static_cast<std::size_t>(non_negative("threads"));
  options.smoke = flags.get_bool("smoke", false);
  // --cache-mb=0 and --no-cache both disable the workload/baseline cache.
  const std::int64_t cache_mb =
      flags.get_int("cache-mb", static_cast<std::int64_t>(options.cache_mb));
  if (cache_mb < 0) {
    throw std::invalid_argument("--cache-mb must be non-negative");
  }
  options.cache_mb = static_cast<std::size_t>(cache_mb);
  options.no_cache = flags.get_bool("no-cache", false);
  options.shard = flags.get_string("shard", "");
  // Validate the spec now so a malformed --shard fails before any
  // compute, with parse_shard_spec's message.
  parse_shard_spec(options.shard);
  options.partial_out = flags.get_string("partial-out", "");
  options.processes = static_cast<std::size_t>(non_negative("processes"));
  options.zipf_s = flags.get_double("zipf-s", 1.0);
  options.csv_path = flags.get_string("csv", "");
  options.json_path = flags.get_string("json", "");
  options.stream_records_path = flags.get_string("stream-records", "");
  options.axes = flags.get_string("axes", "");
  options.policies = flags.get_string("policies", "");
  options.workload = flags.get_string("workload", "all");
  options.config_path = flags.get_string("config", "");
  const std::int64_t jobs_per_org = flags.get_int("jobs-per-org", 0);
  if (jobs_per_org < 0 || jobs_per_org > 4294967295) {
    throw std::invalid_argument("--jobs-per-org must be in [0, 2^32-1]");
  }
  options.jobs_per_org = static_cast<std::uint32_t>(jobs_per_org);
  options.min_orgs = static_cast<std::uint32_t>(non_negative("min-orgs"));
  options.max_orgs = static_cast<std::uint32_t>(non_negative("max-orgs"));
  options.deviations = flags.get_string("deviations", "");
  options.deviator_orgs = flags.get_string("deviator-orgs", "");
  options.check_thm41 = flags.get_bool("check-thm41", false);
  options.thm41_tolerance = flags.get_double("thm41-tolerance", 2.0);
  if (options.thm41_tolerance < 0.0) {
    throw std::invalid_argument("--thm41-tolerance must be non-negative");
  }
  options.source = flags.get_string("source", "synthetic");
  options.policy = flags.get_string("policy", "fairshare");
  options.decisions_path = flags.get_string("decisions", "");
  options.record_trace_path = flags.get_string("record-trace", "");
  options.stats_interval =
      static_cast<std::uint64_t>(non_negative("stats-interval"));
  options.serve_events =
      static_cast<std::uint64_t>(non_negative("serve-events"));
  options.arrival_rate = flags.get_double("arrival-rate", 0.0);
  if (flags.has("arrival-rate") && !(options.arrival_rate > 0.0)) {
    throw std::invalid_argument("--arrival-rate must be positive");
  }
  const std::int64_t machines_per_org = flags.get_int("machines-per-org", 1);
  if (machines_per_org < 1 || machines_per_org > 4294967295) {
    throw std::invalid_argument("--machines-per-org must be in [1, 2^32-1]");
  }
  options.machines_per_org = static_cast<std::uint32_t>(machines_per_org);
  options.orgs_explicit = flags.has("orgs");
  options.workers_spec = flags.get_string("workers", "");
  options.hosts_path = flags.get_string("hosts", "");
  options.ssh_command = flags.get_string("ssh-cmd", "ssh");
  options.remote_program = flags.get_string("remote-program", "");
  options.sweep = flags.get_string("sweep", "custom");
  options.dispatch_shards = static_cast<std::size_t>(non_negative("shards"));
  options.worker_threads =
      static_cast<std::size_t>(non_negative("worker-threads"));
  options.worker_threads_explicit = flags.has("worker-threads");
  options.timeout_ms = static_cast<std::size_t>(non_negative("timeout-ms"));
  const std::int64_t retries = flags.get_int("retries", 2);
  if (retries < 0) {
    throw std::invalid_argument("--retries must be non-negative");
  }
  options.retries = static_cast<std::size_t>(retries);
  const std::int64_t backoff_ms = flags.get_int("backoff-ms", 250);
  if (backoff_ms < 0) {
    throw std::invalid_argument("--backoff-ms must be non-negative");
  }
  options.backoff_ms = static_cast<std::size_t>(backoff_ms);
  const std::int64_t backoff_cap_ms = flags.get_int("backoff-cap-ms", 5000);
  if (backoff_cap_ms < 0) {
    throw std::invalid_argument("--backoff-cap-ms must be non-negative");
  }
  options.backoff_cap_ms = static_cast<std::size_t>(backoff_cap_ms);
  options.artifact_dir =
      flags.get_string("artifact-dir", "dispatch-artifacts");
  options.dispatch_log_path = flags.get_string("dispatch-log", "");
  options.resume_dispatch = flags.get_bool("resume", false);
  options.dry_run = flags.get_bool("dry-run", false);
  options.speculate = flags.get_bool("speculate", false);
  options.speculate_factor = flags.get_double("speculate-factor", 2.0);
  if (options.speculate_factor <= 0.0) {
    throw std::invalid_argument("--speculate-factor must be positive");
  }
  options.dispatch_bench = flags.get_bool("dispatch-bench", false);
  const std::int64_t bench_repeats = flags.get_int("bench-repeats", 3);
  if (bench_repeats < 1) {
    throw std::invalid_argument("--bench-repeats must be >= 1");
  }
  options.bench_repeats = static_cast<std::size_t>(bench_repeats);
  const std::string split = flags.get_string("split", "zipf");
  if (split == "zipf") {
    options.split = MachineSplit::kZipf;
  } else if (split == "uniform") {
    options.split = MachineSplit::kUniform;
  } else {
    throw std::invalid_argument("--split must be zipf or uniform");
  }
  // At most one machine-readable stream may claim stdout, or their
  // different schemas would interleave into one unparseable file.
  const int to_stdout = (options.csv_path == "-") +
                        (options.json_path == "-") +
                        (options.stream_records_path == "-");
  if (to_stdout > 1) {
    throw std::invalid_argument(
        "at most one of --csv, --json, --stream-records may be '-'");
  }
  return options;
}

const std::vector<WorkloadInfo>& workload_catalog() {
  static const std::vector<WorkloadInfo> catalog = {
      {"all", "the four archive-shaped synthetic workloads below"},
      {"lpc", "LPC-EGEE shape: 70 CPUs, 56 users (Section 7.2)"},
      {"pik", "PIK-IPLEX shape: 2560 CPUs, 225 users (scaled by --scale)"},
      {"ricc", "RICC shape: 8192 CPUs, 176 users (scaled by --scale)"},
      {"whale", "SHARCNET-Whale shape: 3072 CPUs, 154 users (scaled)"},
      {"unit", "unit-size jobs, --jobs-per-org per organization (Thm 5.6)"},
      {"smallrandom", "small random consortia, 2-4 orgs (Thm 6.2 probe)"},
  };
  return catalog;
}

SweepSpec make_table_sweep(const std::string& which,
                           const ScenarioOptions& options) {
  const bool table2 = which == "table2";
  if (!table2 && which != "table1") {
    throw std::invalid_argument("make_table_sweep: expected table1 or table2");
  }
  SweepSpec spec;
  spec.name = which;
  spec.policies = table_policy_names();
  apply_execution_options(spec, options);
  spec.baseline = "ref";
  if (options.smoke) {
    spec.horizon = options.duration ? options.duration : kSmokeTableDuration;
    spec.instances = options.instances ? options.instances : kSmokeInstances;
  } else {
    spec.horizon = options.duration ? options.duration
                                    : (table2 ? Time{500000} : Time{50000});
    spec.instances =
        options.instances ? options.instances : (table2 ? 3 : 10);
  }
  const double scale = options.scale > 0.0
                           ? options.scale
                           : (options.smoke ? kSmokeScale : 16.0);
  spec.workloads = archive_workloads(options, scale);
  apply_axes_override(spec, options);
  char title[256];
  std::snprintf(title, sizeof(title),
                "%s: avg unjustified delay (delta_psi / p_tot), duration "
                "%lld, %zu instance(s), %u orgs, scale 1/%.0f",
                table2 ? "Table 2" : "Table 1",
                static_cast<long long>(spec.horizon), spec.instances,
                options.orgs, scale);
  spec.title = title;
  spec.note = table2
                  ? "Expected shape (paper Table 2): same ordering as Table 1 "
                    "with larger absolute values — unfairness grows with the "
                    "horizon."
                  : "Expected shape (paper Table 1): RoundRobin worst by far; "
                    "Rand/DirectContr best; FairShare between; PIK near zero; "
                    "RICC largest.";
  return spec;
}

SweepSpec make_rand_convergence_sweep(const ScenarioOptions& options) {
  reject_axes("rand-convergence", options);
  reject_sharding("rand-convergence", options);
  SweepSpec spec;
  spec.name = "rand-convergence";
  spec.baseline = "ref";
  apply_execution_options(spec, options);
  spec.horizon = options.duration ? options.duration : 150;
  spec.instances = options.instances ? options.instances
                                     : (options.smoke ? kSmokeInstances : 5);
  const std::vector<std::size_t> samples =
      options.smoke ? std::vector<std::size_t>{1, 5, 15}
                    : std::vector<std::size_t>{1, 2, 5, 15, 75, 200, 600};
  for (std::size_t n : samples) {
    spec.policies.push_back("rand" + std::to_string(n));
  }
  SweepWorkload w;
  w.name = "unit-jobs";
  w.kind = SweepWorkload::Kind::kUnitJobs;
  w.orgs = options.orgs;
  // 60 jobs/org keeps the platforms contended even in smoke mode; fewer
  // jobs leave RAND exactly on REF and the convergence signal vanishes.
  w.unit_jobs_per_org = options.jobs_per_org ? options.jobs_per_org : 60;
  spec.workloads.push_back(std::move(w));
  char title[256];
  std::snprintf(title, sizeof(title),
                "RAND convergence (Thm 5.6 / FPRAS): unit jobs, %u orgs, %u "
                "jobs/org, horizon %lld, %zu trial(s) per N",
                options.orgs, spec.workloads[0].unit_jobs_per_org,
                static_cast<long long>(spec.horizon), spec.instances);
  spec.title = title;
  spec.note =
      "Expected shape: the relative distance decreases monotonically-ish "
      "with N and is already small at the paper's N = 15.";
  return spec;
}

SweepSpec make_utilization_sweep(const ScenarioOptions& options) {
  reject_axes("utilization", options);
  reject_sharding("utilization", options);
  SweepSpec spec;
  spec.name = "utilization";
  spec.baseline = "";  // pure utilization sweep, no fairness reference
  apply_execution_options(spec, options);
  spec.horizon = options.duration ? options.duration : 60;
  spec.instances = options.instances ? options.instances
                                     : (options.smoke ? 24 : 200);
  spec.policies = {"fcfs", "roundrobin", "fairshare", "random",
                   "directcontr"};
  SweepWorkload w;
  w.name = "small-random";
  w.kind = SweepWorkload::Kind::kSmallRandom;
  spec.workloads.push_back(std::move(w));
  char title[256];
  std::snprintf(title, sizeof(title),
                "Greedy utilization probe (Thm 6.2): %zu random consortia, "
                "horizon %lld",
                spec.instances, static_cast<long long>(spec.horizon));
  spec.title = title;
  return spec;
}

SweepSpec make_fig10_sweep(const ScenarioOptions& options) {
  SweepSpec spec;
  spec.name = "fig10";
  spec.policies = table_policy_names();
  spec.baseline = "ref";
  apply_execution_options(spec, options);
  spec.horizon = options.duration ? options.duration
                                  : (options.smoke ? kSmokeTableDuration
                                                   : Time{25000});
  spec.instances = options.instances ? options.instances
                                     : (options.smoke ? kSmokeInstances : 20);
  spec.workloads.push_back(lpc_workload(options));
  const std::uint32_t min_orgs = options.min_orgs ? options.min_orgs : 2;
  // REF's cost grows ~3^k with the organization count, so the default stops
  // at 7 (4 under --smoke); the paper's full figure is --max-orgs=10.
  const std::uint32_t max_orgs =
      options.max_orgs ? options.max_orgs : (options.smoke ? 4 : 7);
  if (max_orgs < min_orgs) {
    throw std::invalid_argument("--max-orgs must be >= --min-orgs");
  }
  std::vector<double> orgs;
  for (std::uint32_t k = min_orgs; k <= max_orgs; ++k) {
    orgs.push_back(static_cast<double>(k));
  }
  spec.axes.push_back(make_axis("orgs", std::move(orgs)));
  apply_axes_override(spec, options);
  char title[256];
  std::snprintf(title, sizeof(title),
                "Figure 10: delta_psi / p_tot vs number of organizations "
                "(%s, duration %lld, %zu instance(s) per point)",
                spec.workloads[0].name.c_str(),
                static_cast<long long>(spec.horizon), spec.instances);
  spec.title = title;
  spec.note =
      "Expected shape (paper Fig. 10): every series grows with the number "
      "of organizations; RoundRobin steepest, Rand/DirectContr flattest.";
  return spec;
}

SweepSpec make_horizon_growth_sweep(const ScenarioOptions& options) {
  if (options.duration != 0) {
    throw std::invalid_argument(
        "horizon-growth sweeps the horizon as an axis; use "
        "--axes=\"horizon=v1,v2,...\" instead of --duration");
  }
  SweepSpec spec;
  spec.name = "horizon-growth";
  spec.policies = {"roundrobin", "rand15", "directcontr", "fairshare"};
  spec.baseline = "ref";
  apply_execution_options(spec, options);
  spec.instances = options.instances ? options.instances
                                     : (options.smoke ? kSmokeInstances : 5);
  spec.workloads.push_back(lpc_workload(options));
  const std::vector<double> horizons =
      options.smoke
          ? std::vector<double>{2500, 5000, 10000}
          : std::vector<double>{12500, 25000, 50000, 100000, 200000, 400000};
  spec.horizon = static_cast<Time>(horizons.front());
  spec.axes.push_back(make_axis("horizon", horizons));
  apply_axes_override(spec, options);
  char title[256];
  std::snprintf(title, sizeof(title),
                "Unfairness vs horizon (%s, %zu instance(s) per point, %u "
                "orgs)",
                spec.workloads[0].name.c_str(), spec.instances, options.orgs);
  spec.title = title;
  spec.note =
      "Expected shape (paper Tables 1 vs 2): every series grows with the "
      "horizon; RoundRobin fastest, Rand slowest.";
  return spec;
}

SweepSpec make_fairshare_decay_sweep(const ScenarioOptions& options) {
  SweepSpec spec;
  spec.name = "fairshare-decay";
  // The half-life axis binds onto decayfairshare; the other policies are
  // the memoryless/infinite-memory extremes and the Shapley-aware /
  // no-policy yardsticks, repeated per axis point as a visual baseline.
  spec.policies = {"currfairshare", "decayfairshare", "fairshare",
                   "directcontr", "random"};
  spec.baseline = "ref";
  apply_execution_options(spec, options);
  spec.horizon = options.duration ? options.duration
                                  : (options.smoke ? kSmokeTableDuration
                                                   : Time{50000});
  spec.instances = options.instances ? options.instances
                                     : (options.smoke ? kSmokeInstances : 10);
  spec.workloads.push_back(lpc_workload(options));
  // Smoke keeps the full four-point axis: it is the CI perf-regression
  // workload for the prefix cache, and the cached/uncached wall-time ratio
  // scales with the number of half-life values sharing one prefix.
  const std::vector<double> half_lives = {500, 2500, 10000, 50000};
  spec.axes.push_back(make_axis("half-life", half_lives));
  apply_axes_override(spec, options);
  char title[256];
  std::snprintf(title, sizeof(title),
                "Fair-share memory ablation on %s: delta_psi / p_tot, "
                "duration %lld, %zu instance(s), %u orgs",
                spec.workloads[0].name.c_str(),
                static_cast<long long>(spec.horizon), spec.instances,
                options.orgs);
  spec.title = title;
  spec.note =
      "Reading: the memoryless (currfairshare) and infinite-memory "
      "(fairshare) extremes bracket the decayed variants; none matches the "
      "contribution-aware DirectContr, reinforcing the paper's conclusion "
      "that static/usage-based shares cannot substitute for measuring "
      "organizations' actual impact.";
  return spec;
}

SweepSpec make_custom_sweep(const ScenarioOptions& options) {
  SweepSpec spec;
  spec.name = "custom";
  apply_execution_options(spec, options);
  spec.horizon = options.duration
                     ? options.duration
                     : (options.smoke ? kSmokeTableDuration : Time{50000});
  spec.instances = options.instances ? options.instances
                                     : (options.smoke ? kSmokeInstances : 10);
  spec.baseline = "ref";
  if (options.policies.empty()) {
    spec.policies = table_policy_names();
  } else {
    for (const PolicySpec& algorithm : parse_policy_list(options.policies)) {
      spec.policies.push_back(canonical_policy_name(algorithm));
    }
  }
  const double scale = options.scale > 0.0
                           ? options.scale
                           : (options.smoke ? kSmokeScale : 16.0);
  const std::string& which = options.workload;
  auto add_synthetic = [&](const SyntheticSpec& preset) {
    SweepWorkload w;
    w.name = preset.name;
    w.kind = SweepWorkload::Kind::kSynthetic;
    w.spec = preset;
    w.orgs = options.orgs;
    w.split = options.split;
    w.zipf_s = options.zipf_s;
    spec.workloads.push_back(std::move(w));
  };
  if (which == "all" || which.empty()) {
    spec.workloads = archive_workloads(options, scale);
  } else if (which == "lpc") {
    add_synthetic(preset_lpc_egee());
  } else if (which == "pik") {
    add_synthetic(preset_pik_iplex(scale));
  } else if (which == "ricc") {
    add_synthetic(preset_ricc(scale));
  } else if (which == "whale") {
    add_synthetic(preset_sharcnet_whale(scale));
  } else if (which == "unit") {
    SweepWorkload w;
    w.name = "unit-jobs";
    w.kind = SweepWorkload::Kind::kUnitJobs;
    w.orgs = options.orgs;
    w.unit_jobs_per_org = options.jobs_per_org ? options.jobs_per_org : 60;
    spec.workloads.push_back(std::move(w));
  } else if (which == "smallrandom") {
    SweepWorkload w;
    w.name = "small-random";
    w.kind = SweepWorkload::Kind::kSmallRandom;
    spec.workloads.push_back(std::move(w));
  } else {
    std::string known;
    for (const WorkloadInfo& info : workload_catalog()) {
      if (!known.empty()) known += "|";
      known += info.name;
    }
    throw std::invalid_argument("--workload must be " + known + ", got '" +
                                which + "'");
  }
  apply_axes_override(spec, options);
  spec.title = custom_sweep_title(spec);
  return spec;
}

namespace {

// Comma-separated list helper for the strategy flags; empty tokens are
// rejected so a trailing comma fails loudly instead of silently.
std::vector<std::string> split_commas(const std::string& text,
                                      const char* flag) {
  std::vector<std::string> tokens;
  std::size_t start = 0;
  while (start <= text.size()) {
    const std::size_t comma = text.find(',', start);
    const std::size_t end = comma == std::string::npos ? text.size() : comma;
    std::string token = text.substr(start, end - start);
    // Trim surrounding spaces so "split:2, merge:2" parses.
    while (!token.empty() && token.front() == ' ') token.erase(0, 1);
    while (!token.empty() && token.back() == ' ') token.pop_back();
    if (token.empty()) {
      throw std::invalid_argument(std::string("--") + flag +
                                  " has an empty entry");
    }
    tokens.push_back(std::move(token));
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  return tokens;
}

}  // namespace

void apply_strategy_axes(SweepSpec& spec, const ScenarioOptions& options) {
  // The deviation grid: honest is always id 0 (the manipulation-gain
  // reference the planner requires); --deviations replaces the rest.
  if (options.deviations.empty()) {
    spec.deviations = strategy::default_deviation_grid();
  } else {
    spec.deviations.clear();
    spec.deviations.push_back(strategy::DeviationSpec{});
    for (const std::string& token :
         split_commas(options.deviations, "deviations")) {
      spec.deviations.push_back(strategy::parse_deviation(token));
    }
  }
  std::vector<double> grid_ids;
  std::vector<std::string> grid_labels;
  for (std::size_t i = 0; i < spec.deviations.size(); ++i) {
    grid_ids.push_back(static_cast<double>(i));
    grid_labels.push_back(strategy::deviation_label(spec.deviations[i]));
  }
  SweepAxis grid_axis = make_axis("strategy", std::move(grid_ids));
  grid_axis.value_labels = std::move(grid_labels);
  spec.axes.push_back(std::move(grid_axis));

  // --deviator-orgs turns the deviating organization into a second axis;
  // without it organization 0 deviates (the planner's default).
  if (!options.deviator_orgs.empty()) {
    std::vector<double> orgs;
    for (const std::string& token :
         split_commas(options.deviator_orgs, "deviator-orgs")) {
      std::size_t used = 0;
      const long value = std::stol(token, &used);
      if (used != token.size() || value < 0) {
        throw std::invalid_argument(
            "--deviator-orgs entries must be non-negative organization "
            "indices, got '" + token + "'");
      }
      orgs.push_back(static_cast<double>(value));
    }
    spec.axes.push_back(make_axis("deviator-org", std::move(orgs)));
  }
}

SweepSpec make_strategy_sweep(const ScenarioOptions& options) {
  SweepSpec spec;
  spec.name = "strategy";
  // Policies spanning the grading contrast: fcfs grades jobs by arrival
  // (flow-sensitive, manipulable); the fair-share family and DirectContr
  // are the paper's deployable candidates.
  spec.policies = {"fcfs",        "roundrobin",    "fairshare",
                   "utfairshare", "currfairshare", "directcontr"};
  spec.baseline = "ref";
  apply_execution_options(spec, options);
  spec.horizon = options.duration ? options.duration
                                  : (options.smoke ? kSmokeTableDuration
                                                   : Time{20000});
  // Four smoke instances, not the usual two: the per-deviation gains the
  // Thm 4.1 check averages are scheduling-noisy, and two windows are not
  // enough to keep the share-graded means inside tolerance.
  spec.instances =
      options.instances ? options.instances : (options.smoke ? 4 : 5);
  // A deliberately contended platform: on an underloaded consortium a
  // deviation soaks idle machines, which rewards any manipulation under
  // any policy and drowns the Theorem 4.1 contrast. Scaling the LPC
  // processor count down (default 1/4) keeps the platform saturated so a
  // deviator's extra slots must come out of the shared capacity the
  // policies arbitrate. --scale overrides.
  SweepWorkload contended = lpc_workload(options);
  const double scale = options.scale > 0.0 ? options.scale : 4.0;
  contended.spec.total_machines = std::max<std::uint32_t>(
      options.orgs,
      static_cast<std::uint32_t>(
          static_cast<double>(contended.spec.total_machines) / scale));
  spec.workloads.push_back(std::move(contended));
  apply_strategy_axes(spec, options);
  apply_axes_override(spec, options);

  char title[256];
  std::snprintf(title, sizeof(title),
                "Strategic deviations (Thm 4.1): %zu deviation(s) x %zu "
                "policies on %s, duration %lld, %zu instance(s), %u orgs",
                spec.deviations.size(), spec.policies.size(),
                spec.workloads[0].name.c_str(),
                static_cast<long long>(spec.horizon), spec.instances,
                options.orgs);
  spec.title = title;
  spec.note =
      "Reading (paper Thm 4.1 / Prop 4.2): grading by the psi_sp utility "
      "leaves ~zero gain under split/merge/delay — the measure is "
      "resistant to workload manipulation — while flow-time grading "
      "rewards splitting, so flow-graded schedulers invite it.";
  return spec;
}

SweepSpec make_scenario_sweep(const std::string& command,
                              const ScenarioOptions& options) {
  if (command == "table1" || command == "table2") {
    return make_table_sweep(command, options);
  }
  if (command == "fig10") return make_fig10_sweep(options);
  if (command == "horizon-growth") return make_horizon_growth_sweep(options);
  if (command == "fairshare-decay") {
    return make_fairshare_decay_sweep(options);
  }
  if (command == "strategy") return make_strategy_sweep(options);
  if (command == "custom") {
    return options.config_path.empty()
               ? make_custom_sweep(options)
               : load_sweep_config_file(options.config_path, options);
  }
  throw std::invalid_argument(
      "'" + command +
      "' is not a shardable sweep scenario; expected table1, table2, "
      "fig10, horizon-growth, fairshare-decay, strategy or custom");
}

bool is_scenario_sweep(const std::string& command) {
  return command == "table1" || command == "table2" || command == "fig10" ||
         command == "horizon-growth" || command == "fairshare-decay" ||
         command == "strategy" || command == "custom";
}

std::vector<SweepSpec> make_ref_scaling_sweeps(
    const ScenarioOptions& options) {
  reject_axes("ref-scaling", options);
  reject_sharding("ref-scaling", options);
  std::vector<SweepSpec> sweeps;

  // Sweep 1: REF's cost vs the number of organizations at a fixed
  // horizon — the exponential (~3^k) FPT parameter of Prop. 3.4.
  {
    SweepSpec spec;
    spec.name = "ref-scaling-orgs";
    spec.policies = {"ref"};
    spec.baseline = "";  // REF is the subject here, not the reference
    apply_execution_options(spec, options);
    spec.horizon = options.duration ? options.duration
                                    : (options.smoke ? Time{500} : Time{2000});
    spec.instances =
        options.instances ? options.instances : (options.smoke ? 1 : 3);
    spec.workloads.push_back(lpc_workload(options));
    const std::uint32_t min_orgs = options.min_orgs ? options.min_orgs : 2;
    const std::uint32_t max_orgs =
        options.max_orgs ? options.max_orgs : (options.smoke ? 4 : 8);
    if (max_orgs < min_orgs) {
      throw std::invalid_argument("--max-orgs must be >= --min-orgs");
    }
    std::vector<double> orgs;
    for (std::uint32_t k = min_orgs; k <= max_orgs; ++k) {
      orgs.push_back(static_cast<double>(k));
    }
    spec.axes.push_back(make_axis("orgs", std::move(orgs)));
    char title[256];
    std::snprintf(title, sizeof(title),
                  "REF scaling vs organizations (Prop. 3.4): %s, duration "
                  "%lld, %zu instance(s) per point",
                  spec.workloads[0].name.c_str(),
                  static_cast<long long>(spec.horizon), spec.instances);
    spec.title = title;
    spec.note =
        "Expected shape (Prop. 3.4 / Cor. 3.5): per-run wall time grows "
        "roughly 3x per added organization (FPT in k).";
    sweeps.push_back(std::move(spec));
  }

  // Sweep 2: REF's cost vs the window length at a fixed consortium — the
  // polynomial part of the FPT claim (runtime ~linear in the jobs).
  {
    SweepSpec spec;
    spec.name = "ref-scaling-jobs";
    spec.policies = {"ref"};
    spec.baseline = "";
    apply_execution_options(spec, options);
    spec.instances =
        options.instances ? options.instances : (options.smoke ? 1 : 3);
    spec.workloads.push_back(lpc_workload(options));
    const std::vector<double> horizons =
        options.smoke ? std::vector<double>{250, 500, 1000}
                      : std::vector<double>{1000, 2000, 4000, 8000};
    spec.horizon = static_cast<Time>(horizons.front());
    spec.axes.push_back(make_axis("horizon", horizons));
    char title[256];
    std::snprintf(title, sizeof(title),
                  "REF scaling vs window length (Cor. 3.5): %s, %u orgs, "
                  "%zu instance(s) per point",
                  spec.workloads[0].name.c_str(), options.orgs,
                  spec.instances);
    spec.title = title;
    spec.note =
        "Expected shape: per-run wall time grows ~linearly (times log "
        "factors) with the horizon/job count.";
    sweeps.push_back(std::move(spec));
  }
  return sweeps;
}

std::string custom_sweep_title(const SweepSpec& spec) {
  char title[256];
  std::snprintf(title, sizeof(title),
                "Custom sweep: %zu policies x %zu workload(s) x %zu axis "
                "point(s), duration %lld, %zu instance(s)",
                spec.policies.size(), spec.workloads.size(),
                num_axis_points(spec), static_cast<long long>(spec.horizon),
                spec.instances);
  return title;
}

int report_sweep(const SweepSpec& spec, const SweepResult& result,
                 const ScenarioOptions& options, const char* partial_note) {
  std::FILE* human = human_file(options);
  TableReporter table(human_stream(options));
  table.report(spec, result);
  print_cache_stats(result, human);
  if (partial_note) std::fputs(partial_note, human);
  int thm41_rc = 0;
  if (spec.is_strategy() && !partial_note) {
    strategy::print_strategy_report(spec, result, human_stream(options));
    if (options.check_thm41) {
      thm41_rc = strategy::check_theorem41(spec, result,
                                           options.thm41_tolerance,
                                           human_stream(options))
                     ? 1
                     : 0;
    }
  }
  if (!spec.note.empty()) std::fprintf(human, "\n%s\n", spec.note.c_str());

  if (const int rc = emit_csv_output(spec, result, options)) return rc;
  if (const int rc = emit_json_baseline(spec, result, options)) return rc;
  return thm41_rc;
}

int run_sweep_scenario(const SweepSpec& spec,
                       const ScenarioOptions& options) {
  const SweepShard shard = parse_shard_spec(options.shard);
  if (options.partial_out == "-") {
    throw std::invalid_argument("--partial-out must be a file path");
  }
  if (options.processes > 1) {
    if (!shard.whole()) {
      throw std::invalid_argument(
          "--processes and --shard are mutually exclusive: --processes "
          "partitions the whole sweep itself");
    }
    if (!options.partial_out.empty()) {
      throw std::invalid_argument(
          "--processes merges its workers' artifacts in-process; use "
          "--shard workers for explicit --partial-out files");
    }
    if (!options.stream_records_path.empty()) {
      throw std::invalid_argument(
          "--stream-records does not cross process boundaries; run the "
          "shards explicitly (--shard=i/N --stream-records=...) and keep "
          "their per-shard streams");
    }
  }
  const bool worker = !options.partial_out.empty();
  if (worker &&
      (!options.csv_path.empty() || !options.json_path.empty())) {
    // Cell aggregates belong to the merged whole; per-run records are
    // inherently per-shard, so --stream-records stays valid on a worker.
    throw std::invalid_argument(
        "--partial-out writes only the shard artifact; put --csv/--json "
        "on the `merge` invocation instead");
  }

  std::FILE* human = human_file(options);
  if (!worker && !spec.title.empty()) {
    std::fprintf(human, "%s\n", spec.title.c_str());
  }

  StreamRecords stream;
  if (const int rc = open_stream_records(spec, options, stream)) return rc;
  SweepDriver::RecordSink sink;
  if (stream.csv) {
    sink = [&stream](const RunRecord& record) { stream.csv->write(record); };
  }
  SweepDriver::Progress progress;
  if (!worker) {
    progress = [human](const std::string& message) {
      std::fprintf(human, "  finished %s\n", message.c_str());
      std::fflush(human);
    };
  }

  const SweepPlan plan =
      build_sweep_plan(spec, PolicyRegistry::global(), shard);
  SweepResult result;
  if (options.processes > 1) {
    if (options.program.empty() || options.raw_args.empty()) {
      throw std::invalid_argument(
          "--processes needs the harness's own command line; run through "
          "fairsched_exp (or use --shard workers and `merge` manually)");
    }
    result = run_local_sessions(plan, options.raw_args.front(), options,
                                progress);
  } else {
    ThreadPoolExecutor executor;
    result = executor.execute(plan, progress, sink);
  }

  if (worker) {
    // A shard worker reports nothing itself: its whole output is the
    // artifact (plus one stderr breadcrumb), and `merge` does the rest.
    std::ofstream out(options.partial_out);
    if (!out) {
      std::fprintf(stderr, "cannot open shard artifact output: %s\n",
                   options.partial_out.c_str());
      return 2;
    }
    write_shard_artifact(out, plan, result);
    out.flush();
    if (!out.good()) {
      std::fprintf(stderr, "failed writing shard artifact: %s\n",
                   options.partial_out.c_str());
      return 2;
    }
    if (stream.file.is_open()) {
      std::fprintf(stderr, "shard %zu/%zu: wrote per-run CSV: %s\n",
                   shard.index, shard.count,
                   options.stream_records_path.c_str());
    }
    std::fprintf(stderr, "shard %zu/%zu: wrote %s (%zu of %zu tasks)\n",
                 shard.index, shard.count, options.partial_out.c_str(),
                 plan.shard_tasks.size(), plan.num_tasks);
    return 0;
  }

  if (stream.file.is_open()) {
    std::fprintf(human, "wrote per-run CSV: %s\n",
                 options.stream_records_path.c_str());
  }

  if (shard.whole()) return report_sweep(spec, result, options);
  char partial_note[256];
  std::snprintf(partial_note, sizeof(partial_note),
                "note: partial result of shard %zu/%zu — cells owned by "
                "other shards read as zero (write --partial-out files "
                "and `merge` them for the full sweep)\n",
                shard.index, shard.count);
  return report_sweep(spec, result, options, partial_note);
}

namespace {

// Engine-core microbenchmark behind `ref-scaling --smoke`: one REF run on
// the largest-orgs point of the orgs sweep (bit-identical instance — same
// workload binding and seed derivation as the sweep's own cell), reporting
// the incremental engine's throughput. Event and decision counts are
// deterministic for the fixed smoke configuration, so the perf gate
// (scripts/compare_bench.py) compares them exactly — a change means the
// engine's event stream or decision sequence changed, which the
// equivalence contract forbids — while the wall-clock rates are gated only
// with generous slack.
int emit_ref_engine_microbench(const SweepSpec& orgs_spec,
                               double ref_wall_ms_per_run,
                               const ScenarioOptions& options) {
  const std::uint32_t largest_orgs = static_cast<std::uint32_t>(
      orgs_spec.axes[0].values.back());
  SweepWorkload workload = orgs_spec.workloads[0];
  workload.orgs = largest_orgs;
  const Time horizon = orgs_spec.horizon;
  const Instance inst = make_workload_instance(
      workload, horizon, mix_seed(orgs_spec.seed, 0));

  const auto t0 = std::chrono::steady_clock::now();
  RefScheduler ref(inst);
  ref.run(horizon);
  const double wall_ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - t0)
          .count();

  // Totals across all 2^k - 1 coalition engines — the work the unified
  // event stream actually drove.
  std::uint64_t events = 0;
  std::uint64_t decisions = 0;
  const Coalition grand = Coalition::grand(inst.num_orgs());
  for (Coalition::Mask mask = 1; mask <= grand.mask(); ++mask) {
    const Engine& engine = ref.engine(Coalition(mask));
    events += engine.events_processed();
    decisions += engine.decisions_made();
  }
  const double secs = wall_ms / 1000.0;

  std::FILE* human = human_file(options);
  std::fprintf(human,
               "engine microbench (orgs=%u, horizon=%lld): %llu events, "
               "%llu decisions in %.2f ms (%.0f events/s, %.0f "
               "decisions/s)\n",
               largest_orgs, static_cast<long long>(horizon),
               static_cast<unsigned long long>(events),
               static_cast<unsigned long long>(decisions), wall_ms,
               secs > 0 ? static_cast<double>(events) / secs : 0.0,
               secs > 0 ? static_cast<double>(decisions) / secs : 0.0);
  if (!options.smoke) return 0;

  const std::string path = "BENCH_ref-scaling.json";
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "cannot open JSON output: %s\n", path.c_str());
    return 2;
  }
  out << "{\n";
  out << "  \"sweep\": \"ref-scaling\",\n";
  out << "  \"largest_orgs\": " << largest_orgs << ",\n";
  out << "  \"horizon\": " << horizon << ",\n";
  out << "  \"ref_wall_ms_per_run\": " << json_exact_double(ref_wall_ms_per_run)
      << ",\n";
  out << "  \"engine\": {\n";
  out << "    \"events\": " << events << ",\n";
  out << "    \"decisions\": " << decisions << ",\n";
  out << "    \"wall_ms\": " << json_exact_double(wall_ms) << ",\n";
  out << "    \"events_per_sec\": "
      << json_exact_double(secs > 0 ? static_cast<double>(events) / secs : 0.0)
      << ",\n";
  out << "    \"decisions_per_sec\": "
      << json_exact_double(
             secs > 0 ? static_cast<double>(decisions) / secs : 0.0)
      << "\n";
  out << "  }\n";
  out << "}\n";
  std::fprintf(human, "wrote perf baseline: %s\n", path.c_str());
  return 0;
}

}  // namespace

int run_ref_scaling_scenario(const ScenarioOptions& options) {
  if (!options.csv_path.empty() || !options.json_path.empty() ||
      !options.stream_records_path.empty()) {
    throw std::invalid_argument(
        "ref-scaling runs two sweeps, so --csv/--json/--stream-records "
        "are ambiguous; --smoke still writes one BENCH_ref-scaling-*.json "
        "per sweep");
  }
  const std::vector<SweepSpec> sweeps = make_ref_scaling_sweeps(options);
  std::FILE* human = human_file(options);
  double largest_orgs_wall_ms_per_run = 0.0;
  for (const SweepSpec& spec : sweeps) {
    std::fprintf(human, "%s\n", spec.title.c_str());
    SweepDriver driver;
    const SweepResult result = driver.run(spec);
    // The subject is REF's running time, so the summary is the wall-time
    // column the generic unfairness table would bury.
    AsciiTable table(
        {spec.axes[0].name, "runs", "wall ms/run", "work done"});
    for (std::size_t a = 0; a < result.axis_points; ++a) {
      const SweepCell& cell = result.cell(spec, a, 0, 0);
      const std::size_t runs = cell.utilization.count();
      const double per_run =
          runs ? cell.wall_ms / static_cast<double>(runs) : 0.0;
      if (spec.name == "ref-scaling-orgs" && a + 1 == result.axis_points) {
        largest_orgs_wall_ms_per_run = per_run;
      }
      table.add_row(
          {axis_value_label(spec.axes[0], axis_point_values(spec, a)[0]),
           std::to_string(runs), AsciiTable::format_double(per_run, 2),
           std::to_string(cell.work_done)});
    }
    std::fputs(table.to_string().c_str(), human);
    print_cache_stats(result, human);
    if (const int rc = emit_json_baseline(spec, result, options)) return rc;
    std::fprintf(human, "\n%s\n\n", spec.note.c_str());
  }
  return emit_ref_engine_microbench(sweeps[0], largest_orgs_wall_ms_per_run,
                                    options);
}

int run_merge_scenario(const std::vector<std::string>& paths,
                       const ScenarioOptions& options) {
  if (paths.empty()) {
    throw std::invalid_argument(
        "merge needs shard artifact paths: fairsched_exp merge "
        "shard-0.json shard-1.json ...");
  }
  if (!options.stream_records_path.empty()) {
    throw std::invalid_argument(
        "merge folds cell aggregates; per-run records live in the shards' "
        "own --stream-records files");
  }
  reject_sharding("merge", options);

  std::vector<ShardArtifact> artifacts;
  artifacts.reserve(paths.size());
  for (const std::string& path : paths) {
    artifacts.push_back(load_shard_artifact(path));
  }
  const MergedSweep merged = merge_shard_artifacts(std::move(artifacts));
  const SweepSpec& spec = merged.spec;
  const SweepResult& result = merged.result;

  std::FILE* human = human_file(options);
  if (!spec.title.empty()) std::fprintf(human, "%s\n", spec.title.c_str());
  std::fprintf(human, "merged %zu shard artifact(s)\n", result.shards);

  // Merged strategy shards report exactly like the equivalent whole run:
  // the gain report derives from the folded cell aggregates alone.
  return report_sweep(spec, result, options);
}

int run_plan_scenario(const SweepSpec& spec,
                      const ScenarioOptions& options) {
  if (!options.partial_out.empty() || options.processes > 1) {
    throw std::invalid_argument(
        "plan only prints the sweep plan; --partial-out/--processes "
        "belong on the executing invocation");
  }
  const SweepPlan plan = build_sweep_plan(spec, PolicyRegistry::global(),
                                          parse_shard_spec(options.shard));
  write_plan_json(std::cout, plan);
  return 0;
}

namespace {

// Prefers one organization's jobs unconditionally; used to realize the
// short-jobs-first / long-jobs-first extremes of the Figure 7 example.
class PriorityPolicy final : public Policy {
 public:
  explicit PriorityPolicy(OrgId preferred) : preferred_(preferred) {}
  OrgId select(const PolicyView& view) override {
    if (view.waiting(preferred_) > 0) return preferred_;
    for (OrgId u = 0; u < view.num_orgs(); ++u) {
      if (view.waiting(u) > 0) return u;
    }
    throw std::logic_error("no waiting job");
  }

 private:
  OrgId preferred_;
};

// m short jobs (size p) for O1, m/2 long jobs (size 2p) for O2, m machines,
// all released at 0; horizon 2p. Short-first wastes m/2 machines over the
// second half: utilization (m*p + (m/2)*p) / (m*2p) = 3/4.
Instance adversarial(std::uint32_t m, Time p) {
  InstanceBuilder b;
  const OrgId o1 = b.add_org("short", m / 2);
  const OrgId o2 = b.add_org("long", m - m / 2);
  for (std::uint32_t i = 0; i < m; ++i) b.add_job(o1, 0, p);
  for (std::uint32_t i = 0; i < m / 2; ++i) b.add_job(o2, 0, 2 * p);
  return std::move(b).build();
}

double run_priority(const Instance& inst, OrgId pref, Time horizon) {
  Engine e(inst);
  PriorityPolicy policy(pref);
  e.run(policy, horizon);
  return utilization_ratio(e.total_work_done(), inst.total_machines(),
                           horizon);
}

}  // namespace

int run_utilization_scenario(const ScenarioOptions& options) {
  // Built first so option validation (e.g. the --axes rejection) fails
  // before any output.
  const SweepSpec spec = make_utilization_sweep(options);
  std::FILE* human = human_file(options);
  // --- Part 1: Figure 7 ----------------------------------------------------
  std::fprintf(human, "Figure 7: greedy resource utilization example (T = 6)\n");
  {
    const Instance inst = adversarial(4, 3);
    const double good = run_priority(inst, 1, 6);
    const double bad = run_priority(inst, 0, 6);
    std::fprintf(human, "  long-jobs-first greedy : %.0f%% utilization\n",
                 good * 100.0);
    std::fprintf(human, "  short-jobs-first greedy: %.0f%% utilization\n",
                 bad * 100.0);
    std::fprintf(human, "  ratio: %.4f (paper: 0.75 exactly)\n\n", bad / good);
  }

  // --- Part 2: adversarial family ------------------------------------------
  std::fprintf(human, "Adversarial family (Thm 6.2 tightness): ratio vs m\n");
  AsciiTable family({"machines", "p", "short-first", "long-first", "ratio"});
  for (std::uint32_t m : {4u, 8u, 16u, 64u, 256u}) {
    for (Time p : {3, 10, 100}) {
      const Instance inst = adversarial(m, p);
      const double good = run_priority(inst, 1, 2 * p);
      const double bad = run_priority(inst, 0, 2 * p);
      family.add_row({std::to_string(m), std::to_string(p),
                      AsciiTable::format_double(bad, 4),
                      AsciiTable::format_double(good, 4),
                      AsciiTable::format_double(bad / good, 4)});
    }
  }
  std::fputs(family.to_string().c_str(), human);

  // --- Part 3: random instances through the sweep driver --------------------
  std::fprintf(human, "\n%s\n", spec.title.c_str());

  // The per-run utilizations and seeds are consumed from the streaming
  // sink (the driver retains only cell aggregates); O(instances) here is
  // this scenario's own working set, not the driver's.
  std::vector<std::vector<double>> utils(
      spec.instances, std::vector<double>(spec.policies.size(), 0.0));
  std::vector<std::uint64_t> seeds(spec.instances, 0);
  StreamRecords stream;
  if (const int rc = open_stream_records(spec, options, stream)) return rc;
  SweepDriver::RecordSink sink = [&](const RunRecord& record) {
    utils[record.instance][record.policy] = record.utilization;
    seeds[record.instance] = record.seed;
    if (stream.csv) stream.csv->write(record);
  };

  SweepDriver driver;
  const SweepResult result = driver.run(spec, nullptr, sink);

  double worst = 1.0;
  std::size_t below = 0;
  for (std::size_t i = 0; i < spec.instances; ++i) {
    double lo = 1.0, hi = 0.0;
    for (std::size_t p = 0; p < spec.policies.size(); ++p) {
      const double util = utils[i][p];
      lo = std::min(lo, util);
      hi = std::max(hi, util);
    }
    // The registry policies are comparatively tame; the priority extremes
    // (one per organization, regenerated from the run's recorded seed) are
    // the greedy schedules that approach the 3/4 bound.
    const std::uint64_t seed = seeds[i];
    const Instance inst =
        make_workload_instance(spec.workloads[0], spec.horizon, seed);
    for (OrgId pref = 0; pref < inst.num_orgs(); ++pref) {
      const double util = run_priority(inst, pref, spec.horizon);
      lo = std::min(lo, util);
      hi = std::max(hi, util);
    }
    if (hi > 0.0) {
      const double ratio = lo / hi;
      worst = std::min(worst, ratio);
      if (ratio < 0.75) ++below;
    }
    // Re-probe the same instance at a randomized horizon (20-79, as the
    // pre-harness bench did): a violation that only shows when the horizon
    // truncates mid-job would be invisible at the sweep's fixed horizon.
    Rng rng(mix_seed(seed, 0x6b2));
    const Time horizon = 20 + static_cast<Time>(rng.uniform_u64(60));
    lo = 1.0;
    hi = 0.0;
    for (OrgId pref = 0; pref < inst.num_orgs(); ++pref) {
      const double util = run_priority(inst, pref, horizon);
      lo = std::min(lo, util);
      hi = std::max(hi, util);
    }
    for (const char* alg : {"fcfs", "roundrobin", "fairshare"}) {
      const RunResult r =
          PolicyRegistry::global().run(inst, alg, horizon, seed);
      const double util =
          utilization_ratio(r.work_done, inst.total_machines(), horizon);
      lo = std::min(lo, util);
      hi = std::max(hi, util);
    }
    if (hi > 0.0) {
      const double ratio = lo / hi;
      worst = std::min(worst, ratio);
      if (ratio < 0.75) ++below;
    }
  }
  std::fprintf(human,
               "  worst pairwise greedy ratio: %.4f  (violations of 0.75: "
               "%zu; Thm 6.2 guarantees >= 0.75)\n",
               worst, below);
  print_cache_stats(result, human);

  if (const int rc = emit_csv_output(spec, result, options)) return rc;
  const int json_rc = emit_json_baseline(spec, result, options);
  if (below > 0) return 1;
  return json_rc;
}

int run_rand_convergence_scenario(const ScenarioOptions& options) {
  const SweepSpec spec = make_rand_convergence_sweep(options);
  std::FILE* human = human_file(options);
  std::fprintf(human, "%s\n\n", spec.title.c_str());

  StreamRecords stream;
  if (const int rc = open_stream_records(spec, options, stream)) return rc;
  SweepDriver::RecordSink sink;
  if (stream.csv) {
    sink = [&stream](const RunRecord& record) { stream.csv->write(record); };
  }

  SweepDriver driver;
  const SweepResult result = driver.run(spec, nullptr, sink);

  AsciiTable table({"N (samples)", "rel. distance avg", "rel. distance max"});
  for (std::size_t p = 0; p < spec.policies.size(); ++p) {
    const StatsAccumulator& acc = result.cell(spec, 0, 0, p).rel_distance;
    table.add_row({spec.policies[p].substr(4),
                   AsciiTable::format_double(acc.mean(), 5),
                   AsciiTable::format_double(acc.max(), 5)});
  }
  std::fputs(table.to_string().c_str(), human);

  std::fprintf(human,
               "\nHoeffding sample bounds N = ceil(k^2/eps^2 ln(k/(1-l))):\n");
  AsciiTable bounds({"k", "eps", "lambda", "N"});
  for (std::uint32_t kk : {3u, 5u, 10u}) {
    for (double eps : {0.5, 0.1}) {
      for (double lambda : {0.9, 0.99}) {
        bounds.add_row(
            {std::to_string(kk), AsciiTable::format_double(eps, 2),
             AsciiTable::format_double(lambda, 2),
             std::to_string(rand_theorem_samples(kk, eps, lambda))});
      }
    }
  }
  std::fputs(bounds.to_string().c_str(), human);
  print_cache_stats(result, human);
  std::fprintf(human, "\n%s\n", spec.note.c_str());

  if (const int rc = emit_csv_output(spec, result, options)) return rc;
  return emit_json_baseline(spec, result, options);
}

}  // namespace fairsched::exp
