#pragma once

// The paper's experiments as data over the sweep driver. Each scenario
// builds a SweepSpec (policies x workloads x seeds x parameter axes), runs
// it, and reports through the pluggable reporters. The bench/ binaries and
// the fairsched_exp subcommands are both thin shells over these entry
// points.

#include <cstdint>
#include <string>
#include <vector>

#include "core/types.h"
#include "exp/sweep.h"
#include "exp/sweep_plan.h"
#include "util/cli.h"
#include "workload/assignment.h"

namespace fairsched::exp {

struct ScenarioOptions {
  std::size_t instances = 0;  // 0 = scenario default
  Time duration = 0;          // 0 = scenario default
  std::uint32_t orgs = 5;
  std::uint64_t seed = 2013;
  // Machine down-scaling of the big archives. 0 = scenario default (16,
  // or 64 under --smoke); an explicit value always wins, smoke or not.
  double scale = 0.0;
  std::size_t threads = 0;
  bool smoke = false;  // tiny instance counts + BENCH_<name>.json baseline
  // Workload/baseline cache budget: --cache-mb (default: the library's
  // kDefaultCacheBytes) and the --no-cache escape hatch. cache_bytes()
  // folds both into the SweepSpec field (0 = disabled). Purely a time
  // optimization: output is bit-identical with the cache on or off.
  std::size_t cache_mb = kDefaultCacheBytes >> 20;
  bool no_cache = false;
  std::size_t cache_bytes() const {
    return no_cache ? 0 : cache_mb * (std::size_t{1} << 20);
  }

  // Planner/executor split (docs/ARCHITECTURE.md). --shard=i/N executes
  // only shard i of the plan's N-way partition (by prefix family, so
  // cache locality survives); --partial-out writes the shard's result as
  // a versioned artifact for `fairsched_exp merge`; --processes=N runs
  // the N shards on N local shard-worker sessions through the dispatcher
  // and merges their artifacts — output stays bit-identical to a
  // single-process run.
  std::string shard;        // "" = whole run
  std::string partial_out;  // "" = report normally
  std::size_t processes = 0;  // 0/1 = in-process execution

  // How `fairsched_exp` was invoked, for the workers `--processes` and
  // `dispatch` start: the resolved program path and every original argv
  // token after it (subcommand included). Filled by exp_main.
  std::string program;
  std::vector<std::string> raw_args;
  MachineSplit split = MachineSplit::kZipf;
  double zipf_s = 1.0;
  std::string csv_path;   // "" = none, "-" = stdout (cell aggregates)
  std::string json_path;  // "" = none (smoke emits BENCH_<name>.json)
  // Streaming per-run CSV sink: "" = none, "-" = stdout, else a file path.
  // Rows are written as runs are folded, so memory stays O(cells).
  std::string stream_records_path;
  std::uint32_t jobs_per_org = 0;  // rand-convergence; 0 = scenario default

  // Axis overrides, e.g. "orgs=2:7;zipf-s=0.5,1". Empty keeps each
  // scenario's default axes ("custom" then has none).
  std::string axes;
  // `custom` subcommand.
  std::string policies;     // comma-separated registry names
  std::string workload;     // see workload_catalog()
  std::string config_path;  // sweep config file (see exp/sweep_config.h)

  // `fig10` subcommand: bounds of the default organizations axis.
  std::uint32_t min_orgs = 0;  // 0 = scenario default
  std::uint32_t max_orgs = 0;  // 0 = scenario default

  // `strategy` subcommand (src/strategy, Thm 4.1). --deviations is a
  // comma-separated list of deviation labels / kind:param entries (see
  // strategy/deviation.h); the honest reference is always prepended as
  // grid id 0. Empty = the default grid. --deviator-orgs turns the
  // deviating organization into an axis; empty = organization 0.
  // --check-thm41 machine-checks the Theorem 4.1 contrast after the
  // manipulation-gain report (nonzero exit on violation), with
  // --thm41-tolerance percentage points of psi_sp slack.
  std::string deviations;
  std::string deviator_orgs;
  bool check_thm41 = false;
  double thm41_tolerance = 2.0;

  // `serve` / `replay` subcommands (src/serve, docs/ARCHITECTURE.md).
  // --source: "synthetic" (open-loop generator), "stdin"/"-", or a trace
  // file path. --policy: any policy-shaped registry name (config-defined
  // entries included via --config). --duration doubles as the serve
  // horizon (0 = drain), --orgs/--seed/--zipf-s parameterize the
  // synthetic source.
  std::string source = "synthetic";
  std::string policy = "fairshare";
  std::string decisions_path;     // decision stream: "" = none, "-" = stdout
  std::string record_trace_path;  // echo consumed events as a trace file
  std::uint64_t stats_interval = 0;   // arrivals between stats lines
  std::uint64_t serve_events = 0;     // synthetic arrivals; 0 = default
  double arrival_rate = 0.0;          // synthetic rate; 0 = default
  std::uint32_t machines_per_org = 1;
  bool orgs_explicit = false;  // --orgs given (serve smoke picks 10^5 else)

  // `dispatch` subcommand (src/dist, docs/DISTRIBUTED.md). --workers is a
  // comma-separated list of `local` / `ssh:HOST` entries, each with an
  // optional `*N` multiplier; --hosts adds one entry per line of a host
  // file. --sweep names the scenario the workers rebuild (any shardable
  // sweep subcommand; default custom).
  std::string workers_spec;           // "" = the local*2 default
  std::string hosts_path;             // host file; entries add to --workers
  std::string ssh_command = "ssh";    // --ssh-cmd (CI: scripts/fake_ssh.py)
  std::string remote_program;         // "" = same path as this binary
  std::string sweep = "custom";
  std::size_t dispatch_shards = 0;    // --shards; 0 = one per worker
  std::size_t worker_threads = 0;     // 0 = local budget / worker count
  // --worker-threads was given explicitly. Without it, remote workers get
  // request.threads = 0 ("use your own hardware concurrency") and a loud
  // warning — dividing the *local* budget across remote hosts is the
  // classic footgun.
  bool worker_threads_explicit = false;
  std::size_t timeout_ms = 0;         // per-shard attempt timeout; 0 = none
  std::size_t retries = 2;            // extra attempts per shard
  std::size_t backoff_ms = 250;       // exponential retry backoff base
  std::size_t backoff_cap_ms = 5000;  // backoff ceiling
  std::string artifact_dir = "dispatch-artifacts";
  std::string dispatch_log_path;      // "" = <artifact-dir>/dispatch.log.jsonl
  bool resume_dispatch = false;       // --resume
  bool dry_run = false;               // --dry-run: print the assignment plan
  bool speculate = false;          // --speculate: straggler re-execution
  double speculate_factor = 2.0;   // --speculate-factor (p50 multiplier)
  // --dispatch-bench: time spawn-per-attempt (the one-shot shard-worker)
  // vs persistent sessions over --bench-repeats repeats of the same
  // dispatch and write the BENCH_dispatch.json record instead of the
  // normal reports.
  bool dispatch_bench = false;
  std::size_t bench_repeats = 3;
};

// Parses the harness-wide flags (--instances, --duration, --orgs, --seed,
// --scale, --threads, --split, --zipf-s, --smoke, --csv, --json,
// --stream-records, --axes, --config, --policies, --workload, --min-orgs,
// --max-orgs, --jobs-per-org, --cache-mb, --no-cache, --shard,
// --partial-out, --processes).
ScenarioOptions scenario_options_from_flags(const Flags& flags);

// The workload kinds the `custom` subcommand / sweep configs accept, with
// one-line descriptions (printed by `fairsched_exp list-workloads`).
struct WorkloadInfo {
  std::string name;
  std::string description;
};
const std::vector<WorkloadInfo>& workload_catalog();

// Tables 1-2: unfairness delta_psi / p_tot of the polynomial algorithms
// against REF over the four archive-shaped workloads. `which` is "table1"
// (duration 5*10^4) or "table2" (duration 5*10^5).
SweepSpec make_table_sweep(const std::string& which,
                           const ScenarioOptions& options);

// Thm 5.6 / FPRAS: RAND's distance to REF as the sample count N grows, on
// unit jobs.
SweepSpec make_rand_convergence_sweep(const ScenarioOptions& options);

// Thm 6.2 random probe: utilization of greedy policies on small random
// consortia (the adversarial 3/4-tightness family is checked separately by
// run_utilization_scenario).
SweepSpec make_utilization_sweep(const ScenarioOptions& options);

// Fig. 10: unfairness vs the number of organizations on LPC-EGEE, as an
// `orgs` axis (paper: 2..10; default stops at 7 — REF grows ~3^k).
SweepSpec make_fig10_sweep(const ScenarioOptions& options);

// The Table 1 -> Table 2 transition as a series: unfairness vs the
// experiment horizon on LPC-EGEE, as a `horizon` axis.
SweepSpec make_horizon_growth_sweep(const ScenarioOptions& options);

// Fair-share memory ablation: decayed-usage fair share across a
// `half-life` axis, bracketed by the memoryless/infinite-memory extremes
// and the DirectContr / Random yardsticks.
SweepSpec make_fairshare_decay_sweep(const ScenarioOptions& options);

// Free-form sweep from --policies / --workload / --axes.
SweepSpec make_custom_sweep(const ScenarioOptions& options);

// Theorem 4.1 manipulation sweep: one organization deviates (split /
// merge / delay / misreport, strategy/deviation.h) while the policies
// schedule the declared workload; the strategy axis plays the grid and
// every deviation of a cell shares the honest window + REF baseline
// through the workload cache. Reported through
// strategy::print_strategy_report (gain vs honest + best response).
SweepSpec make_strategy_sweep(const ScenarioOptions& options);

// The strategy dimensions alone: fills spec.deviations from
// options.deviations (default grid when empty; the honest reference is
// always grid id 0), appends the `strategy` axis with human-readable
// value labels, and the `deviator-org` axis when options.deviator_orgs
// is non-empty. Shared by make_strategy_sweep and the sweep-config
// [strategy] block.
void apply_strategy_axes(SweepSpec& spec, const ScenarioOptions& options);

// The spec for any shardable sweep subcommand by name — table1/table2,
// fig10, horizon-growth, fairshare-decay, strategy, and custom
// (--config included).
// This is the scenario selector shared by exp_main, `dispatch --sweep=`,
// `--processes` and the shard-worker's spec rebuild; scenarios that
// post-process per-run data (utilization, rand-convergence, ref-scaling)
// are rejected because they cannot be partitioned into mergeable shards.
SweepSpec make_scenario_sweep(const std::string& command,
                              const ScenarioOptions& options);

// True when make_scenario_sweep accepts `command`.
bool is_scenario_sweep(const std::string& command);

// Drops `--name=value`, `--name value` and bare `--name` occurrences of
// the given flags from a raw argv tail — used to rebuild worker command
// lines / dispatch requests without the orchestration flags the
// executor or dispatcher re-appends itself.
std::vector<std::string> drop_flag_tokens(
    const std::vector<std::string>& args,
    const std::vector<std::string>& names);

// REF's running-time scaling (Prop. 3.4 / Cor. 3.5: FPT in the number of
// organizations k, ~3^k per decision, polynomial in the jobs): two pure
// perf sweeps over the `ref` policy on LPC-EGEE — one along an `orgs`
// axis at a fixed horizon, one along a `horizon` axis at fixed orgs.
// Replaces the standalone bench_ref_scaling binary.
std::vector<SweepSpec> make_ref_scaling_sweeps(const ScenarioOptions& options);

// The default "Custom sweep: ..." header for `spec`; sweep configs call it
// again after overriding dimensions so the header stays truthful.
std::string custom_sweep_title(const SweepSpec& spec);

// Runs a sweep and reports: ASCII table on stdout, optional CSV
// (options.csv_path), streaming per-run CSV (options.stream_records_path),
// JSON perf baseline (options.json_path, defaulted to BENCH_<sweep>.json
// under --smoke). Returns a process exit code.
// --processes=N runs the shards on N local shard-worker sessions
// (run_local_sessions) and reports the merge like the in-process run.
int run_sweep_scenario(const SweepSpec& spec, const ScenarioOptions& options);

// The report that ends a sweep run, a merge and a dispatch alike: table,
// cache stats, the strategy report with its --check-thm41 verdict, the
// spec's note, then the --csv/--json outputs. A partial shard passes its
// `partial_note`, printed after the cache stats; it skips the strategy
// report, which needs every cell. Returns the exit code.
int report_sweep(const SweepSpec& spec, const SweepResult& result,
                 const ScenarioOptions& options,
                 const char* partial_note = nullptr);

// `--processes=N`: dispatches the whole-run `plan` of subcommand `command`
// onto N local `shard-worker --session` workers, with one attempt per
// shard (a local worker that dies signals a bug, not a flaky network), a
// scratch artifact directory removed afterwards and no dispatch log. Each
// worker gets plan.spec.threads (or the hardware concurrency) divided by
// N threads. Throws when a shard fails.
SweepResult run_local_sessions(const SweepPlan& plan,
                               const std::string& command,
                               const ScenarioOptions& options,
                               const SweepDriver::Progress& progress);

// Figure 7 + Thm 6.2: prints the adversarial 3/4-utilization family, then
// runs the random-instance sweep and checks the worst pairwise greedy
// utilization ratio stays >= 0.75. Nonzero exit on violation.
int run_utilization_scenario(const ScenarioOptions& options);

// Runs make_rand_convergence_sweep and prints the per-N distance table plus
// the Hoeffding sample bounds of Thm 5.6.
int run_rand_convergence_scenario(const ScenarioOptions& options);

// Runs both ref-scaling sweeps and prints the wall-time-per-run tables
// (the quantity the old Google-benchmark binary measured).
int run_ref_scaling_scenario(const ScenarioOptions& options);

// `fairsched_exp strategyproof`: the Section 4 ablation table (one
// organization splits/merges/delays its workload under FCFS; psi_sp vs
// mean-flow change per manipulation). --duration is the horizon (default
// 600), --instances the trial count (default 20).
int run_strategyproof_scenario(const ScenarioOptions& options);

// `fairsched_exp merge`: loads the shard partial artifacts at `paths`,
// folds them (exp/sweep_artifact.h) and reports exactly like the
// equivalent whole run — ASCII table, per-shard + total cache-stats
// lines, --csv / --json. The merged CSV is byte-identical to the
// unsharded run's.
int run_merge_scenario(const std::vector<std::string>& paths,
                       const ScenarioOptions& options);

// `fairsched_exp plan`: builds the sweep like `custom` would, then prints
// the plan JSON (exp/sweep_plan.h) instead of executing anything.
int run_plan_scenario(const SweepSpec& spec, const ScenarioOptions& options);

// `fairsched_exp serve`: the online scheduler session (src/serve). Feeds
// the --source event stream through a resident ServeSession under
// --policy, emitting periodic `serve-stats:` lines on stderr, the
// decision stream to --decisions, and the final report (human summary on
// stdout; --json or --smoke write the BENCH_serve.json document).
int run_serve_scenario(const ScenarioOptions& options);

// `fairsched_exp replay`: the batch half of the differential contract.
// Materializes the --source trace into an Instance, runs --policy through
// the batch engine, and writes the decision stream to --decisions
// (default stdout). `diff` against the serve stream must be empty for
// every deterministic policy — CI enforces it.
int run_replay_scenario(const ScenarioOptions& options);

// `fairsched_exp dispatch`: the distributed sweep dispatcher (src/dist,
// docs/DISTRIBUTED.md). Builds the --sweep scenario's plan, schedules its
// shards onto the --workers/--hosts transports with work-stealing,
// per-shard timeouts and capped-backoff retry, persists validated shard
// artifacts under --artifact-dir (reused by --resume), and reports the
// merged result exactly like the equivalent single-host whole run —
// byte-identical --csv/--json at any worker count or failure schedule.
// --dry-run prints the shard -> worker assignment plan as JSON instead.
int run_dispatch_scenario(const ScenarioOptions& options);

// `fairsched_exp shard-worker`: the receiving end of the dispatch wire
// protocol (dist/protocol.h). One-shot (v1): reads one DispatchRequest
// from stdin, rebuilds the sweep spec from the request's args (writing an
// embedded config to a scratch file when present), refuses on fingerprint
// mismatch, executes its shard in-process, and writes the framed shard
// artifact to stdout. With `session` (v2, `--session`): announces itself
// with a session hello, then serves request after request over the same
// stdin/stdout connection until goodbye/EOF, keeping a retained
// WorkloadCache warm across requests with equal plan fingerprints; each
// artifact frame carries a cache-counter stat footer.
int run_shard_worker_scenario(bool session);

}  // namespace fairsched::exp
