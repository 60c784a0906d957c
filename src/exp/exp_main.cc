// fairsched_exp — unified experiment harness CLI.
//
// One binary drives every sweep of the paper's evaluation:
//
//   fairsched_exp table1            Table 1 (duration 5*10^4)
//   fairsched_exp table2            Table 2 (duration 5*10^5)
//   fairsched_exp utilization       Figure 7 + Thm 6.2 utilization probe
//   fairsched_exp rand-convergence  Thm 5.6 FPRAS convergence
//   fairsched_exp fig10             Figure 10: unfairness vs #organizations
//   fairsched_exp horizon-growth    unfairness vs horizon (Table 1 -> 2)
//   fairsched_exp fairshare-decay   fair-share half-life ablation
//   fairsched_exp strategy          Thm 4.1 manipulation sweep: one org
//                                   plays a deviation grid (src/strategy)
//                                   against every policy; reports per-
//                                   policy manipulation gain and best
//                                   responses. --deviations=split:2,...
//                                   --deviator-orgs=0,1 --check-thm41
//                                   --thm41-tolerance=PCT
//   fairsched_exp strategyproof     Section 4 ablation table: psi_sp vs
//                                   mean-flow change under split/merge/
//                                   delay (FCFS, fixed background org)
//   fairsched_exp ref-scaling       REF wall time vs orgs / window length
//   fairsched_exp custom            free-form sweep (--policies/--workload/
//                                   --axes, or --config=FILE)
//   fairsched_exp plan              print the sweep plan (same flags as
//                                   custom) without executing anything
//   fairsched_exp merge A B ...     fold shard --partial-out artifacts
//   fairsched_exp dispatch          run a sweep's shards on worker hosts
//                                   (src/dist, docs/DISTRIBUTED.md):
//                                   --sweep=NAME --workers=local*4,ssh:h1
//                                   --hosts=FILE --ssh-cmd=CMD --shards=N
//                                   --timeout-ms=T --retries=R
//                                   --artifact-dir=DIR --resume --dry-run
//   fairsched_exp shard-worker      protocol peer of dispatch: reads one
//                                   dispatch request on stdin, writes the
//                                   shard artifact frame on stdout;
//                                   --session serves many requests over
//                                   one connection (protocol v2), keeping
//                                   its workload cache warm across shards
//   fairsched_exp serve             online scheduler session over an event
//                                   stream (src/serve): --source=
//                                   synthetic|stdin|FILE, --policy=NAME,
//                                   --stats-interval=N (stderr stats),
//                                   --decisions=FILE|-, --record-trace=F,
//                                   --serve-events=N --arrival-rate=X
//                                   --machines-per-org=N; --duration is
//                                   the horizon (0 = drain), --smoke the
//                                   CI/bench config (BENCH_serve.json)
//   fairsched_exp replay            batch replay of a trace: same flags;
//                                   its decision stream must byte-match
//                                   serve's for any deterministic policy
//   fairsched_exp list-policies     registered PolicyRegistry names
//                                   (--json: machine-readable catalog with
//                                   declared parameters/ranges/defaults)
//   fairsched_exp list-workloads    workload kinds `custom` accepts
//   fairsched_exp list-axes         sweep axes with scopes and ranges
//                                   (--config=FILE includes its [policy]
//                                   blocks' parameter axes)
//
// Common flags (also settable as FAIRSCHED_* env vars, see util/cli.h):
//   --instances=N --duration=T --orgs=K --seed=S --scale=X --threads=N
//   --split=zipf|uniform --zipf-s=S --csv=FILE|- --json=FILE|-
//   --stream-records=FILE|-   stream one CSV row per run (O(cells) memory)
//   --axes="name=v1,v2;..."   override a scenario's sweep axes
//   --smoke   tiny instance counts for CI; emits BENCH_<sweep>.json
//   --cache-mb=N --no-cache   workload/baseline cache budget (default 256
//                             MB); output is bit-identical either way
//
// Sharded execution (docs/ARCHITECTURE.md, docs/EXPERIMENTS.md):
//   --shard=i/N       execute only shard i of the plan's N-way partition
//   --partial-out=F   write the shard's result artifact for `merge`
//   --processes=N     run the N shards on N local shard-worker sessions
//                     and merge them; output is byte-identical to a
//                     single-process run
//
// `custom` extras: --policies=a,b,c (registry names, e.g.
// "fcfs,rand75,decayfairshare2000"), --workload=<kind> (see
// list-workloads), --config=FILE (declarative sweep config; file keys win
// over flags — see docs/EXPERIMENTS.md). `fig10`/`ref-scaling` extras:
// --min-orgs, --max-orgs.

#include <unistd.h>

#include <cstdio>
#include <exception>
#include <sstream>
#include <string>
#include <vector>

#include "exp/policy_registry.h"
#include "exp/scenarios.h"
#include "exp/sweep_config.h"
#include "util/cli.h"

namespace {

int usage(const char* argv0) {
  std::string workloads;
  for (const fairsched::exp::WorkloadInfo& info :
       fairsched::exp::workload_catalog()) {
    if (!workloads.empty()) workloads += "|";
    workloads += info.name;
  }
  std::fprintf(
      stderr,
      "usage: %s <table1|table2|utilization|rand-convergence|fig10|"
      "horizon-growth|fairshare-decay|strategy|strategyproof|ref-scaling|"
      "custom|plan|merge|dispatch|shard-worker|serve|replay|list-policies|"
      "list-workloads|list-axes> [flags]\n"
      "common flags: --instances=N --duration=T --orgs=K --seed=S "
      "--scale=X --threads=N --split=zipf|uniform --zipf-s=S --csv=FILE|- "
      "--json=FILE|- --stream-records=FILE|- --axes=\"name=v1,v2;...\" "
      "--smoke --cache-mb=N --no-cache\n"
      "sharding flags: --shard=i/N --partial-out=FILE --processes=N "
      "(merge folds --partial-out artifacts; see docs/EXPERIMENTS.md)\n"
      "dispatch flags: --sweep=NAME --workers=local*N,ssh:HOST,... "
      "--hosts=FILE --ssh-cmd=CMD --remote-program=PATH --shards=N "
      "--worker-threads=N --timeout-ms=T --retries=R --backoff-ms=B "
      "--backoff-cap-ms=C --artifact-dir=DIR --dispatch-log=FILE "
      "--resume --dry-run --speculate "
      "--speculate-factor=X --dispatch-bench --bench-repeats=N "
      "(see docs/DISTRIBUTED.md)\n"
      "custom/plan flags: --policies=a,b,c --workload=%s --config=FILE\n"
      "fig10/ref-scaling flags: --min-orgs=K --max-orgs=K\n"
      "strategy flags: --deviations=split:2,merge:2,... "
      "--deviator-orgs=0,1 --check-thm41 --thm41-tolerance=PCT "
      "(see docs/EXPERIMENTS.md)\n"
      "serve/replay flags: --source=synthetic|stdin|FILE --policy=NAME "
      "--decisions=FILE|- --record-trace=FILE --stats-interval=N "
      "--serve-events=N --arrival-rate=X --machines-per-org=N\n"
      "axes: see `list-axes`; values are numbers and lo:hi[:step] ranges\n",
      argv0, workloads.c_str());
  return 2;
}

// The path workers re-exec: /proc/self/exe where available (immune to
// PATH and cwd changes), the original argv[0] otherwise.
std::string self_program(const char* argv0) {
  char buf[4096];
  const ssize_t n = ::readlink("/proc/self/exe", buf, sizeof(buf) - 1);
  if (n > 0) {
    buf[n] = '\0';
    return buf;
  }
  return argv0;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace fairsched;
  using namespace fairsched::exp;

  if (argc < 2) return usage(argv[0]);
  const std::string command = argv[1];
  if (command == "--help" || command == "-h" || command == "help") {
    usage(argv[0]);
    return 0;
  }

  try {
    const Flags flags(argc - 1, argv + 1);
    ScenarioOptions options = scenario_options_from_flags(flags);
    options.program = self_program(argv[0]);
    options.raw_args.assign(argv + 1, argv + argc);

    if (is_scenario_sweep(command)) {
      return run_sweep_scenario(make_scenario_sweep(command, options),
                                options);
    }
    if (command == "plan") {
      return run_plan_scenario(make_scenario_sweep("custom", options),
                               options);
    }
    if (command == "utilization") {
      return run_utilization_scenario(options);
    }
    if (command == "rand-convergence") {
      return run_rand_convergence_scenario(options);
    }
    if (command == "strategyproof") {
      return run_strategyproof_scenario(options);
    }
    if (command == "ref-scaling") {
      return run_ref_scaling_scenario(options);
    }
    if (command == "merge") {
      return run_merge_scenario(flags.positional(), options);
    }
    if (command == "dispatch") {
      return run_dispatch_scenario(options);
    }
    if (command == "shard-worker") {
      return run_shard_worker_scenario(flags.get_bool("session", false));
    }
    if (command == "serve") {
      return run_serve_scenario(options);
    }
    if (command == "replay") {
      return run_replay_scenario(options);
    }
    if (command == "list-policies") {
      // --json: the machine-readable catalog (names, descriptions, and
      // every declared parameter with type/range/default and its sweep
      // axis). CI diffs this against a committed golden file.
      if (flags.get_bool("json", false)) {
        std::ostringstream out;
        PolicyRegistry::global().write_catalog_json(out);
        std::fputs(out.str().c_str(), stdout);
        return 0;
      }
      for (const auto& [name, description] :
           PolicyRegistry::global().catalog()) {
        std::printf("%-20s %s\n", name.c_str(), description.c_str());
      }
      return 0;
    }
    if (command == "list-workloads") {
      for (const WorkloadInfo& info : workload_catalog()) {
        std::printf("%-14s %s\n", info.name.c_str(),
                    info.description.c_str());
      }
      return 0;
    }
    if (command == "list-axes") {
      // --config loads its [policy NAME] blocks first, so config-defined
      // parameter axes appear in the listing too.
      if (!options.config_path.empty()) {
        load_sweep_config_file(options.config_path, options);
      }
      std::printf("%-14s %-9s %-22s %s\n", "axis", "scope", "typical range",
                  "binds");
      for (const AxisInfo& info : axis_catalog()) {
        std::string name = info.name;
        if (!info.aliases.empty()) name += " (" + info.aliases + ")";
        std::printf("%-14s %-9s %-22s %s\n", name.c_str(),
                    axis_scope_name(info.scope), info.values_hint.c_str(),
                    info.description.c_str());
      }
      return 0;
    }
    std::fprintf(stderr, "unknown subcommand: %s\n", command.c_str());
    return usage(argv[0]);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
