// The `serve` and `replay` subcommands of fairsched_exp — the CLI shell
// over src/serve (see serve/session.h for the loop and the differential
// replay contract these two sides enforce together).

#include <cstdio>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>

#include "exp/policy_registry.h"
#include "exp/scenarios.h"
#include "exp/sweep_config.h"
#include "serve/event_source.h"
#include "serve/live_instance.h"
#include "serve/session.h"
#include "sim/policy.h"

namespace fairsched::exp {

namespace {

using serve::EventSource;
using serve::ServeOptions;
using serve::ServeReport;
using serve::ServeSession;
using serve::SyntheticEventSource;
using serve::SyntheticServeSpec;
using serve::TraceEventSource;

// Synthetic defaults: --smoke is the CI/bench configuration (10^5
// resident organizations, 2*10^5 arrivals at an overloading rate so a
// backlog actually forms); the bare default is a laptop-sized session.
SyntheticServeSpec synthetic_spec(const ScenarioOptions& options) {
  SyntheticServeSpec spec;
  spec.orgs = options.orgs_explicit ? options.orgs
              : options.smoke      ? 100000
                                   : 100;
  spec.machines_per_org = options.machines_per_org;
  spec.events = options.serve_events != 0 ? options.serve_events
                : options.smoke          ? 200000
                                         : 10000;
  // Demand = rate * E[lognormal(3,1)] ~ rate * 33 unit parts per time
  // unit; the smoke default oversubscribes 10^5 machines ~1.7x.
  spec.arrival_rate = options.arrival_rate > 0.0 ? options.arrival_rate
                      : options.smoke           ? 5000.0
                                                : 10.0;
  spec.zipf_s = options.zipf_s;
  spec.seed = options.seed;
  return spec;
}

// Builds the event source named by --source. The istream behind a trace
// source must outlive it, so the file stream is handed back too.
struct SourceHandle {
  std::unique_ptr<std::ifstream> file;
  std::unique_ptr<EventSource> source;
  std::string label;  // for the report
};

SourceHandle open_source(const ScenarioOptions& options) {
  SourceHandle handle;
  if (options.source == "synthetic") {
    handle.source =
        std::make_unique<SyntheticEventSource>(synthetic_spec(options));
    handle.label = "synthetic";
    return handle;
  }
  if (options.source == "stdin" || options.source == "-") {
    handle.source = std::make_unique<TraceEventSource>(std::cin, "stdin");
    handle.label = "stdin";
    return handle;
  }
  handle.file = std::make_unique<std::ifstream>(options.source);
  if (!*handle.file) {
    throw std::invalid_argument("cannot open trace file: " + options.source);
  }
  handle.source =
      std::make_unique<TraceEventSource>(*handle.file, options.source);
  handle.label = options.source;
  return handle;
}

// Resolves --policy (after --config registered any config-defined
// entries) and rejects the shape serve mode cannot drive: whole-schedule
// algorithms (REF/RAND) re-plan globally instead of deciding per event.
// `engine` receives the entry's EngineOptions seeded with --seed, as a
// batch PolicyAlgorithm run would build them, for both serve and replay.
std::unique_ptr<Policy> make_serve_policy(const ScenarioOptions& options,
                                          std::string* canonical,
                                          EngineOptions* engine) {
  if (!options.config_path.empty()) {
    load_sweep_config_file(options.config_path, options);  // registers
  }
  PolicyRegistry& registry = PolicyRegistry::global();
  const PolicySpec spec = registry.make(options.policy);
  const PolicyRegistry::Definition* definition = registry.find(spec.base);
  if (!definition->policy) {
    throw std::invalid_argument(
        "policy '" + options.policy +
        "' builds whole schedules (REF/RAND); serve mode drives "
        "policy-shaped entries only");
  }
  *engine = definition->engine_options;
  engine->seed = options.seed;
  *canonical = registry.canonical_name(spec);
  return registry.make_policy(spec, options.seed);
}

// Opens a --decisions / --record-trace sink ("" = none, "-" = stdout).
struct SinkHandle {
  std::unique_ptr<std::ofstream> file;
  std::ostream* stream = nullptr;
};

SinkHandle open_sink(const std::string& path, const char* what) {
  SinkHandle handle;
  if (path.empty()) return handle;
  if (path == "-") {
    handle.stream = &std::cout;
    return handle;
  }
  handle.file = std::make_unique<std::ofstream>(path);
  if (!*handle.file) {
    throw std::invalid_argument(std::string("cannot open ") + what +
                                " output: " + path);
  }
  handle.stream = handle.file.get();
  return handle;
}

int write_report(const ScenarioOptions& options, const ServeReport& report,
                 const std::string& policy, const std::string& source) {
  std::string json_path = options.json_path;
  if (json_path.empty() && options.smoke) json_path = "BENCH_serve.json";
  if (json_path.empty()) return 0;
  if (json_path == "-") {
    serve::write_report_json(std::cout, report, policy, source);
    return 0;
  }
  std::ofstream out(json_path);
  if (!out) {
    std::fprintf(stderr, "cannot open JSON output: %s\n", json_path.c_str());
    return 2;
  }
  serve::write_report_json(out, report, policy, source);
  std::fprintf(stderr, "wrote %s\n", json_path.c_str());
  return 0;
}

}  // namespace

int run_serve_scenario(const ScenarioOptions& options) {
  std::string canonical;
  ServeOptions serve_options;
  std::unique_ptr<Policy> policy =
      make_serve_policy(options, &canonical, &serve_options.engine);
  SourceHandle source = open_source(options);
  SinkHandle decisions = open_sink(options.decisions_path, "decision");
  SinkHandle record = open_sink(options.record_trace_path, "trace");

  serve_options.horizon = options.duration;
  serve_options.stats_interval = options.stats_interval;
  serve_options.stats = &std::cerr;  // decision/report streams own stdout
  serve_options.decisions = decisions.stream;
  serve_options.record_trace = record.stream;

  ServeSession session(source.source->machines(), std::move(policy),
                       serve_options);
  session.run(*source.source);

  const ServeReport& report = session.report();
  const bool stdout_taken =
      options.decisions_path == "-" || options.json_path == "-";
  if (!stdout_taken) {
    std::ostringstream summary;
    serve::write_report_json(summary, report, canonical, source.label);
    std::fputs(summary.str().c_str(), stdout);
  }
  return write_report(options, report, canonical, source.label);
}

int run_replay_scenario(const ScenarioOptions& options) {
  std::string canonical;
  EngineOptions engine;
  std::unique_ptr<Policy> policy =
      make_serve_policy(options, &canonical, &engine);
  SourceHandle source = open_source(options);
  const Instance inst = serve::materialize_trace(*source.source);

  // Default the decision stream to stdout: replay exists to produce the
  // batch side of a `diff`.
  const std::string decisions_path =
      options.decisions_path.empty() ? "-" : options.decisions_path;
  SinkHandle decisions = open_sink(decisions_path, "decision");

  const std::uint64_t count =
      serve::replay_batch(inst, *policy, options.duration, decisions.stream,
                          engine);
  std::fprintf(stderr, "replayed %llu decisions over %u orgs, %zu jobs\n",
               static_cast<unsigned long long>(count), inst.num_orgs(),
               inst.num_jobs());
  return 0;
}

}  // namespace fairsched::exp
