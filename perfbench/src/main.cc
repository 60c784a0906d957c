// fairsched_perfbench: the repository's benchmark (README.md).
//
//   fairsched_perfbench --workload <name> --seed <n> --seconds <s>
//                       --trace <0|1> --out <dir> [--worker-bin <path>]
//
// Workloads: paper-cells, strategy-grid, serve, dispatch. Every input is
// generated from --seed; nothing is read from files or the environment.
// The last stdout line is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// with the end-to-end metrics (--trace 0) or the per-layer ones
// (--trace 1). Human notes (sample counts, traced summaries) precede it.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <stdexcept>
#include <string>

#include "bench.h"

namespace {

using perfbench::Options;
using perfbench::Result;

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "fairsched_perfbench: %s\n"
               "usage: fairsched_perfbench --workload "
               "paper-cells|strategy-grid|serve|dispatch --seed N "
               "--seconds S --trace 0|1 --out DIR [--worker-bin PATH]\n",
               why.c_str());
  std::exit(2);
}

Options parse_options(int argc, char** argv) {
  Options options;
  bool have_seed = false;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        options.workload = value;
        have_workload = true;
      } else if (flag == "--seed") {
        std::size_t used = 0;
        options.seed = std::stoull(value, &used);
        if (used != value.size()) throw std::invalid_argument(value);
        have_seed = true;
      } else if (flag == "--seconds") {
        options.seconds = std::stod(value);
        if (!(options.seconds > 0.0)) throw std::invalid_argument(value);
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") throw std::invalid_argument(value);
        options.trace = value == "1";
      } else if (flag == "--out") {
        options.out_dir = value;
      } else if (flag == "--worker-bin") {
        options.worker_bin = value;
      } else {
        usage("unknown flag " + flag);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + flag + ": " + value);
    }
  }
  if (!have_workload) usage("--workload is required");
  if (!have_seed) usage("--seed is required");
  if (options.out_dir.empty()) usage("--out is required");
  return options;
}

void print_result(const Result& result) {
  for (const std::string& note : result.notes) {
    std::printf("# %s\n", note.c_str());
  }
  std::string json = "{\"correct\": ";
  json += result.correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(result.attempted);
  json += ", \"failed\": " + std::to_string(result.failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < result.metrics.size(); ++i) {
    const perfbench::Metric& metric = result.metrics[i];
    if (!std::isfinite(metric.value)) {
      throw std::runtime_error("metric " + metric.name + " is not finite");
    }
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", metric.value);
    if (i) json += ", ";
    json += "\"" + metric.name + "\": {\"value\": " + value +
            ", \"unit\": \"" + metric.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

}  // namespace

int main(int argc, char** argv) {
  const Options options = parse_options(argc, argv);
  try {
    std::filesystem::create_directories(options.out_dir);
    Result result;
    if (options.workload == "paper-cells") {
      result = perfbench::run_sweep_workload(options, false);
    } else if (options.workload == "strategy-grid") {
      result = perfbench::run_sweep_workload(options, true);
    } else if (options.workload == "serve") {
      result = perfbench::run_serve_workload(options);
    } else if (options.workload == "dispatch") {
      result = perfbench::run_dispatch_workload(options);
    } else {
      usage("unknown workload " + options.workload);
    }
    print_result(result);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "fairsched_perfbench: %s\n", e.what());
    return 1;
  }
  return 0;
}
