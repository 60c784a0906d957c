#pragma once

// Shared scaffolding of the fairsched benchmark: options, the result line,
// latency statistics, the span log and the cycle clock the traced runs use.
//
// Every workload follows one shape (README.md): set up several times and
// report the median set-up time, then run fixed-shape ops single-threaded
// for --seconds, each op's inputs derived from (--seed, op index) only,
// check every op's output, and print the end-to-end metrics. With
// --trace 1 the same ops run interleaved untraced/traced over a fixed op
// count, and the per-layer metrics come from decorators over the public
// seams of each layer.

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}
inline double ms_since(Clock::time_point t0) {
  return ms_between(t0, Clock::now());
}
inline double ns_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::nano>(b - a).count();
}

// Cycle counter for the fine-grained spans (one select() call, one event
// source pull), where two steady_clock reads would cost a large share of
// the span. Converted to nanoseconds by TickRate, calibrated against
// steady_clock over the whole traced phase.
std::uint64_t ticks();

class TickRate {
 public:
  TickRate();
  double ns_per_tick() const;

 private:
  std::uint64_t tick0_;
  Clock::time_point time0_;
};

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir;     // span logs and dispatch artifacts
  std::string worker_bin;  // fairsched_exp, for the dispatch sessions
};

// Set-up repetitions of every workload; setup_s is their median. Five
// left a 19-26% run-to-run spread on paper-cells (README.md).
constexpr std::size_t kSetupRepeats = 15;

// The seed of op `index`: ops differ only in this value.
std::uint64_t op_seed(std::uint64_t seed, std::uint64_t index);
// The seed of warm-up op `index`. Warm-up ops are the same for every
// --seed, so set-up time compares like with like across seeds.
std::uint64_t warmup_seed(std::uint64_t index);

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Result {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> notes;  // human lines printed before the JSON
  std::size_t failure_notes = 0;

  void add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  // Counts `ops` failed ops and keeps the first few reasons.
  void fail_op(const std::string& why, std::uint64_t ops = 1);
  void note(const std::string& line) { notes.push_back(line); }
};

// Nearest-rank percentile of `values` (sorted in place).
double percentile(std::vector<double>& values, double q);
double median(std::vector<double> values);
// Samples strictly above the nearest-rank q-th percentile of n samples.
std::size_t samples_beyond(std::size_t n, double q);

// `ops` ops that took `ms` together: one op, a session or a round, and
// the process's peak resident set while they ran.
struct Batch {
  std::size_t ops = 0;
  double ms = 0.0;
  double peak_rss_mb = 0.0;
};

// Throughput of a timed phase, robust to bursts of host noise: the
// batches are cut into consecutive chunks of at least `chunk_ms`, and the
// median chunk rate (ops / chunk time) is reported.
double chunked_rate(const std::vector<Batch>& batches, double chunk_ms);

// The end-to-end block every workload prints: ops_per_s (chunked_rate of
// the batches), op_ms_p50, op_ms_p90, setup_s (median over the set-up
// repetitions) and peak_rss_mb (median over the batches' peaks), plus a
// note with the sample count behind the percentiles.
void add_end_to_end(Result& result, const std::vector<Batch>& batches,
                    double op_ms_p50, double op_ms_p90, std::size_t samples,
                    const std::vector<double>& setup_s);
// op_ms_p99 is printed as a note where a run holds >= 1000 ops; it is not
// a gated metric (README.md, "Steadiness").
void add_p99_note(Result& result, double op_ms_p99, std::size_t samples);

// The traced run's block: every per-layer metric of the catalog in
// BENCHMARK.json, in catalog order. A layer the workload leaves idle
// reads 0; a name outside the catalog throws (a typo guard).
void add_per_layer(Result& result, const std::map<std::string, double>& values);

// Peak resident set of this process (VmHWM), since the last
// reset_peak_rss().
double peak_rss_mb();
// Lowers the peak resident set to the current one (/proc/self/clear_refs),
// so the next peak_rss_mb() covers one batch. A run's maximum follows the
// single heaviest op it happened to draw; the median batch peak does not.
void reset_peak_rss();
// Largest peak resident set among this process's live children.
double children_peak_rss_mb();

// Spans of the traced run, kept in memory and written as JSON lines at
// exit: one record per layer call at op granularity (fine-grained calls
// are folded into counters and histograms instead).
struct Span {
  std::uint64_t op = 0;
  std::string layer;
  std::string parent;
  double start_ms = 0.0;  // since the span log was created
  double dur_ms = 0.0;
};

class SpanLog {
 public:
  SpanLog() : origin_(Clock::now()) {}
  void add(std::uint64_t op, const std::string& layer,
           const std::string& parent, Clock::time_point start,
           Clock::time_point end);
  // Writes every span; returns false when the file cannot be written.
  bool write(const std::string& path) const;

 private:
  Clock::time_point origin_;
  std::vector<Span> spans_;
};

Result run_sweep_workload(const Options& options, bool strategy);
Result run_serve_workload(const Options& options);
Result run_dispatch_workload(const Options& options);

// The serve and dist layers at a reduced size, for the traced run of a
// sweep workload: its op leaves both layers idle, and serve and dispatch
// are not gated (README.md, "Dropped"). Each returns only its own layer's
// metrics (serve.*, dist.*), accounts its decisions or shard attempts in
// `result`, and adds its spans to `spans`.
std::map<std::string, double> trace_serve_layer(const Options& options,
                                                Result& result,
                                                SpanLog& spans);
std::map<std::string, double> trace_dist_layer(const Options& options,
                                               Result& result,
                                               SpanLog& spans);

}  // namespace perfbench
