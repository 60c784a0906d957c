#include "bench.h"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>

#if defined(__x86_64__) || defined(__i386__)
#include <x86intrin.h>
#endif

#include "util/rng.h"

namespace perfbench {

std::uint64_t ticks() {
#if defined(__x86_64__) || defined(__i386__)
  return __rdtsc();
#else
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          Clock::now().time_since_epoch())
          .count());
#endif
}

TickRate::TickRate() : tick0_(ticks()), time0_(Clock::now()) {}

double TickRate::ns_per_tick() const {
  const double ns = ms_since(time0_) * 1e6;
  const double elapsed = static_cast<double>(ticks() - tick0_);
  return elapsed > 0.0 ? ns / elapsed : 1.0;
}

std::uint64_t op_seed(std::uint64_t seed, std::uint64_t index) {
  return fairsched::mix_seed(seed, index);
}

std::uint64_t warmup_seed(std::uint64_t index) {
  return fairsched::mix_seed(0x5e7u, index);
}

void Result::fail_op(const std::string& why, std::uint64_t ops) {
  correct = false;
  failed += ops;
  if (++failure_notes <= 5) notes.push_back("failed: " + why);
}

double percentile(std::vector<double>& values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const auto n = static_cast<double>(values.size());
  const std::size_t rank = std::max<std::size_t>(
      1, static_cast<std::size_t>(std::ceil(q * n)));
  return values[std::min(rank, values.size()) - 1];
}

double median(std::vector<double> values) {
  return percentile(values, 0.5);
}

std::size_t samples_beyond(std::size_t n, double q) {
  const std::size_t rank = std::max<std::size_t>(
      1, static_cast<std::size_t>(std::ceil(q * static_cast<double>(n))));
  return n > rank ? n - rank : 0;
}

double chunked_rate(const std::vector<Batch>& batches, double chunk_ms) {
  std::vector<Batch> chunks(1);
  for (const Batch& batch : batches) {
    if (chunks.back().ms >= chunk_ms) chunks.emplace_back();
    chunks.back().ops += batch.ops;
    chunks.back().ms += batch.ms;
  }
  // A short tail joins the chunk before it rather than standing alone.
  if (chunks.size() > 1 && chunks.back().ms < chunk_ms) {
    chunks[chunks.size() - 2].ops += chunks.back().ops;
    chunks[chunks.size() - 2].ms += chunks.back().ms;
    chunks.pop_back();
  }
  std::vector<double> rates;
  for (const Batch& chunk : chunks) {
    if (chunk.ms > 0.0) {
      rates.push_back(static_cast<double>(chunk.ops) * 1000.0 / chunk.ms);
    }
  }
  return median(rates);
}

void add_end_to_end(Result& result, const std::vector<Batch>& batches,
                    double op_ms_p50, double op_ms_p90, std::size_t samples,
                    const std::vector<double>& setup_s) {
  char line[256];
  std::snprintf(line, sizeof(line),
                "op_ms: %zu samples, %zu beyond p50, %zu beyond p90; setup "
                "repeated %zu times",
                samples, samples_beyond(samples, 0.5),
                samples_beyond(samples, 0.9), setup_s.size());
  result.note(line);
  if (samples_beyond(samples, 0.9) < 10) {
    throw std::runtime_error("too few ops for op_ms_p90");
  }
  std::vector<double> peaks;
  for (const Batch& batch : batches) peaks.push_back(batch.peak_rss_mb);
  result.add("ops_per_s", chunked_rate(batches, 1000.0), "1/s");
  result.add("op_ms_p50", op_ms_p50, "ms");
  result.add("op_ms_p90", op_ms_p90, "ms");
  result.add("setup_s", median(setup_s), "s");
  result.add("peak_rss_mb", median(peaks), "MB");
}

void add_p99_note(Result& result, double op_ms_p99, std::size_t samples) {
  if (samples < 1000) return;
  char line[256];
  std::snprintf(line, sizeof(line),
                "op_ms_p99: %.9g ms (%zu samples, %zu beyond)", op_ms_p99,
                samples, samples_beyond(samples, 0.99));
  result.note(line);
}

namespace {

struct LayerMetric {
  const char* name;
  const char* unit;
};

// Mirrors the per_layer list of BENCHMARK.json; README.md says which
// end-to-end metric each should move, and on which workload.
constexpr LayerMetric kPerLayer[] = {
    {"workload.generate_ms", "ms"},  {"workload.assign_ms", "ms"},
    {"workload.jobs", "count"},      {"ref.ms", "ms"},
    {"ref.share", "ratio"},          {"ref.engine_events", "count"},
    {"ref.decisions", "count"},      {"rand.ms", "ms"},
    {"rand.share", "ratio"},         {"rand.coalitions", "count"},
    {"policy.ms", "ms"},             {"policy.share", "ratio"},
    {"policy.runs", "count"},        {"sim.events", "count"},
    {"sched.decisions", "count"},    {"sim.events_per_s", "1/s"},
    {"sched.select_ns_p50", "ns"},   {"sched.select_ns_p99", "ns"},
    {"metrics.ms", "ms"},            {"exp.plan_ms", "ms"},
    {"exp.self_ms", "ms"},           {"exp.cache_hits", "count"},
    {"exp.cache_misses", "count"},   {"exp.hit_rate", "ratio"},
    {"exp.replayed_runs", "count"},  {"strategy.apply_ms", "ms"},
    {"strategy.evaluate_ms", "ms"},  {"strategy.declared_jobs", "count"},
    {"serve.source_ns", "ns"},       {"serve.select_ns", "ns"},
    {"serve.notify_ns", "ns"},       {"serve.self_ns", "ns"},
    {"serve.engine_events", "count"},
    {"serve.peak_resident_jobs", "count"},
    {"serve.peak_resident_orgs", "count"},
    {"dist.shard_ms_p50", "ms"},     {"dist.shard_ms_p99", "ms"},
    {"dist.worker_ms", "ms"},        {"dist.transport_ms", "ms"},
    {"dist.dispatch_self_ms", "ms"}, {"dist.request_bytes", "bytes"},
    {"dist.artifact_bytes", "bytes"},
    {"dist.attempts", "count"},      {"dist.failed_attempts", "count"},
    {"dist.session_opens", "count"}, {"trace.overhead", "ratio"},
    {"trace.layer_sum_share", "ratio"},
};

}  // namespace

void add_per_layer(Result& result,
                   const std::map<std::string, double>& values) {
  for (const auto& [name, value] : values) {
    bool known = false;
    for (const LayerMetric& metric : kPerLayer) known |= name == metric.name;
    if (!known) throw std::logic_error("unknown per-layer metric " + name);
  }
  for (const LayerMetric& metric : kPerLayer) {
    const auto it = values.find(metric.name);
    result.add(metric.name, it == values.end() ? 0.0 : it->second,
               metric.unit);
  }
}

namespace {

// VmHWM of /proc/<pid>/status in MB, or -1 when unreadable. Unlike
// getrusage's ru_maxrss, it is not inherited across fork and exec, so a
// benchmark started by a larger parent still reports its own peak.
double vm_hwm_mb(const std::string& pid) {
  std::ifstream status("/proc/" + pid + "/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB
    }
  }
  return -1.0;
}

}  // namespace

double peak_rss_mb() {
  const double hwm = vm_hwm_mb("self");
  if (hwm >= 0.0) return hwm;
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

void reset_peak_rss() {
  std::ofstream("/proc/self/clear_refs") << "5";
}

double children_peak_rss_mb() {
  const std::string self = std::to_string(::getpid());
  double peak = 0.0;
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator("/proc", ec)) {
    const std::string pid = entry.path().filename().string();
    if (pid.find_first_not_of("0123456789") != std::string::npos) continue;
    // /proc/<pid>/stat: "pid (comm) state ppid ..."; comm may hold spaces.
    std::ifstream stat(entry.path() / "stat");
    std::string text;
    std::getline(stat, text);
    const std::size_t close = text.rfind(')');
    if (close == std::string::npos) continue;
    std::istringstream rest(text.substr(close + 1));
    std::string state;
    std::string ppid;
    rest >> state >> ppid;
    if (ppid == self) peak = std::max(peak, vm_hwm_mb(pid));
  }
  return peak;
}

void SpanLog::add(std::uint64_t op, const std::string& layer,
                  const std::string& parent, Clock::time_point start,
                  Clock::time_point end) {
  spans_.push_back(
      {op, layer, parent, ms_between(origin_, start), ms_between(start, end)});
}

bool SpanLog::write(const std::string& path) const {
  std::ofstream out(path, std::ios::trunc);
  for (const Span& span : spans_) {
    char line[256];
    std::snprintf(line, sizeof(line),
                  "{\"op\": %llu, \"layer\": \"%s\", \"parent\": \"%s\", "
                  "\"start_ms\": %.6f, \"dur_ms\": %.6f}\n",
                  static_cast<unsigned long long>(span.op),
                  span.layer.c_str(), span.parent.c_str(), span.start_ms,
                  span.dur_ms);
    out << line;
  }
  return static_cast<bool>(out);
}

}  // namespace perfbench
