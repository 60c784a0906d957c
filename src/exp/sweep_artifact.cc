#include "exp/sweep_artifact.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "util/json.h"
#include "util/rng.h"

namespace fairsched::exp {

namespace {

constexpr const char* kArtifactFormat = "fairsched-shard-partial";

std::string exact(double v) { return json_exact_double(v); }

void write_accumulator(std::ostream& out, const StatsAccumulator& acc) {
  const StatsAccumulator::State s = acc.state();
  out << '[' << s.count << ", " << exact(s.mean) << ", " << exact(s.m2)
      << ", " << exact(s.min) << ", " << exact(s.max) << ", "
      << exact(s.sum) << ']';
}

StatsAccumulator read_accumulator(const JsonValue& json) {
  const std::vector<JsonValue>& parts = json.items();
  if (parts.size() != 6) {
    throw std::invalid_argument("accumulator state needs 6 fields, got " +
                                std::to_string(parts.size()));
  }
  StatsAccumulator::State s;
  s.count = static_cast<std::size_t>(parts[0].as_uint());
  s.mean = parts[1].as_double();
  s.m2 = parts[2].as_double();
  s.min = parts[3].as_double();
  s.max = parts[4].as_double();
  s.sum = parts[5].as_double();
  return StatsAccumulator::from_state(s);
}

void write_cache_stats(std::ostream& out, const CacheStats& cache,
                       bool enabled) {
  out << "{\"enabled\": " << (enabled ? "true" : "false")
      << ", \"hits\": " << cache.hits << ", \"misses\": " << cache.misses
      << ", \"evictions\": " << cache.evictions
      << ", \"bytes_in_use\": " << cache.bytes_in_use
      << ", \"peak_bytes\": " << cache.peak_bytes << "}";
}

CacheStats read_cache_stats(const JsonValue& json) {
  CacheStats cache;
  cache.hits = json.at("hits").as_uint();
  cache.misses = json.at("misses").as_uint();
  cache.evictions = json.at("evictions").as_uint();
  cache.bytes_in_use =
      static_cast<std::size_t>(json.at("bytes_in_use").as_uint());
  cache.peak_bytes =
      static_cast<std::size_t>(json.at("peak_bytes").as_uint());
  return cache;
}

}  // namespace

void write_shard_artifact(std::ostream& out, const SweepPlan& plan,
                          const SweepResult& result) {
  char fp[32];
  std::snprintf(fp, sizeof(fp), "%016llx",
                static_cast<unsigned long long>(plan.fingerprint));
  out << "{\n";
  out << "  \"format\": \"" << kArtifactFormat << "\",\n";
  out << "  \"version\": " << kShardArtifactVersion << ",\n";
  out << "  \"fingerprint\": \"" << fp << "\",\n";
  out << "  \"shard\": {\"index\": " << plan.shard.index
      << ", \"count\": " << plan.shard.count << "},\n";
  out << "  \"spec\": ";
  write_spec_summary_json(out, plan.spec, "  ");
  out << ",\n";
  out << "  \"axis_points\": " << plan.num_points << ",\n";
  out << "  \"prefix_groups\": " << plan.num_groups << ",\n";
  out << "  \"replayed_runs\": " << result.replayed_runs << ",\n";
  out << "  \"cache\": ";
  write_cache_stats(out, result.cache, result.cache_enabled);
  out << ",\n";
  out << "  \"baseline_wall_ms\": " << exact(result.baseline_wall_ms)
      << ",\n";
  out << "  \"total_wall_ms\": " << exact(result.total_wall_ms) << ",\n";
  out << "  \"elapsed_ms\": " << exact(result.elapsed_ms) << ",\n";
  out << "  \"cells\": [\n";
  bool first = true;
  for (std::size_t cell = 0; cell < result.cells.size(); ++cell) {
    if (!plan.owns_cell(cell)) continue;
    const SweepCell& data = result.cells[cell];
    if (!first) out << ",\n";
    first = false;
    out << "    {\"cell\": " << cell << ", \"work_done\": "
        << data.work_done << ", \"wall_ms\": " << exact(data.wall_ms)
        << ", \"unfairness\": ";
    write_accumulator(out, data.unfairness);
    out << ", \"rel_distance\": ";
    write_accumulator(out, data.rel_distance);
    out << ", \"utilization\": ";
    write_accumulator(out, data.utilization);
    // Presence-gated on the spec: only strategy sweeps carry the
    // manipulation-grading accumulators, so non-strategy artifacts stay
    // byte-identical across the subsystem's introduction (version stays 1).
    if (plan.spec.is_strategy()) {
      out << ", \"deviator_utility\": ";
      write_accumulator(out, data.deviator_utility);
      out << ", \"deviator_flow\": ";
      write_accumulator(out, data.deviator_flow);
      out << ", \"honest_utility\": ";
      write_accumulator(out, data.honest_utility);
    }
    out << "}";
  }
  out << "\n  ]\n}\n";
}

ShardArtifact parse_shard_artifact(const std::string& text,
                                   const std::string& source) {
  auto fail = [&](const std::string& why) -> void {
    throw std::invalid_argument("shard artifact " + source + ": " + why);
  };
  JsonValue doc;
  try {
    doc = parse_json(text);
  } catch (const std::invalid_argument& e) {
    fail(e.what());
  }
  try {
    ShardArtifact artifact;
    if (doc.at("format").as_string() != kArtifactFormat) {
      fail("not a shard partial artifact (format '" +
           doc.at("format").as_string() + "')");
    }
    const std::int64_t version = doc.at("version").as_int();
    if (version != kShardArtifactVersion) {
      fail("unsupported version " + std::to_string(version) + " (this "
           "binary reads version " +
           std::to_string(kShardArtifactVersion) + ")");
    }
    const std::string& fp = doc.at("fingerprint").as_string();
    artifact.fingerprint = std::stoull(fp, nullptr, 16);
    artifact.shard.index =
        static_cast<std::size_t>(doc.at("shard").at("index").as_uint());
    artifact.shard.count =
        static_cast<std::size_t>(doc.at("shard").at("count").as_uint());
    if (artifact.shard.count == 0 ||
        artifact.shard.index >= artifact.shard.count) {
      fail("invalid shard " + std::to_string(artifact.shard.index) + "/" +
           std::to_string(artifact.shard.count));
    }
    artifact.spec = spec_from_summary_json(doc.at("spec"));

    SweepResult& result = artifact.result;
    result.axis_points =
        static_cast<std::size_t>(doc.at("axis_points").as_uint());
    if (result.axis_points != num_axis_points(artifact.spec)) {
      fail("axis_points disagrees with the embedded spec");
    }
    result.prefix_groups =
        static_cast<std::size_t>(doc.at("prefix_groups").as_uint());
    result.replayed_runs = doc.at("replayed_runs").as_uint();
    result.cache_enabled = doc.at("cache").at("enabled").as_bool();
    result.cache = read_cache_stats(doc.at("cache"));
    result.baseline_wall_ms = doc.at("baseline_wall_ms").as_double();
    result.total_wall_ms = doc.at("total_wall_ms").as_double();
    result.elapsed_ms = doc.at("elapsed_ms").as_double();

    const std::size_t num_cells = result.axis_points *
                                  artifact.spec.workloads.size() *
                                  artifact.spec.policies.size();
    result.cells.assign(num_cells, SweepCell{});
    for (const JsonValue& cell_json : doc.at("cells").items()) {
      const std::size_t cell =
          static_cast<std::size_t>(cell_json.at("cell").as_uint());
      if (cell >= num_cells) {
        fail("cell index " + std::to_string(cell) + " out of range (" +
             std::to_string(num_cells) + " cells)");
      }
      SweepCell& data = result.cells[cell];
      data.work_done = cell_json.at("work_done").as_int();
      data.wall_ms = cell_json.at("wall_ms").as_double();
      data.unfairness = read_accumulator(cell_json.at("unfairness"));
      data.rel_distance = read_accumulator(cell_json.at("rel_distance"));
      data.utilization = read_accumulator(cell_json.at("utilization"));
      if (artifact.spec.is_strategy()) {
        data.deviator_utility =
            read_accumulator(cell_json.at("deviator_utility"));
        data.deviator_flow = read_accumulator(cell_json.at("deviator_flow"));
        data.honest_utility =
            read_accumulator(cell_json.at("honest_utility"));
      }
      artifact.owned_cells.push_back(cell);
    }
    std::sort(artifact.owned_cells.begin(), artifact.owned_cells.end());
    for (std::size_t i = 1; i < artifact.owned_cells.size(); ++i) {
      if (artifact.owned_cells[i] == artifact.owned_cells[i - 1]) {
        fail("duplicate cell index " +
             std::to_string(artifact.owned_cells[i]));
      }
    }
    return artifact;
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    if (what.rfind("shard artifact ", 0) == 0) throw;
    fail(what);
  }
  throw std::logic_error("unreachable");  // fail() always throws
}

ShardArtifact load_shard_artifact(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    throw std::invalid_argument("cannot read shard artifact: " + path);
  }
  std::ostringstream text;
  text << in.rdbuf();
  return parse_shard_artifact(text.str(), path);
}

std::uint64_t artifact_determinism_digest(const ShardArtifact& artifact) {
  std::ostringstream canon;
  char fp[32];
  std::snprintf(fp, sizeof(fp), "%016llx",
                static_cast<unsigned long long>(artifact.fingerprint));
  canon << fp << '|' << artifact.shard.index << '/' << artifact.shard.count;
  for (const std::size_t cell : artifact.owned_cells) {
    const SweepCell& data = artifact.result.cells[cell];
    canon << '|' << cell << ':' << data.work_done << ':';
    write_accumulator(canon, data.unfairness);
    write_accumulator(canon, data.rel_distance);
    write_accumulator(canon, data.utilization);
    if (artifact.spec.is_strategy()) {
      write_accumulator(canon, data.deviator_utility);
      write_accumulator(canon, data.deviator_flow);
      write_accumulator(canon, data.honest_utility);
    }
  }
  return hash_fnv1a64(canon.str());
}

MergedSweep merge_shard_artifacts(std::vector<ShardArtifact> shards) {
  if (shards.empty()) {
    throw std::invalid_argument("merge: no shard artifacts given");
  }
  std::sort(shards.begin(), shards.end(),
            [](const ShardArtifact& a, const ShardArtifact& b) {
              return a.shard.index < b.shard.index;
            });
  const ShardArtifact& first = shards.front();
  if (first.shard.count != shards.size()) {
    throw std::invalid_argument(
        "merge: got " + std::to_string(shards.size()) +
        " artifacts for a " + std::to_string(first.shard.count) +
        "-shard sweep");
  }
  for (std::size_t s = 0; s < shards.size(); ++s) {
    if (shards[s].fingerprint != first.fingerprint) {
      throw std::invalid_argument(
          "merge: shard artifacts come from different sweep plans "
          "(fingerprint mismatch)");
    }
    if (shards[s].shard.count != first.shard.count) {
      throw std::invalid_argument("merge: shard counts disagree");
    }
    if (shards[s].shard.index != s) {
      throw std::invalid_argument(
          "merge: duplicate or missing shard index " + std::to_string(s));
    }
    if (shards[s].result.prefix_groups != first.result.prefix_groups) {
      throw std::invalid_argument("merge: prefix group counts disagree");
    }
  }

  MergedSweep merged;
  merged.spec = first.spec;
  SweepResult& result = merged.result;
  result.axis_points = first.result.axis_points;
  result.prefix_groups = first.result.prefix_groups;
  result.cells.assign(first.result.cells.size(), SweepCell{});
  result.shards = shards.size();

  std::vector<char> covered(result.cells.size(), 0);
  for (const ShardArtifact& shard : shards) {
    for (std::size_t cell : shard.owned_cells) {
      if (covered[cell]) {
        throw std::invalid_argument(
            "merge: cell " + std::to_string(cell) +
            " appears in more than one shard artifact");
      }
      covered[cell] = 1;
      result.cells[cell] = shard.result.cells[cell];
    }
    result.baseline_wall_ms += shard.result.baseline_wall_ms;
    result.total_wall_ms += shard.result.total_wall_ms;
    result.elapsed_ms =
        std::max(result.elapsed_ms, shard.result.elapsed_ms);
    result.replayed_runs += shard.result.replayed_runs;
    result.cache_enabled |= shard.result.cache_enabled;
    result.cache.accumulate(shard.result.cache);
    result.per_shard_cache.push_back(shard.result.cache);
    result.per_shard_replayed.push_back(shard.result.replayed_runs);
  }
  for (std::size_t cell = 0; cell < covered.size(); ++cell) {
    if (!covered[cell]) {
      throw std::invalid_argument(
          "merge: cell " + std::to_string(cell) +
          " is covered by no shard artifact (incomplete set?)");
    }
  }
  return merged;
}

}  // namespace fairsched::exp
