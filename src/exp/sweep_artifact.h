#pragma once

// Versioned shard partial-result artifacts, and the merge that folds them.
//
// A sharded sweep execution (exp/executor.h; `fairsched_exp ... --shard=s/N
// --partial-out=FILE`) persists everything the whole-run reports need:
// the spec summary, the plan fingerprint, the shard's cache/wall-time
// accounting, and — the payload — the exact Welford accumulator state of
// every cell the shard owns (util/stats.h). `fairsched_exp merge` (or the
// dispatcher behind `dispatch` and `--processes`) folds N such artifacts
// back into one SweepResult.
//
// The merge determinism contract: because shards partition *prefix
// families* (exp/sweep_plan.h), every cell's runs execute within exactly
// one shard, in the same relative order a whole run would fold them. A
// cell's accumulator state in its artifact is therefore bit-identical to
// the whole run's, and merging reduces to placing each state into its
// slot — so merged CSV output is byte-identical to an unsharded run, at
// any shard count, thread count, or cache configuration. Wall-clock and
// cache counters are aggregated (summed; they are measurements, not part
// of the contract). Doubles round-trip through "%.17g", which is exact
// for IEEE doubles.

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "exp/sweep_plan.h"

namespace fairsched::exp {

inline constexpr int kShardArtifactVersion = 1;

// A parsed partial artifact. `result` is full-size (every cell of the
// sweep), with only `owned_cells` populated; the rest stay default.
struct ShardArtifact {
  std::uint64_t fingerprint = 0;
  SweepShard shard;
  SweepSpec spec;  // reporter-facing reconstruction (spec_from_summary_json)
  SweepResult result;
  std::vector<std::size_t> owned_cells;  // ascending cell indices
};

// Writes the partial artifact for `plan.shard`: header, spec summary, the
// shard's accounting, and the owned cells' exact accumulator state.
void write_shard_artifact(std::ostream& out, const SweepPlan& plan,
                          const SweepResult& result);

// Parses an artifact document. `source` names the input in error messages.
// Throws std::invalid_argument on malformed/mis-versioned input.
ShardArtifact parse_shard_artifact(const std::string& text,
                                   const std::string& source);
// Reads and parses `path`; std::invalid_argument when unreadable.
ShardArtifact load_shard_artifact(const std::string& path);

// The whole-run view folded from N partial artifacts.
struct MergedSweep {
  SweepSpec spec;      // reconstructed; reporting-only (cannot re-run)
  SweepResult result;  // cells bit-identical to a whole single-process run
};

// Validates the set (equal fingerprints and shard counts, shard indices
// 0..N-1 exactly once, cells covered exactly once) and folds it. Cache
// stats and wall times are summed into `result.cache` / the wall fields,
// with the per-shard breakdown kept in result.per_shard_cache (indexed by
// shard); result.elapsed_ms is the max over shards (they ran
// concurrently). Throws std::invalid_argument on any inconsistency.
MergedSweep merge_shard_artifacts(std::vector<ShardArtifact> shards);

// Digest of everything the determinism contract covers: the plan
// fingerprint, the shard identity, and each owned cell's exact
// accumulator states and work_done. Volatile accounting (wall clocks,
// cache counters, replay counts) is excluded, so two independent
// executions of the same shard — a straggler and its speculative
// duplicate — must digest equal; a difference falsifies the contract and
// aborts the dispatch (dist/dispatcher.h).
std::uint64_t artifact_determinism_digest(const ShardArtifact& artifact);

}  // namespace fairsched::exp
