#pragma once

// The planning layer of the sweep engine.
//
// A SweepPlan is the pure, deterministic expansion of a SweepSpec: every
// axis value bound onto per-point horizons / policy specs / workload
// parameters, the axis points grouped into prefix groups (exp/sweep.h),
// and the task grid laid out with stable global identifiers. Building a
// plan executes nothing — it is cheap, side-effect free, and the same
// bytes on every host — so it can be printed (`fairsched_exp plan`),
// fingerprinted, and partitioned into shards that independent processes
// execute (exp/executor.h) and a later `merge` step folds back together
// (exp/sweep_artifact.h).
//
// Identifiers, all stable under sharding:
//   task id   t = (point * workloads + workload) * instances + instance
//   run id    r = t * policies + policy   (== the fold/stream position)
//   family    f = group_of[point] * workloads + workload
//
// Shards partition the *families*, not the tasks: every task and cell of
// a family lands on shard `family % shard_count`. A family is exactly the
// sharing unit of the workload/baseline cache (all axis points of a prefix
// group for one workload), so sharding never splits a cached prefix across
// processes, and every cell's runs stay within one shard — which is what
// makes merged per-cell aggregates bit-identical to a whole run.

#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <vector>

#include "exp/policy_registry.h"
#include "exp/sweep.h"

namespace fairsched {
class JsonValue;
}

namespace fairsched::exp {

// One shard of a partitioned sweep: this process executes the families
// assigned to `index` out of `count`. The default {0, 1} is a whole run.
struct SweepShard {
  std::size_t index = 0;
  std::size_t count = 1;

  bool whole() const { return count <= 1; }
  friend bool operator==(const SweepShard&, const SweepShard&) = default;
};

// Parses a "--shard=INDEX/COUNT" value ("0/3", "2/3"). An empty string is
// the whole-run default. Throws std::invalid_argument with a descriptive
// message on anything else (missing '/', non-numeric parts, count == 0,
// index >= count).
SweepShard parse_shard_spec(const std::string& text);

struct SweepPlan {
  SweepSpec spec;
  SweepShard shard;

  // The registry the plan's policy names were resolved through; the
  // executor instantiates the bound specs through it. Non-owning — the
  // registry (usually PolicyRegistry::global()) must outlive the plan.
  const PolicyRegistry* registry = &PolicyRegistry::global();

  // Grid dimensions.
  std::size_t num_points = 1;
  std::size_t num_workloads = 0;
  std::size_t num_policies = 0;
  std::size_t num_tasks = 0;  // global: num_points * workloads * instances

  // Axis values bound up front, O(cells):
  std::vector<Time> horizons;                // per axis point
  std::vector<PolicySpec> algorithms;        // per policy, unbound
  std::vector<PolicySpec> bound_algorithms;  // [point * policies + p]
  std::vector<SweepWorkload> bound_workloads;  // [point * workloads + w]
  bool has_baseline = false;
  PolicySpec baseline;

  // Strategy sweeps (spec.is_strategy()): the effective deviation and
  // deviating organization of each axis point, resolved from the strategy
  // axes (sweep_point_deviation / sweep_point_deviator). Sized num_points
  // always; honest / org 0 throughout for non-strategy sweeps.
  std::vector<strategy::DeviationSpec> point_deviations;
  std::vector<OrgId> point_deviators;

  // Prefix groups: axis points sharing every workload-scoped axis value.
  // Strategy axes are strategy-scoped, so every deviation of one cell
  // lands in one group and shares the honest prefix (generated window +
  // baseline run) through the WorkloadCache.
  std::vector<std::size_t> group_of;   // per axis point
  std::vector<std::size_t> group_rep;  // first point of each group
  std::vector<std::size_t> group_size;
  std::size_t num_groups = 1;

  // Per (group, policy): slot of the policy's record inside the group's
  // cached prefix, or kNoSlot when its bound spec varies within the group.
  static constexpr std::size_t kNoSlot = static_cast<std::size_t>(-1);
  std::vector<std::size_t> shared_slot;  // [group * policies + p]

  // The global task ids this shard owns, ascending (== the shard's fold
  // order). A whole-run plan owns every task.
  std::vector<std::size_t> shard_tasks;
  // Planned uses of each synthetic-window cache key within this shard:
  // the number of owned (group, workload) families per (workload, horizon).
  std::map<std::pair<std::size_t, Time>, std::size_t> window_uses;

  // FNV-1a hash over the shard-independent plan content (spec dimensions,
  // bound values, grouping). Two plans merge only if fingerprints match;
  // execution knobs (threads, cache budget) are deliberately excluded
  // because they never change output.
  std::uint64_t fingerprint = 0;

  // Task-id decomposition (inverse of the id formula above).
  std::size_t task_point(std::size_t task) const {
    return task / (num_workloads * spec.instances);
  }
  std::size_t task_workload(std::size_t task) const {
    return (task / spec.instances) % num_workloads;
  }
  std::size_t task_instance(std::size_t task) const {
    return task % spec.instances;
  }
  std::uint64_t run_id(std::size_t task, std::size_t policy) const {
    return static_cast<std::uint64_t>(task) * num_policies + policy;
  }

  std::size_t family_of_task(std::size_t task) const {
    return group_of[task_point(task)] * num_workloads + task_workload(task);
  }
  std::size_t shard_of_family(std::size_t family) const {
    return family % shard.count;
  }
  bool owns_task(std::size_t task) const {
    return shard_of_family(family_of_task(task)) == shard.index;
  }

  std::size_t num_cells() const {
    return num_points * num_workloads * num_policies;
  }
  std::size_t cell_index(std::size_t point, std::size_t workload,
                         std::size_t policy) const {
    return (point * num_workloads + workload) * num_policies + policy;
  }
  // A cell belongs to the shard owning its (group, workload) family.
  bool owns_cell(std::size_t cell) const {
    const std::size_t point = cell / (num_workloads * num_policies);
    const std::size_t workload = (cell / num_policies) % num_workloads;
    return shard_of_family(group_of[point] * num_workloads + workload) ==
           shard.index;
  }
};

// Validates the spec (unknown policies, malformed/duplicate/inert axes,
// empty dimensions — std::invalid_argument, same contract as
// SweepDriver::run) and expands it into a plan for `shard`.
SweepPlan build_sweep_plan(const SweepSpec& spec,
                           const PolicyRegistry& registry =
                               PolicyRegistry::global(),
                           SweepShard shard = {});

// Serializes the plan as JSON: the spec summary, the prefix groups, and —
// when `include_tasks` — one entry per task with its global ids, seed,
// group, family and shard. This is `fairsched_exp plan`'s output.
void write_plan_json(std::ostream& out, const SweepPlan& plan,
                     bool include_tasks = true);

// The reporter-facing subset of a SweepSpec as a JSON object (names,
// dimensions, axes with exact values), embedded in plans and in shard
// partial artifacts so `merge` can rebuild reports without the original
// command line. The round trip preserves everything reporters read; it
// does not preserve workload generator parameters, so a reconstructed
// spec cannot be re-executed.
void write_spec_summary_json(std::ostream& out, const SweepSpec& spec,
                             const std::string& indent);
SweepSpec spec_from_summary_json(const JsonValue& summary);

// Canonical content strings hashed into the plan fingerprint: two plans
// that would compute the same deterministic values derive the same
// strings, whatever their in-plan indices are. synthetic_content_key
// covers every SyntheticSpec generation parameter, so a new generator
// field moves the fingerprint instead of letting distinct workloads pass
// as one. Policy content keys come from PolicyRegistry::content_key, so a
// config-defined policy's key embeds its whole definition.
std::string synthetic_content_key(const SyntheticSpec& spec);
std::string workload_content_key(const SweepWorkload& workload, Time horizon,
                                 std::uint64_t seed);

}  // namespace fairsched::exp
