#pragma once

// Declarative experiment sweeps.
//
// A sweep is data: (policy set) x (workload generators) x (seeds) x a cross
// product of named parameter axes (number of organizations, horizon,
// fair-share half-life, ...). Execution is layered (docs/ARCHITECTURE.md):
// exp/sweep_plan.h expands a spec into a pure, serializable, shardable
// SweepPlan; exp/executor.h runs a plan in process on a thread pool, and
// dist/dispatcher.h across shard-worker sessions; exp/sweep_artifact.h
// merges shard partials. The
// SweepDriver below is the whole-run facade over those layers: it shards
// independent (axis point, workload, instance) cells across the shared
// ThreadPool and folds the results in a fixed sequential order, so the
// statistical output is bit-identical whatever the thread count (or shard
// partition) — CI asserts this. Per-run records are streamed to an opt-in
// sink instead of being retained, so peak memory is O(cells), independent
// of the run count. Per-run wall times are recorded for the JSON perf
// baselines but deliberately kept out of the deterministic aggregates.
//
// Cells that differ only in policy-scoped axis values (e.g. the fair-share
// half-life) share a *prefix* — generated workload, constructed instance,
// baseline reference run, and the runs of every policy those axes do not
// bind. The driver plans the cross product into prefix groups and computes
// each prefix once through a bounded WorkloadCache (exp/workload_cache.h);
// caching is a pure time optimization and never changes output.

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "core/instance.h"
#include "core/types.h"
#include "exp/policy_registry.h"
#include "exp/workload_cache.h"
#include "strategy/deviation.h"
#include "util/stats.h"
#include "workload/assignment.h"
#include "workload/synthetic.h"

namespace fairsched::exp {

// One workload generator of a sweep. kSynthetic draws a window from the
// archive-shaped generator (Section 7.2); kUnitJobs draws the unit-size
// instances the FPRAS convergence experiment (Thm 5.6) uses; kSmallRandom
// draws the small random consortia the utilization probe (Thm 6.2) samples.
struct SweepWorkload {
  enum class Kind { kSynthetic, kUnitJobs, kSmallRandom };

  std::string name;
  Kind kind = Kind::kSynthetic;

  // kSynthetic.
  SyntheticSpec spec;
  std::uint32_t orgs = 5;
  MachineSplit split = MachineSplit::kZipf;
  double zipf_s = 1.0;

  // kUnitJobs: `orgs` organizations with 1-3 machines each.
  std::uint32_t unit_jobs_per_org = 60;

  // kSmallRandom: 2-4 orgs, 1-3 machines each, `random_jobs`..random_jobs+39
  // jobs with short durations.
  std::size_t random_jobs = 10;
};

// Materializes one instance of the workload. Deterministic given the seed.
Instance make_workload_instance(const SweepWorkload& workload, Time horizon,
                                std::uint64_t seed);

// A named parameter axis. The sweep runs the full cross product of every
// axis's values; each value is bound onto the run's workload, horizon or
// policy parameters before execution. Reporters emit one column per axis.
struct SweepAxis {
  enum class Bind {
    kOrgs,            // SweepWorkload::orgs (Fig. 10's dimension)
    kHorizon,         // per-point experiment horizon (Tables 1 vs 2)
    kZipfS,           // Zipf exponent of the machine split
    kSplit,           // machine split: 0 = zipf, 1 = uniform
    kUnitJobsPerOrg,  // SweepWorkload::unit_jobs_per_org
    kRandomJobs,      // SweepWorkload::random_jobs
    // A declared policy parameter (exp/policy_registry.h): the axis
    // rebinds `param` in every selected policy whose registry entry
    // declares a parameter bound to this axis name — e.g. "half-life"
    // rebinds every decayfairshare-derived policy, "samples" every rand.
    // Any declared numeric parameter is sweepable this way; no axis code
    // changes when a policy (or a config-defined one) adds a parameter.
    kPolicyParam,
    // Strategy axes (strategy/deviation.h): which deviation of
    // SweepSpec::deviations the deviating organization plays, which
    // organization deviates, and an optional magnitude override of the
    // deviation's parameter. All three are strategy-scoped: they leave the
    // honest workload and the baseline run untouched, so every value
    // shares one cached prefix (window + honest REF baseline).
    kStrategy,        // index into SweepSpec::deviations
    kDeviatorOrg,     // which organization deviates (org index)
    kDeviationParam,  // overrides the deviation's parameter (honest ignores)
  };

  // What the axis parameterizes, which decides what the workload/baseline
  // cache may share across its values. kWorkload axes reshape the generated
  // instance (or the horizon), so every value is a distinct cell prefix;
  // kPolicy axes only rebind policy parameters, so all their values share
  // one prefix — instance, baseline run, and the runs of every policy the
  // axis does not bind. make_axis sets the default per Bind (only
  // kPolicyParam is policy-scoped); a scenario may widen a policy axis to
  // kWorkload to opt out of sharing, but never the reverse — the driver
  // rejects a policy-scoped axis whose bind reshapes the workload, because
  // grouping such cells onto one prefix would simulate the wrong
  // consortium. kStrategy axes transform one organization's *declared* job
  // stream after the honest instance and baseline exist, so all their
  // values share one prefix (instance + baseline) but never each other's
  // policy runs; the strategy binds are the only ones that may carry this
  // scope, and they always do.
  enum class Scope { kWorkload, kPolicy, kStrategy };

  std::string name;  // reporter column name, e.g. "orgs"
  Bind bind = Bind::kOrgs;
  // kPolicyParam only: the axis name the registry declarations bind
  // (normalized spelling; PolicyRegistry::bind_axis_value matches it).
  std::string param;
  // Values must be whole numbers and labels print without a decimal point
  // (workload binds with integral fields, int-typed policy parameters).
  bool integral = false;
  Scope scope = Scope::kWorkload;
  std::vector<double> values;
  // Optional display labels, parallel to `values` (empty = derive from the
  // value). The strategy axis labels its deviation ids with their canonical
  // deviation labels ("honest", "split2", ...); the labels round-trip
  // through spec summaries so `merge` prints them without the grid.
  std::vector<std::string> value_labels;
};

// The default scope of a bind: Scope::kPolicy for kPolicyParam,
// Scope::kStrategy for the strategy binds, kWorkload for everything else.
SweepAxis::Scope default_axis_scope(SweepAxis::Bind bind);

// "workload" / "policy" / "strategy" — the spelling shared by plan
// fingerprints, spec summaries and `fairsched_exp list-axes`.
const char* axis_scope_name(SweepAxis::Scope scope);

// Builds an axis from a user-facing name: the workload axes (orgs, horizon
// (alias: duration), zipf-s, split, jobs-per-org, random-jobs), or any
// parameter axis a registered policy declares ("half-life", "samples",
// ...). Case-insensitive, '-'/'_' interchangeable. Throws
// std::invalid_argument on unknown names, listing the valid ones.
SweepAxis make_axis(const std::string& name, std::vector<double> values,
                    const PolicyRegistry& registry =
                        PolicyRegistry::global());

// The spelling fold behind make_axis (lower-case, '-'/'_' stripped), so
// "half-life", "half_life" and "HalfLife" all name the same axis. Sweep
// config keys and policy parameter keys share these spelling rules
// (exp/sweep_config, exp/policy_registry).
std::string normalize_axis_name(const std::string& name);

// True for workload binds whose bound field is integral (orgs, horizon,
// jobs-per-org, random-jobs). Policy-parameter axes take their
// integrality from the parameter declaration (SweepAxis::integral).
bool integral_axis_bind(SweepAxis::Bind bind);

// One entry per axis the harness understands — the basis of make_axis,
// `fairsched_exp list-axes`, and the axis reference in
// docs/EXPERIMENTS.md. The workload axes are fixed; one policy-parameter
// axis is appended per distinct axis name declared by the registry's
// entries (so config-defined policies surface here too).
struct AxisInfo {
  std::string name;     // canonical reporter column name
  std::string aliases;  // extra accepted spellings, comma-joined ("" = none)
  SweepAxis::Bind bind;
  std::string param;        // kPolicyParam: bound parameter axis name
  bool integral = false;    // see SweepAxis::integral
  SweepAxis::Scope scope;   // default scope (see default_axis_scope)
  std::string values_hint;  // typical range, e.g. "2:7"
  std::string description;
};
std::vector<AxisInfo> axis_catalog(const PolicyRegistry& registry =
                                       PolicyRegistry::global());

// Human/CSV label of one axis value: integral binds print as integers,
// kSplit prints "zipf"/"uniform", the rest shortest-round-trip decimal.
std::string axis_value_label(const SweepAxis& axis, double value);

// Default byte budget of the sweep workload/baseline cache (--cache-mb=256).
inline constexpr std::size_t kDefaultCacheBytes = std::size_t{256} << 20;

struct SweepSpec {
  std::string name;                   // e.g. "table1"
  std::string title;                  // human header printed by the harness
  std::string note;                   // expected-shape remark printed after
  std::vector<std::string> policies;  // PolicyRegistry names
  std::vector<SweepWorkload> workloads;
  // Extra swept dimensions beyond policies x workloads x instances. May be
  // empty (a single implicit axis point). Axis 0 varies slowest.
  std::vector<SweepAxis> axes;
  std::size_t instances = 10;   // independent windows per workload
  std::uint64_t seed = 2013;    // base seed; instances use mix_seed(seed, i)
  Time horizon = 50000;         // default; a kHorizon axis overrides it
  // Reference policy for the fairness metrics (usually "ref"); empty
  // disables them (pure utilization/perf sweeps).
  std::string baseline = "ref";
  std::size_t threads = 0;  // 0 = hardware concurrency
  // Byte budget of the workload/baseline cache (--cache-mb); 0 disables
  // caching entirely (--no-cache). Output is bit-identical either way —
  // the cache only skips recomputing deterministic prefixes.
  std::size_t cache_bytes = kDefaultCacheBytes;
  // The deviation grid of a strategic-manipulation sweep
  // (strategy/deviation.h): non-empty exactly when the spec declares a
  // "strategy" axis, whose values index this vector. The planner resolves
  // each axis point to one effective deviation; the executor runs every
  // policy against the deviating organization's transformed job stream and
  // grades the outcome against the honest baseline.
  std::vector<strategy::DeviationSpec> deviations;

  bool is_strategy() const { return !deviations.empty(); }
};

// The effective deviation / deviating organization of one axis point: the
// strategy axis value indexes `spec.deviations`, a deviation-param axis
// overrides the deviation's parameter (ignored for honest entries), and a
// deviator-org axis picks the organization (default 0). Both throw
// std::invalid_argument on out-of-range strategy ids; build_sweep_plan
// validates the same bounds up front.
strategy::DeviationSpec sweep_point_deviation(const SweepSpec& spec,
                                              std::size_t point);
OrgId sweep_point_deviator(const SweepSpec& spec, std::size_t point);

// Number of axis points: the product of all axis value counts (1 when no
// axes are declared). Throws std::invalid_argument on overflow or an axis
// with no values.
std::size_t num_axis_points(const SweepSpec& spec);

// Decodes a flat axis-point index into one value per axis (mixed radix,
// axis 0 outermost). Returns an empty vector for axis-free sweeps.
std::vector<double> axis_point_values(const SweepSpec& spec,
                                      std::size_t point);

// One (axis point, workload, policy, instance) execution.
struct RunRecord {
  // Stable global run id: (task * policies + policy) where task = (point *
  // workloads + workload) * instances + instance. Equal to the record's
  // position in the deterministic fold/stream order, and independent of
  // thread count and sharding (exp/sweep_plan.h).
  std::uint64_t run_id = 0;
  std::size_t axis_point = 0;  // flat index; decode via axis_point_values
  std::size_t workload = 0;
  std::size_t policy = 0;
  std::size_t instance = 0;
  std::uint64_t seed = 0;
  double unfairness = 0.0;    // delta_psi / p_tot vs baseline (0 if none)
  double rel_distance = 0.0;  // ||psi - psi*|| / ||psi*|| vs baseline
  double utilization = 0.0;   // resource utilization of the run's schedule
  std::int64_t work_done = 0;
  double wall_ms = 0.0;       // this run only; excluded from aggregates
  // Strategy sweeps only (all exactly 0.0 otherwise): the deviating
  // organization's true-size psi_sp and mean flow time, and the summed
  // psi_sp of the honest organizations (strategy/game.h grades deviations
  // against the honest axis point's values of these).
  double deviator_utility = 0.0;
  double deviator_flow = 0.0;
  double honest_utility = 0.0;
  // True when the run's metrics were replayed from the workload/baseline
  // cache instead of re-simulated (the values are bit-identical either
  // way). Reporters ignore it; summaries count it.
  bool replayed = false;
};

struct SweepCell {
  StatsAccumulator unfairness;
  StatsAccumulator rel_distance;
  StatsAccumulator utilization;
  // Strategy sweeps only (exactly-zero samples otherwise; shard artifacts
  // carry these states only for strategy specs, keeping existing artifacts
  // byte-identical).
  StatsAccumulator deviator_utility;
  StatsAccumulator deviator_flow;
  StatsAccumulator honest_utility;
  std::int64_t work_done = 0;  // summed over the cell's runs
  double wall_ms = 0.0;
};

struct SweepResult {
  std::size_t axis_points = 1;
  // Flat cell array indexed [(axis_point * workloads + workload) * policies
  // + policy], aggregated in the deterministic fold order: axis point, then
  // workload, then instance, then policy.
  std::vector<SweepCell> cells;
  double baseline_wall_ms = 0.0;
  double total_wall_ms = 0.0;  // sum of per-run walls, not elapsed time
  double elapsed_ms = 0.0;     // wall clock of the whole driver run

  // Workload/baseline cache accounting (all zero when the cache was
  // disabled). prefix_groups is the number of distinct cell prefixes per
  // (workload, instance) — axis points merge into one group when they
  // differ only in policy-scoped axis values. replayed_runs counts records
  // copied from a cached prefix instead of re-simulated.
  bool cache_enabled = false;
  CacheStats cache;
  std::size_t prefix_groups = 1;
  std::uint64_t replayed_runs = 0;

  // How many shard executions produced this result: 1 for an in-process
  // run, N for a multi-process run or a `merge` of N partial artifacts.
  // When > 1, `cache` holds the component-wise totals and the per-shard
  // vectors (index == shard index) keep the individual breakdowns for the
  // summary lines.
  std::size_t shards = 1;
  std::vector<CacheStats> per_shard_cache;
  std::vector<std::uint64_t> per_shard_replayed;

  const SweepCell& cell(const SweepSpec& spec, std::size_t axis_point,
                        std::size_t workload, std::size_t policy) const;
};

class SweepDriver {
 public:
  explicit SweepDriver(const PolicyRegistry& registry =
                           PolicyRegistry::global())
      : registry_(registry) {}

  using Progress = std::function<void(const std::string& message)>;
  // Streaming per-run consumer, invoked in the deterministic fold order
  // (axis point, workload, instance, policy) regardless of thread count.
  // Records are not retained by the driver; a sink that needs them later
  // must copy. Exceptions thrown by the sink abort the sweep.
  using RecordSink = std::function<void(const RunRecord&)>;

  // Validates every policy name and axis up front, executes the sweep, and
  // streams records through `sink` while folding them into the per-cell
  // aggregates. Throws std::invalid_argument on unknown policies, malformed
  // axes or empty dimensions.
  SweepResult run(const SweepSpec& spec, Progress progress = nullptr,
                  RecordSink sink = nullptr) const;

 private:
  const PolicyRegistry& registry_;
};

}  // namespace fairsched::exp
