#pragma once

// The open policy API: a string-keyed registry of self-describing
// scheduling algorithms.
//
// Scenarios name policies as data ("roundrobin", "rand75",
// "decayfairshare2000", "myswitch(switch-at=5000)"); the registry owns the
// whole name grammar, resolves a name to a PolicySpec (sched/policy_spec.h)
// and instantiates a runnable Algorithm (sched/algorithm.h) from a spec.
// Registering here is what makes a policy reachable from fairsched_exp,
// the bench configs, and CSV/JSON scenario files without touching driver
// code — and `[policy NAME]` blocks in sweep-config files
// (exp/sweep_config.h) register whole new entries at config-load time, so
// new policies need no recompile at all.
//
// Every entry is self-describing: it declares its parameters (type, range,
// default, description) and, per parameter, the sweep-axis name that
// rebinds it across axis points. The sweep engine derives axis bindings
// from these declarations — any declared numeric parameter is
// automatically sweepable as an axis (exp/sweep.h) — and the workload/
// baseline cache and plan fingerprints key on the registry's canonical
// content strings, so equal specs always share cached runs.
//
// Name grammar (case-insensitive):
//   base                          all parameters at their defaults
//   base<number>                  legacy numeric suffix ("rand75",
//                                 "decayfairshare2000"); binds the entry's
//                                 declared suffix parameter
//   base(key=value, ...)          any declared parameter by name
// canonical_name() prints the unique canonical form of a spec (the suffix
// form where the entry declares one, bracket form for everything else);
// it is used uniformly for display names, CSV/JSON policy columns, plan
// fingerprints and cache keys.

#include <cstddef>
#include <functional>
#include <iosfwd>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "sched/algorithm.h"
#include "sched/policy_spec.h"

namespace fairsched::exp {

// One declared parameter of a registry entry.
struct ParamDecl {
  std::string key;  // canonical display spelling, e.g. "half-life"
  PolicyParam::Type type = PolicyParam::Type::kReal;
  double min_value = std::numeric_limits<double>::lowest();
  double max_value = std::numeric_limits<double>::max();
  bool min_exclusive = false;  // e.g. half-life > 0
  PolicyParam default_value;
  std::string description;
  // Sweep-axis name that rebinds this parameter per axis point; empty
  // means the parameter key itself is the axis name.
  std::string axis;
  std::string axis_hint;  // typical values shown by `list-axes`

  std::string axis_name() const { return axis.empty() ? key : axis; }
  // Human form of the accepted range, e.g. "> 0", ">= 1".
  std::string range_text() const;
  // Whether `v` satisfies the range (inclusive/exclusive bounds).
  bool in_range(double v) const;
};

class PolicyRegistry {
 public:
  // Instantiates a runnable Algorithm from a resolved spec.
  using AlgorithmFactory =
      std::function<std::unique_ptr<Algorithm>(const PolicySpec& spec)>;
  // Builds the engine Policy for one run; only policy-shaped entries have
  // one (REF/RAND produce whole schedules and leave it null).
  using PolicyFactory = std::function<std::unique_ptr<Policy>(
      const PolicySpec& spec, std::uint64_t seed)>;

  static constexpr std::size_t kNoSuffix = static_cast<std::size_t>(-1);

  struct Definition {
    std::string description;
    std::vector<ParamDecl> params;
    // Index into `params` of the parameter the legacy numeric-suffix
    // grammar binds ("rand75" -> samples); kNoSuffix disables the form.
    std::size_t suffix_param = kNoSuffix;
    // A policy-shaped entry sets `policy` (and optionally engine_options,
    // e.g. DirectContr's random machine pick); instantiate() wraps them in
    // a PolicyAlgorithm. Whole-schedule entries set `algorithm` instead.
    PolicyFactory policy;
    EngineOptions engine_options;
    AlgorithmFactory algorithm;
    // Content identity of the *implementation* behind this entry; empty
    // defaults to "builtin:<key>". Config-defined entries embed their full
    // definition (base content, composition structure) so two processes
    // loading different definitions of one name can never agree on a plan
    // fingerprint or share a cache entry.
    std::string content;
    bool config_defined = false;
  };

  // The process-wide registry, pre-seeded with every algorithm of the
  // paper plus the repo's extensions: fcfs, roundrobin, random,
  // directcontr, fairshare, utfairshare, currfairshare, ref, rand[N],
  // decayfairshare[HALF_LIFE].
  static PolicyRegistry& global();

  // Registers `key` (lower-cased). Validates the definition: exactly one
  // of policy/algorithm set, unique parameter keys, a suffix parameter
  // index in range, and axis names that do not shadow the workload axes
  // (orgs, horizon, ...). Re-registering a key replaces the previous
  // entry; built-in names may not be replaced by config-defined ones.
  void register_policy(const std::string& key, Definition definition);

  // Resolves a name through the grammar above to a fully-populated spec
  // (every declared parameter present, defaults filled). Throws
  // std::invalid_argument naming the known policies when the base matches
  // nothing, with a did-you-mean suggestion when a bracket parameter key
  // is unknown, or describing the parameter when a value is malformed or
  // out of range.
  PolicySpec make(const std::string& name) const;

  // True when `name` resolves to a registered entry with well-formed
  // parameter syntax. make(name) can still reject a parameter's *value*
  // (out of range, or overflowing its integer type).
  bool contains(const std::string& name) const;

  // Instantiates the runnable algorithm for a spec (range-checking the
  // parameters again — specs are data and may not have come from make()).
  std::unique_ptr<Algorithm> instantiate(const PolicySpec& spec) const;

  // Builds the engine Policy for a policy-shaped spec; throws
  // std::invalid_argument for whole-schedule entries (REF/RAND).
  std::unique_ptr<Policy> make_policy(const PolicySpec& spec,
                                      std::uint64_t seed = 0) const;
  // By-name convenience: make_policy(make(name), seed).
  std::unique_ptr<Policy> make_policy(const std::string& name,
                                      std::uint64_t seed = 0) const {
    return make_policy(make(name), seed);
  }
  bool policy_shaped(const std::string& base) const;

  // One-call convenience over make() + instantiate(): resolves `name`
  // through the grammar and runs the algorithm on `inst` until `horizon`.
  // `seed` feeds the algorithm's internal randomness; deterministic
  // algorithms ignore it.
  RunResult run(const Instance& inst, const std::string& name, Time horizon,
                std::uint64_t seed) const {
    return instantiate(make(name))->run(inst, horizon, seed);
  }

  // The unique canonical name of a spec (see the grammar note above);
  // make(canonical_name(s)) == s for any spec make() produced.
  std::string canonical_name(const PolicySpec& spec) const;

  // Canonical content string for the plan fingerprint: the entry's
  // implementation identity plus every parameter value. Equal specs =>
  // equal keys; distinct definitions => distinct keys even when their
  // names collide across processes.
  std::string content_key(const PolicySpec& spec) const;

  // Sorted registered keys (base names, without parameter suffixes).
  std::vector<std::string> names() const;

  // One (key, description) pair per entry, sorted by key; entries with a
  // suffix parameter are reported as "key[N]".
  std::vector<std::pair<std::string, std::string>> catalog() const;

  // Machine-readable catalog (`list-policies --json`): names,
  // descriptions, kinds, and declared parameters with types, ranges,
  // defaults and axis bindings. Deterministic output (sorted by key).
  void write_catalog_json(std::ostream& out) const;

  // The entry registered under exactly `base` (lower-case), or nullptr.
  const Definition* find(const std::string& base) const;

  // The declared parameter of `base` that sweep axis `axis` rebinds, or
  // nullptr when the entry does not declare one (or `base` is unknown).
  const ParamDecl* param_for_axis(const std::string& base,
                                  const std::string& axis) const;

  // Rebinds the parameter `axis` binds in `spec` to `value` (converted to
  // the declared type); no-op when the spec's entry does not declare the
  // axis. The caller validates the value against the declaration first
  // (exp/sweep_plan.cc does, with the axis named in the error).
  void bind_axis_value(PolicySpec& spec, const std::string& axis,
                       double value) const;

  // Every distinct parameter-bound sweep axis across the registered
  // entries, for `list-axes` and exp/sweep.h's make_axis.
  struct ParamAxis {
    std::string name;  // axis name, declaration spelling
    PolicyParam::Type type = PolicyParam::Type::kReal;
    std::string hint;
    std::string description;
    std::vector<std::string> policies;  // declaring entries, sorted
  };
  std::vector<ParamAxis> param_axes() const;

 private:
  struct Resolved {
    const Definition* definition = nullptr;
    std::string base;
    // Raw key=value assignments (canonical decl keys) awaiting binding.
    std::vector<std::pair<const ParamDecl*, std::string>> assignments;
  };
  // Grammar-level resolution; throws on shape errors, leaves value
  // conversion/range checks to bind_resolved.
  Resolved resolve(const std::string& name) const;
  PolicySpec bind_resolved(const Resolved& resolved,
                           const std::string& original) const;

  std::map<std::string, Definition> entries_;
};

// A `[policy NAME]` block from a sweep-config file: a new named policy
// derived from a base plus parameter overrides, or a simple composition
// (switch between two bases at a time, weighted random mixture). Parsed
// by exp/sweep_config.cc; registered through register_config_policy.
struct ConfigPolicyDef {
  std::string name;
  std::string description;  // optional; a default is derived

  // Exactly one of the three shapes:
  std::string base;  // `base = NAME` + overrides
  std::vector<std::pair<std::string, std::string>> overrides;  // raw k=v

  std::vector<std::string> switch_policies;  // `switch = A, B`
  std::string switch_at;                     // required with `switch`

  std::vector<std::pair<std::string, double>> mixture;  // `mix = A:w, ...`
};

// Validates `def` (shape, resolvable bases, policy-shaped composition
// members, parseable overrides) and registers it on `registry`, which must
// outlive the entry. Throws std::invalid_argument with a message naming
// the policy block on any error.
void register_config_policy(PolicyRegistry& registry,
                            const ConfigPolicyDef& def);

// Canonical registry name of a spec (PolicyRegistry::canonical_name on the
// global registry by default), such that registry.make(name) round-trips.
std::string canonical_policy_name(const PolicySpec& spec,
                                  const PolicyRegistry& registry =
                                      PolicyRegistry::global());

// Splits a comma-separated policy list and resolves each name through the
// registry. Throws on the first unknown name.
std::vector<PolicySpec> parse_policy_list(const std::string& csv,
                                          const PolicyRegistry& registry =
                                              PolicyRegistry::global());

}  // namespace fairsched::exp
