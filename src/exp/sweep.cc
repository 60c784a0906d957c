#include "exp/sweep.h"

#include <cctype>
#include <cstdio>
#include <limits>
#include <stdexcept>

#include "exp/executor.h"
#include "exp/sweep_plan.h"
#include "util/cli.h"
#include "util/rng.h"

namespace fairsched::exp {

namespace {

Instance make_unit_instance(std::uint32_t orgs, std::uint32_t jobs_per_org,
                            std::uint64_t seed) {
  Rng rng(seed);
  InstanceBuilder b;
  for (std::uint32_t u = 0; u < orgs; ++u) {
    b.add_org("o" + std::to_string(u),
              1 + static_cast<std::uint32_t>(rng.uniform_u64(2)));
  }
  for (std::uint32_t u = 0; u < orgs; ++u) {
    for (std::uint32_t i = 0; i < jobs_per_org; ++i) {
      b.add_job(u, static_cast<Time>(rng.uniform_u64(50)), 1);
    }
  }
  return std::move(b).build();
}

Instance make_small_random_instance(std::size_t base_jobs,
                                    std::uint64_t seed) {
  Rng rng(seed);
  InstanceBuilder b;
  const std::uint32_t k = 2 + static_cast<std::uint32_t>(rng.uniform_u64(3));
  for (std::uint32_t u = 0; u < k; ++u) {
    b.add_org("o", 1 + static_cast<std::uint32_t>(rng.uniform_u64(3)));
  }
  const std::size_t jobs = base_jobs + rng.uniform_u64(40);
  for (std::size_t j = 0; j < jobs; ++j) {
    b.add_job(static_cast<OrgId>(rng.uniform_u64(k)),
              static_cast<Time>(rng.uniform_u64(40)),
              1 + static_cast<Time>(rng.uniform_u64(20)));
  }
  return std::move(b).build();
}

}  // namespace

SweepAxis::Scope default_axis_scope(SweepAxis::Bind bind) {
  switch (bind) {
    case SweepAxis::Bind::kPolicyParam:
      return SweepAxis::Scope::kPolicy;
    case SweepAxis::Bind::kStrategy:
    case SweepAxis::Bind::kDeviatorOrg:
    case SweepAxis::Bind::kDeviationParam:
      return SweepAxis::Scope::kStrategy;
    default:
      return SweepAxis::Scope::kWorkload;
  }
}

const char* axis_scope_name(SweepAxis::Scope scope) {
  switch (scope) {
    case SweepAxis::Scope::kPolicy:
      return "policy";
    case SweepAxis::Scope::kStrategy:
      return "strategy";
    case SweepAxis::Scope::kWorkload:
      return "workload";
  }
  throw std::logic_error("unreachable axis scope");
}

std::string normalize_axis_name(const std::string& name) {
  std::string out;
  out.reserve(name.size());
  for (char c : name) {
    if (c == '-' || c == '_') continue;
    out += static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  }
  return out;
}

bool integral_axis_bind(SweepAxis::Bind bind) {
  switch (bind) {
    case SweepAxis::Bind::kOrgs:
    case SweepAxis::Bind::kHorizon:
    case SweepAxis::Bind::kUnitJobsPerOrg:
    case SweepAxis::Bind::kRandomJobs:
    case SweepAxis::Bind::kStrategy:
    case SweepAxis::Bind::kDeviatorOrg:
    case SweepAxis::Bind::kDeviationParam:
      return true;
    default:
      return false;
  }
}

std::vector<AxisInfo> axis_catalog(const PolicyRegistry& registry) {
  std::vector<AxisInfo> catalog = {
      {"orgs", "", SweepAxis::Bind::kOrgs, "", true,
       SweepAxis::Scope::kWorkload, "2:7",
       "number of organizations in the consortium (Fig. 10)"},
      {"horizon", "duration", SweepAxis::Bind::kHorizon, "", true,
       SweepAxis::Scope::kWorkload, "12500:400000:12500",
       "per-point experiment horizon (the Table 1 -> Table 2 dimension)"},
      {"zipf-s", "", SweepAxis::Bind::kZipfS, "", false,
       SweepAxis::Scope::kWorkload, "0.5,1,1.5",
       "Zipf exponent of the machine split"},
      {"split", "", SweepAxis::Bind::kSplit, "", false,
       SweepAxis::Scope::kWorkload, "zipf,uniform",
       "machine split across organizations (0/zipf, 1/uniform)"},
      {"jobs-per-org", "", SweepAxis::Bind::kUnitJobsPerOrg, "", true,
       SweepAxis::Scope::kWorkload, "20:80:20",
       "unit-jobs workload: jobs per organization (Thm 5.6)"},
      {"random-jobs", "", SweepAxis::Bind::kRandomJobs, "", true,
       SweepAxis::Scope::kWorkload, "10,50",
       "small-random workload: base job count (Thm 6.2 probe)"},
      {"strategy", "deviation", SweepAxis::Bind::kStrategy, "", true,
       SweepAxis::Scope::kStrategy, "0:8",
       "deviation grid index played by the deviating org (Thm 4.1); "
       "needs a [strategy] grid or the strategy subcommand"},
      {"deviator-org", "", SweepAxis::Bind::kDeviatorOrg, "", true,
       SweepAxis::Scope::kStrategy, "0:2",
       "which organization deviates from its honest job stream"},
      {"deviation-param", "", SweepAxis::Bind::kDeviationParam, "", true,
       SweepAxis::Scope::kStrategy, "2,4,8",
       "overrides the played deviation's magnitude (honest ignores it)"},
  };
  // One axis per distinct parameter-axis name the registry's entries
  // declare (sorted by name): "half-life", "samples", and whatever
  // config-defined policies add.
  for (const PolicyRegistry::ParamAxis& axis : registry.param_axes()) {
    std::string description = axis.description;
    description += " (rebinds:";
    for (const std::string& policy : axis.policies) {
      description += " " + policy;
    }
    description += ")";
    catalog.push_back({axis.name, "", SweepAxis::Bind::kPolicyParam,
                       axis.name, axis.type == PolicyParam::Type::kInt,
                       SweepAxis::Scope::kPolicy, axis.hint,
                       std::move(description)});
  }
  return catalog;
}

Instance make_workload_instance(const SweepWorkload& workload, Time horizon,
                                std::uint64_t seed) {
  switch (workload.kind) {
    case SweepWorkload::Kind::kSynthetic:
      return make_synthetic_instance(workload.spec, workload.orgs, horizon,
                                     workload.split, workload.zipf_s, seed);
    case SweepWorkload::Kind::kUnitJobs:
      return make_unit_instance(workload.orgs, workload.unit_jobs_per_org,
                                seed);
    case SweepWorkload::Kind::kSmallRandom:
      return make_small_random_instance(workload.random_jobs, seed);
  }
  throw std::logic_error("make_workload_instance: unknown workload kind");
}

SweepAxis make_axis(const std::string& name, std::vector<double> values,
                    const PolicyRegistry& registry) {
  const std::string key = normalize_axis_name(name);
  const std::vector<AxisInfo> catalog = axis_catalog(registry);
  for (const AxisInfo& info : catalog) {
    bool matches = key == normalize_axis_name(info.name);
    for (const std::string& alias : split_and_trim(info.aliases, ',')) {
      matches |= key == normalize_axis_name(alias);
    }
    if (matches) {
      SweepAxis axis;
      axis.name = info.name;
      axis.bind = info.bind;
      axis.param = info.param;
      axis.integral = info.integral;
      axis.scope = default_axis_scope(info.bind);
      axis.values = std::move(values);
      return axis;
    }
  }
  std::string known;
  for (const AxisInfo& info : catalog) {
    if (!known.empty()) known += ", ";
    known += info.name;
  }
  throw std::invalid_argument("unknown sweep axis '" + name +
                              "'; known axes: " + known);
}

std::string axis_value_label(const SweepAxis& axis, double value) {
  if (!axis.value_labels.empty()) {
    for (std::size_t i = 0;
         i < axis.values.size() && i < axis.value_labels.size(); ++i) {
      if (axis.values[i] == value) return axis.value_labels[i];
    }
  }
  if (axis.bind == SweepAxis::Bind::kSplit) {
    return value == 0.0 ? "zipf" : "uniform";
  }
  if (axis.integral) {
    return std::to_string(static_cast<std::int64_t>(value));
  }
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.12g", value);
  return buf;
}

std::size_t num_axis_points(const SweepSpec& spec) {
  std::size_t points = 1;
  for (const SweepAxis& axis : spec.axes) {
    if (axis.values.empty()) {
      throw std::invalid_argument("sweep '" + spec.name + "': axis '" +
                                  axis.name + "' has no values");
    }
    if (points > std::numeric_limits<std::size_t>::max() /
                     axis.values.size()) {
      throw std::invalid_argument("sweep '" + spec.name +
                                  "': axis cross product overflows");
    }
    points *= axis.values.size();
  }
  return points;
}

std::vector<double> axis_point_values(const SweepSpec& spec,
                                      std::size_t point) {
  std::vector<double> values(spec.axes.size());
  // Mixed radix, axis 0 outermost: peel digits from the innermost axis.
  for (std::size_t j = spec.axes.size(); j-- > 0;) {
    const std::vector<double>& axis_values = spec.axes[j].values;
    values[j] = axis_values[point % axis_values.size()];
    point /= axis_values.size();
  }
  return values;
}

strategy::DeviationSpec sweep_point_deviation(const SweepSpec& spec,
                                              std::size_t point) {
  strategy::DeviationSpec dev;  // honest when no strategy axis applies
  const std::vector<double> values = axis_point_values(spec, point);
  for (std::size_t j = 0; j < spec.axes.size(); ++j) {
    if (spec.axes[j].bind != SweepAxis::Bind::kStrategy) continue;
    const std::size_t id = static_cast<std::size_t>(values[j]);
    if (id >= spec.deviations.size()) {
      throw std::invalid_argument(
          "sweep '" + spec.name + "': strategy axis value " +
          std::to_string(id) + " exceeds the deviation grid (" +
          std::to_string(spec.deviations.size()) + " entries)");
    }
    dev = spec.deviations[id];
  }
  for (std::size_t j = 0; j < spec.axes.size(); ++j) {
    if (spec.axes[j].bind != SweepAxis::Bind::kDeviationParam) continue;
    // Honest has no magnitude: the override leaves it honest, so every
    // deviation-param value shares one honest reference row.
    if (dev.kind != strategy::DeviationSpec::Kind::kHonest) {
      dev.param = static_cast<std::int64_t>(values[j]);
      strategy::validate_deviation(dev);
    }
  }
  return dev;
}

OrgId sweep_point_deviator(const SweepSpec& spec, std::size_t point) {
  const std::vector<double> values = axis_point_values(spec, point);
  for (std::size_t j = 0; j < spec.axes.size(); ++j) {
    if (spec.axes[j].bind == SweepAxis::Bind::kDeviatorOrg) {
      return static_cast<OrgId>(values[j]);
    }
  }
  return 0;
}

const SweepCell& SweepResult::cell(const SweepSpec& spec,
                                   std::size_t axis_point,
                                   std::size_t workload,
                                   std::size_t policy) const {
  return cells[(axis_point * spec.workloads.size() + workload) *
                   spec.policies.size() +
               policy];
}

SweepResult SweepDriver::run(const SweepSpec& spec, Progress progress,
                             RecordSink sink) const {
  // The driver is the whole-run facade over the planner/executor split:
  // build the (unsharded) plan, execute it in process. Sharded execution
  // uses build_sweep_plan + ThreadPoolExecutor directly, and out-of-process
  // execution the dispatcher (exp/sweep_plan.h, exp/executor.h,
  // dist/dispatcher.h).
  const SweepPlan plan = build_sweep_plan(spec, registry_);
  ThreadPoolExecutor executor;
  return executor.execute(plan, std::move(progress), std::move(sink));
}

}  // namespace fairsched::exp
