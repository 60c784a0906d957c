// Tests for the sweep planning layer (exp/sweep_plan.h): shard spec
// parsing, plan expansion and identifiers, the family-based shard
// partition, fingerprints, and the plan/spec JSON round trips.

#include <gtest/gtest.h>

#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "exp/sweep_plan.h"
#include "util/json.h"

namespace fairsched::exp {
namespace {

SweepSpec plan_sweep() {
  SweepSpec spec;
  spec.name = "plan-test";
  spec.policies = {"decayfairshare", "fairshare", "roundrobin"};
  SweepWorkload unit;
  unit.name = "unit-jobs";
  unit.kind = SweepWorkload::Kind::kUnitJobs;
  unit.orgs = 4;
  unit.unit_jobs_per_org = 30;
  SweepWorkload random;
  random.name = "small-random";
  random.kind = SweepWorkload::Kind::kSmallRandom;
  spec.workloads = {unit, random};
  spec.instances = 3;
  spec.seed = 99;
  spec.horizon = 80;
  spec.baseline = "ref";
  spec.axes.push_back(make_axis("half-life", {20, 500, 100000}));
  spec.axes.push_back(make_axis("orgs", {3, 4}));
  return spec;
}

TEST(ShardSpec, ParsesWellFormedSpecs) {
  EXPECT_EQ(parse_shard_spec(""), (SweepShard{0, 1}));
  EXPECT_EQ(parse_shard_spec("0/3"), (SweepShard{0, 3}));
  EXPECT_EQ(parse_shard_spec("2/3"), (SweepShard{2, 3}));
  EXPECT_EQ(parse_shard_spec("0/1"), (SweepShard{0, 1}));
  EXPECT_TRUE(parse_shard_spec("").whole());
  EXPECT_FALSE(parse_shard_spec("0/2").whole());
}

TEST(ShardSpec, RejectsMalformedSpecsWithClearErrors) {
  auto expect_error = [](const std::string& text,
                         const std::string& needle) {
    try {
      parse_shard_spec(text);
      FAIL() << "expected std::invalid_argument for '" << text << "'";
    } catch (const std::invalid_argument& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("malformed shard spec"), std::string::npos)
          << what;
      EXPECT_NE(what.find(needle), std::string::npos) << what;
      // Every message teaches the correct form.
      EXPECT_NE(what.find("INDEX/COUNT"), std::string::npos) << what;
    }
  };
  expect_error("3", "missing '/'");
  expect_error("abc", "missing '/'");
  expect_error("a/b", "not a non-negative integer");
  expect_error("-1/3", "not a non-negative integer");
  expect_error("1.5/3", "not a non-negative integer");
  expect_error("/3", "is empty");
  expect_error("1/", "is empty");
  expect_error("1/2/3", "not a non-negative integer");
  expect_error("0/0", "count must be >= 1");
  expect_error("3/3", "must be < count");
  expect_error("5/2", "must be < count");
}

TEST(SweepPlan, ExpandsDimensionsAndIdentifiers) {
  const SweepSpec spec = plan_sweep();
  const SweepPlan plan = build_sweep_plan(spec);
  EXPECT_EQ(plan.num_points, 6u);
  EXPECT_EQ(plan.num_workloads, 2u);
  EXPECT_EQ(plan.num_policies, 3u);
  EXPECT_EQ(plan.num_tasks, 6u * 2u * 3u);
  EXPECT_EQ(plan.shard_tasks.size(), plan.num_tasks);
  // half-life is policy-scoped: the 6 points collapse into 2 groups (one
  // per orgs value).
  EXPECT_EQ(plan.num_groups, 2u);
  // Identifier round trip: task ids decompose positionally, run ids are
  // the fold positions.
  for (std::size_t t = 0; t < plan.num_tasks; ++t) {
    const std::size_t a = plan.task_point(t);
    const std::size_t w = plan.task_workload(t);
    const std::size_t i = plan.task_instance(t);
    EXPECT_EQ((a * plan.num_workloads + w) * spec.instances + i, t);
    EXPECT_EQ(plan.run_id(t, 0), t * plan.num_policies);
  }
  // decayfairshare varies within each group; the others are shared.
  for (std::size_t g = 0; g < plan.num_groups; ++g) {
    EXPECT_EQ(plan.shared_slot[g * 3 + 0], SweepPlan::kNoSlot);
    EXPECT_NE(plan.shared_slot[g * 3 + 1], SweepPlan::kNoSlot);
    EXPECT_NE(plan.shared_slot[g * 3 + 2], SweepPlan::kNoSlot);
  }
}

TEST(SweepPlan, ShardsPartitionTasksByPrefixFamily) {
  const SweepSpec spec = plan_sweep();
  const SweepPlan whole = build_sweep_plan(spec);
  for (std::size_t count : {2u, 3u, 5u, 7u}) {
    std::set<std::size_t> seen_tasks;
    std::set<std::size_t> seen_cells;
    for (std::size_t index = 0; index < count; ++index) {
      const SweepPlan shard =
          build_sweep_plan(spec, PolicyRegistry::global(), {index, count});
      // Sharding never changes the plan itself, only ownership.
      EXPECT_EQ(shard.fingerprint, whole.fingerprint);
      EXPECT_EQ(shard.num_tasks, whole.num_tasks);
      std::size_t previous = 0;
      bool first = true;
      for (std::size_t task : shard.shard_tasks) {
        // Ascending (the shard's fold order), disjoint across shards,
        // and family-complete: a task's whole family shares its shard.
        if (!first) EXPECT_GT(task, previous);
        first = false;
        previous = task;
        EXPECT_TRUE(seen_tasks.insert(task).second) << task;
        EXPECT_EQ(shard.shard_of_family(shard.family_of_task(task)),
                  index);
      }
      for (std::size_t cell = 0; cell < shard.num_cells(); ++cell) {
        if (shard.owns_cell(cell)) {
          EXPECT_TRUE(seen_cells.insert(cell).second) << cell;
        }
      }
    }
    EXPECT_EQ(seen_tasks.size(), whole.num_tasks) << count;
    EXPECT_EQ(seen_cells.size(), whole.num_cells()) << count;
  }
}

TEST(SweepPlan, FingerprintTracksOutputShapingFieldsOnly) {
  const SweepSpec spec = plan_sweep();
  const std::uint64_t base = build_sweep_plan(spec).fingerprint;
  EXPECT_EQ(build_sweep_plan(spec).fingerprint, base);

  SweepSpec execution_only = spec;
  execution_only.threads = 7;
  execution_only.cache_bytes = 1;
  EXPECT_EQ(build_sweep_plan(execution_only).fingerprint, base);

  SweepSpec reseeded = spec;
  reseeded.seed = 100;
  EXPECT_NE(build_sweep_plan(reseeded).fingerprint, base);

  SweepSpec reshaped = spec;
  reshaped.axes[1].values.push_back(5);
  EXPECT_NE(build_sweep_plan(reshaped).fingerprint, base);

  SweepSpec repoliced = spec;
  repoliced.policies.pop_back();
  EXPECT_NE(build_sweep_plan(repoliced).fingerprint, base);
}

TEST(SweepPlan, PlanJsonIsParseableAndComplete) {
  const SweepSpec spec = plan_sweep();
  const SweepPlan plan =
      build_sweep_plan(spec, PolicyRegistry::global(), {1, 3});
  std::ostringstream out;
  write_plan_json(out, plan);
  const JsonValue doc = parse_json(out.str());
  EXPECT_EQ(doc.at("format").as_string(), "fairsched-sweep-plan");
  EXPECT_EQ(doc.at("tasks").as_uint(), plan.num_tasks);
  EXPECT_EQ(doc.at("runs").as_uint(), plan.num_tasks * plan.num_policies);
  EXPECT_EQ(doc.at("prefix_groups").as_uint(), plan.num_groups);
  EXPECT_EQ(doc.at("shard").at("index").as_uint(), 1u);
  ASSERT_EQ(doc.at("task_list").items().size(), plan.num_tasks);
  // Task entries carry the stable ids and the shard assignment.
  const JsonValue& task0 = doc.at("task_list").items()[0];
  EXPECT_EQ(task0.at("task").as_uint(), 0u);
  EXPECT_EQ(task0.at("first_run").as_uint(), 0u);
  EXPECT_LT(task0.at("shard").as_uint(), 3u);
}

TEST(SweepPlan, SpecSummaryRoundTripsReporterFields) {
  const SweepSpec spec = plan_sweep();
  std::ostringstream out;
  write_spec_summary_json(out, spec, "");
  const SweepSpec back = spec_from_summary_json(parse_json(out.str()));
  EXPECT_EQ(back.name, spec.name);
  EXPECT_EQ(back.instances, spec.instances);
  EXPECT_EQ(back.seed, spec.seed);
  EXPECT_EQ(back.horizon, spec.horizon);
  EXPECT_EQ(back.baseline, spec.baseline);
  EXPECT_EQ(back.policies, spec.policies);
  ASSERT_EQ(back.workloads.size(), spec.workloads.size());
  for (std::size_t w = 0; w < back.workloads.size(); ++w) {
    EXPECT_EQ(back.workloads[w].name, spec.workloads[w].name);
  }
  ASSERT_EQ(back.axes.size(), spec.axes.size());
  for (std::size_t j = 0; j < back.axes.size(); ++j) {
    EXPECT_EQ(back.axes[j].name, spec.axes[j].name);
    EXPECT_EQ(back.axes[j].bind, spec.axes[j].bind);
    EXPECT_EQ(back.axes[j].scope, spec.axes[j].scope);
    EXPECT_EQ(back.axes[j].values, spec.axes[j].values);
  }
}

TEST(SweepPlan, ContentKeysSeparateDistinctContent) {
  const SweepSpec spec = plan_sweep();
  const std::string a =
      workload_content_key(spec.workloads[0], spec.horizon, 1);
  EXPECT_EQ(workload_content_key(spec.workloads[0], spec.horizon, 1), a);
  EXPECT_NE(workload_content_key(spec.workloads[0], spec.horizon, 2), a);
  EXPECT_NE(workload_content_key(spec.workloads[1], spec.horizon, 1), a);
  EXPECT_NE(workload_content_key(spec.workloads[0], spec.horizon + 1, 1),
            a);
  const PolicyRegistry& registry = PolicyRegistry::global();
  const PolicySpec rand15 = registry.make("rand15");
  const PolicySpec rand75 = registry.make("rand75");
  EXPECT_NE(registry.content_key(rand15), registry.content_key(rand75));
  EXPECT_EQ(registry.content_key(rand15), registry.content_key(rand15));
  // Equal specs from different spellings share one content key (the
  // cache-sharing contract of the canonical form).
  EXPECT_EQ(registry.content_key(registry.make("rand(samples=15)")),
            registry.content_key(rand15));
}

TEST(SweepPlan, ConfigDefinedPoliciesFingerprintByDefinition) {
  // Two different definitions behind one name must never produce
  // merge-compatible fingerprints: the fingerprint hashes content keys,
  // which embed the whole definition.
  SweepSpec spec = plan_sweep();
  spec.policies = {"fpdemo", "fairshare"};
  ConfigPolicyDef def;
  def.name = "fpdemo";
  def.base = "decayfairshare";
  def.overrides.push_back({"half-life", "111"});
  register_config_policy(PolicyRegistry::global(), def);
  const std::uint64_t first = build_sweep_plan(spec).fingerprint;
  def.overrides.back().second = "222";
  register_config_policy(PolicyRegistry::global(), def);
  const std::uint64_t second = build_sweep_plan(spec).fingerprint;
  EXPECT_NE(first, second);
  // Re-registering the identical definition is idempotent.
  register_config_policy(PolicyRegistry::global(), def);
  EXPECT_EQ(build_sweep_plan(spec).fingerprint, second);
}

}  // namespace
}  // namespace fairsched::exp
