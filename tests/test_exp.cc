// Tests for the src/exp experiment harness: PolicyRegistry resolution,
// SweepDriver axis expansion and streaming-fold determinism across thread
// counts, and reporter/sink round-trips through util/csv.

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "exp/executor.h"
#include "exp/policy_registry.h"
#include "exp/reporter.h"
#include "exp/scenarios.h"
#include "exp/sweep.h"
#include "exp/sweep_artifact.h"
#include "exp/sweep_plan.h"
#include "strategy/game.h"
#include "util/csv.h"

namespace fairsched::exp {
namespace {

// --- PolicyRegistry ---------------------------------------------------------

TEST(PolicyRegistry, ResolvesFixedNames) {
  PolicyRegistry& registry = PolicyRegistry::global();
  for (const char* name :
       {"fcfs", "roundrobin", "fairshare", "utfairshare", "currfairshare",
        "directcontr", "random", "ref"}) {
    const PolicySpec spec = registry.make(name);
    EXPECT_EQ(spec.base, name);
    EXPECT_TRUE(spec.params.empty()) << name;
  }
}

TEST(PolicyRegistry, ResolvesParameterizedNames) {
  PolicyRegistry& registry = PolicyRegistry::global();
  const PolicySpec rand = registry.make("rand75");
  EXPECT_EQ(rand.base, "rand");
  EXPECT_EQ(rand.params.at("samples").int_value, 75);
  // Bare "rand" uses the paper's default sample count.
  EXPECT_EQ(registry.make("rand").params.at("samples").int_value, 15);
  const PolicySpec decay = registry.make("decayfairshare2500");
  EXPECT_EQ(decay.base, "decayfairshare");
  EXPECT_DOUBLE_EQ(decay.params.at("half-life").real_value, 2500.0);
  // The bracket form names any declared parameter and is equivalent.
  EXPECT_EQ(registry.make("rand(samples=75)"), rand);
  EXPECT_EQ(registry.make("decayfairshare(half-life=2500)"), decay);
  EXPECT_EQ(registry.make("decayfairshare(half_life = 2500)"), decay);
}

TEST(PolicyRegistry, IsCaseInsensitive) {
  PolicyRegistry& registry = PolicyRegistry::global();
  EXPECT_EQ(registry.make("RoundRobin").base, "roundrobin");
  EXPECT_EQ(registry.make("RAND15").params.at("samples").int_value, 15);
}

TEST(PolicyRegistry, UnknownNameThrowsWithKnownList) {
  PolicyRegistry& registry = PolicyRegistry::global();
  EXPECT_FALSE(registry.contains("nope"));
  try {
    registry.make("nope");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string message = e.what();
    EXPECT_NE(message.find("nope"), std::string::npos);
    EXPECT_NE(message.find("known policies"), std::string::npos);
    EXPECT_NE(message.find("fairshare"), std::string::npos);
  }
  // A parameterized prefix with a non-numeric suffix is not a match.
  EXPECT_FALSE(registry.contains("randx"));
  EXPECT_THROW(registry.make("randx"), std::invalid_argument);
  // Malformed parameter suffixes: contains() and make() must agree.
  EXPECT_FALSE(registry.contains("rand."));
  EXPECT_THROW(registry.make("rand."), std::invalid_argument);
  // rand's sample count is integral: a fractional value must not be
  // silently truncated to its integer prefix.
  EXPECT_FALSE(registry.contains("rand1.5"));
  EXPECT_THROW(registry.make("rand1.5"), std::invalid_argument);
  // decayfairshare's half-life is fractional.
  EXPECT_TRUE(registry.contains("decayfairshare2500.5"));
  EXPECT_DOUBLE_EQ(
      registry.make("decayfairshare2500.5").params.at("half-life")
          .real_value,
      2500.5);
  EXPECT_FALSE(registry.contains("decayfairshare1.2.3"));
  EXPECT_THROW(registry.make("decayfairshare1.2.3"), std::invalid_argument);
  // An out-of-range parameter surfaces as invalid_argument, not
  // std::out_of_range from the underlying conversion.
  EXPECT_TRUE(registry.contains("rand99999999999999999999"));
  EXPECT_THROW(registry.make("rand99999999999999999999"),
               std::invalid_argument);
  // Out-of-declared-range values are rejected with the range named.
  try {
    registry.make("rand0");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find(">= 1"), std::string::npos)
        << e.what();
  }
  EXPECT_THROW(registry.make("decayfairshare0"), std::invalid_argument);
}

TEST(PolicyRegistry, UnknownBracketParameterSuggestsDeclaredOnes) {
  PolicyRegistry& registry = PolicyRegistry::global();
  try {
    registry.make("rand(samplez=5)");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string message = e.what();
    EXPECT_NE(message.find("unknown parameter 'samplez'"),
              std::string::npos);
    EXPECT_NE(message.find("did you mean 'samples'?"), std::string::npos);
    EXPECT_NE(message.find("declared parameters: samples"),
              std::string::npos);
  }
  // A parameter nothing resembles lists the declarations without a guess.
  try {
    registry.make("decayfairshare(zzz=5)");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string message = e.what();
    EXPECT_EQ(message.find("did you mean"), std::string::npos) << message;
    EXPECT_NE(message.find("declared parameters: half-life"),
              std::string::npos);
  }
  EXPECT_THROW(registry.make("rand(samples=5"), std::invalid_argument);
  EXPECT_THROW(registry.make("rand(samples)"), std::invalid_argument);
  EXPECT_THROW(registry.make("rand(samples=5,samples=6)"),
               std::invalid_argument);
}

TEST(PolicyRegistry, CanonicalNamesRoundTrip) {
  PolicyRegistry& registry = PolicyRegistry::global();
  for (const char* name :
       {"fcfs", "roundrobin", "random", "directcontr", "fairshare",
        "utfairshare", "currfairshare", "ref", "rand15", "rand75",
        "decayfairshare2000", "decayfairshare1000000",
        "decayfairshare123456.75"}) {
    const PolicySpec spec = registry.make(name);
    const std::string canonical = canonical_policy_name(spec);
    EXPECT_EQ(canonical, name) << "already-canonical names are stable";
    EXPECT_EQ(registry.make(canonical), spec) << name;
  }
  // The suffix parameter always prints; bracket input canonicalizes to
  // the legacy suffix form.
  EXPECT_EQ(canonical_policy_name(registry.make("rand")), "rand15");
  EXPECT_EQ(canonical_policy_name(registry.make("rand(samples=75)")),
            "rand75");
  EXPECT_EQ(canonical_policy_name(registry.make("decayfairshare")),
            "decayfairshare5000");
}

TEST(PolicyRegistry, ParsesPolicyLists) {
  const std::vector<PolicySpec> specs =
      parse_policy_list("fcfs, roundrobin ,rand5");
  ASSERT_EQ(specs.size(), 3u);
  EXPECT_EQ(specs[0].base, "fcfs");
  EXPECT_EQ(specs[1].base, "roundrobin");
  EXPECT_EQ(specs[2].params.at("samples").int_value, 5);
  EXPECT_THROW(parse_policy_list(""), std::invalid_argument);
  EXPECT_THROW(parse_policy_list("fcfs,bogus"), std::invalid_argument);
}

TEST(PolicyRegistry, CatalogDescribesEveryEntry) {
  const auto catalog = PolicyRegistry::global().catalog();
  ASSERT_EQ(catalog.size(), PolicyRegistry::global().names().size());
  bool saw_rand = false;
  for (const auto& [name, description] : catalog) {
    EXPECT_FALSE(description.empty()) << name;
    if (name == "rand[N]") saw_rand = true;
  }
  EXPECT_TRUE(saw_rand) << "parameterized keys carry the [N] suffix";
}

// --- SweepDriver ------------------------------------------------------------

SweepSpec small_sweep(std::size_t threads) {
  SweepSpec spec;
  spec.name = "test";
  spec.policies = {"roundrobin", "fairshare", "rand5", "random"};
  SweepWorkload w;
  w.name = "unit-jobs";
  w.kind = SweepWorkload::Kind::kUnitJobs;
  w.orgs = 4;
  w.unit_jobs_per_org = 40;
  spec.workloads.push_back(w);
  spec.instances = 6;
  spec.seed = 42;
  spec.horizon = 120;
  spec.baseline = "ref";
  spec.threads = threads;
  return spec;
}

// Runs the sweep and returns (result, streamed records in sink order).
std::pair<SweepResult, std::vector<RunRecord>> run_collecting(
    const SweepSpec& spec) {
  std::vector<RunRecord> records;
  SweepResult result = SweepDriver().run(
      spec, nullptr,
      [&records](const RunRecord& record) { records.push_back(record); });
  return {std::move(result), std::move(records)};
}

TEST(SweepDriver, ValidatesSpecUpFront) {
  SweepDriver driver;
  SweepSpec bad = small_sweep(1);
  bad.policies.push_back("bogus");
  EXPECT_THROW(driver.run(bad), std::invalid_argument);
  bad = small_sweep(1);
  bad.policies.clear();
  EXPECT_THROW(driver.run(bad), std::invalid_argument);
  bad = small_sweep(1);
  bad.instances = 0;
  EXPECT_THROW(driver.run(bad), std::invalid_argument);
  bad = small_sweep(1);
  bad.workloads.clear();
  EXPECT_THROW(driver.run(bad), std::invalid_argument);
  // Malformed axes fail before any compute too.
  bad = small_sweep(1);
  bad.axes.push_back(make_axis("orgs", {}));
  EXPECT_THROW(driver.run(bad), std::invalid_argument);
  bad = small_sweep(1);
  bad.axes.push_back(make_axis("orgs", {0}));
  EXPECT_THROW(driver.run(bad), std::invalid_argument);
  bad = small_sweep(1);
  bad.axes.push_back(make_axis("orgs", {2.5}));
  EXPECT_THROW(driver.run(bad), std::invalid_argument);
  bad = small_sweep(1);
  bad.axes.push_back(make_axis("orgs", {2, 3}));
  bad.axes.push_back(make_axis("orgs", {4, 5}));
  EXPECT_THROW(driver.run(bad), std::invalid_argument);
  // Values beyond the bound field's 32-bit range would wrap into a
  // different consortium than the reported label.
  bad = small_sweep(1);
  bad.axes.push_back(make_axis("orgs", {4294967298.0}));
  EXPECT_THROW(driver.run(bad), std::invalid_argument);
  bad = small_sweep(1);
  bad.axes.push_back(make_axis("jobs-per-org", {1e12}));
  EXPECT_THROW(driver.run(bad), std::invalid_argument);
}

TEST(SweepDriver, StreamsRecordsCompleteAndOrdered) {
  const SweepSpec spec = small_sweep(2);
  const auto [result, records] = run_collecting(spec);
  ASSERT_EQ(records.size(), spec.instances * spec.policies.size());
  for (std::size_t i = 0; i < spec.instances; ++i) {
    for (std::size_t p = 0; p < spec.policies.size(); ++p) {
      const RunRecord& record = records[i * spec.policies.size() + p];
      EXPECT_EQ(record.axis_point, 0u);
      EXPECT_EQ(record.workload, 0u);
      EXPECT_EQ(record.instance, i);
      EXPECT_EQ(record.policy, p);
      EXPECT_GT(record.work_done, 0);
      EXPECT_GE(record.utilization, 0.0);
      EXPECT_LE(record.utilization, 1.0);
    }
  }
  EXPECT_EQ(result.axis_points, 1u);
  ASSERT_EQ(result.cells.size(), spec.policies.size());
  for (std::size_t p = 0; p < spec.policies.size(); ++p) {
    EXPECT_EQ(result.cell(spec, 0, 0, p).unfairness.count(), spec.instances);
  }
}

TEST(SweepDriver, SameSeedsGiveIdenticalOutputAcrossThreadCounts) {
  const auto [one, records_one] = run_collecting(small_sweep(1));
  const auto [many, records_many] = run_collecting(small_sweep(8));

  // Metric-by-metric equality must be exact (bitwise), not approximate:
  // the streaming fold order is fixed regardless of scheduling order.
  ASSERT_EQ(records_one.size(), records_many.size());
  for (std::size_t i = 0; i < records_one.size(); ++i) {
    EXPECT_EQ(records_one[i].seed, records_many[i].seed);
    EXPECT_EQ(records_one[i].unfairness, records_many[i].unfairness);
    EXPECT_EQ(records_one[i].rel_distance, records_many[i].rel_distance);
    EXPECT_EQ(records_one[i].utilization, records_many[i].utilization);
    EXPECT_EQ(records_one[i].work_done, records_many[i].work_done);
  }

  std::ostringstream csv_one, csv_many;
  CsvReporter(csv_one).report(small_sweep(1), one);
  CsvReporter(csv_many).report(small_sweep(8), many);
  EXPECT_EQ(csv_one.str(), csv_many.str());
}

TEST(SweepDriver, BaselinelessSweepSkipsFairnessMetrics) {
  SweepSpec spec = small_sweep(2);
  spec.baseline.clear();
  const auto [result, records] = run_collecting(spec);
  for (const RunRecord& record : records) {
    EXPECT_EQ(record.unfairness, 0.0);
    EXPECT_EQ(record.rel_distance, 0.0);
    EXPECT_GT(record.utilization, 0.0);
  }
}

// --- Axes -------------------------------------------------------------------

TEST(SweepAxis, MakeAxisResolvesNamesAndAliases) {
  EXPECT_EQ(make_axis("orgs", {2}).bind, SweepAxis::Bind::kOrgs);
  EXPECT_EQ(make_axis("half_life", {5}).name, "half-life");
  EXPECT_EQ(make_axis("HalfLife", {5}).bind, SweepAxis::Bind::kPolicyParam);
  EXPECT_EQ(make_axis("half-life", {5}).scope, SweepAxis::Scope::kPolicy);
  // Any declared policy parameter is an axis: rand's sample count too.
  EXPECT_EQ(make_axis("samples", {1, 5}).bind,
            SweepAxis::Bind::kPolicyParam);
  EXPECT_TRUE(make_axis("samples", {1, 5}).integral);
  EXPECT_EQ(make_axis("duration", {5}).name, "horizon");
  EXPECT_EQ(make_axis("duration", {5}).bind, SweepAxis::Bind::kHorizon);
  EXPECT_EQ(make_axis("zipf-s", {1}).bind, SweepAxis::Bind::kZipfS);
  EXPECT_EQ(make_axis("jobs-per-org", {4}).bind,
            SweepAxis::Bind::kUnitJobsPerOrg);
  try {
    make_axis("bogus", {1});
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("known axes"), std::string::npos);
  }
}

TEST(SweepAxis, ValueLabels) {
  EXPECT_EQ(axis_value_label(make_axis("orgs", {}), 7.0), "7");
  EXPECT_EQ(axis_value_label(make_axis("horizon", {}), 400000.0), "400000");
  EXPECT_EQ(axis_value_label(make_axis("split", {}), 0.0), "zipf");
  EXPECT_EQ(axis_value_label(make_axis("split", {}), 1.0), "uniform");
  EXPECT_EQ(axis_value_label(make_axis("zipf-s", {}), 0.5), "0.5");
  EXPECT_EQ(axis_value_label(make_axis("half-life", {}), 2500.0), "2500");
}

TEST(SweepAxis, ExpansionProducesProductOfCells) {
  SweepSpec spec = small_sweep(2);
  spec.axes.push_back(make_axis("orgs", {2, 3, 4}));
  spec.axes.push_back(make_axis("jobs-per-org", {20, 40}));
  EXPECT_EQ(num_axis_points(spec), 6u);

  const auto [result, records] = run_collecting(spec);
  EXPECT_EQ(result.axis_points, 6u);
  ASSERT_EQ(result.cells.size(), 6u * spec.policies.size());
  ASSERT_EQ(records.size(),
            6u * spec.instances * spec.policies.size());
  // Every cell aggregates exactly `instances` runs.
  for (std::size_t a = 0; a < 6; ++a) {
    for (std::size_t p = 0; p < spec.policies.size(); ++p) {
      EXPECT_EQ(result.cell(spec, a, 0, p).unfairness.count(),
                spec.instances);
    }
  }
  // Streamed order is axis-major; axis 0 varies slowest.
  for (std::size_t r = 0; r < records.size(); ++r) {
    const std::size_t expected_point =
        r / (spec.instances * spec.policies.size());
    EXPECT_EQ(records[r].axis_point, expected_point);
  }
  // Mixed-radix decode recovers the per-axis values.
  EXPECT_EQ(axis_point_values(spec, 0), (std::vector<double>{2, 20}));
  EXPECT_EQ(axis_point_values(spec, 1), (std::vector<double>{2, 40}));
  EXPECT_EQ(axis_point_values(spec, 5), (std::vector<double>{4, 40}));
}

TEST(SweepAxis, AxisSweepDeterministicAcrossThreadCounts) {
  auto make = [](std::size_t threads) {
    SweepSpec spec = small_sweep(threads);
    spec.instances = 4;
    spec.axes.push_back(make_axis("orgs", {2, 3, 5}));
    spec.axes.push_back(make_axis("horizon", {60, 120}));
    return spec;
  };
  const auto [one, records_one] = run_collecting(make(1));
  const auto [many, records_many] = run_collecting(make(8));
  ASSERT_EQ(records_one.size(), records_many.size());
  for (std::size_t i = 0; i < records_one.size(); ++i) {
    EXPECT_EQ(records_one[i].axis_point, records_many[i].axis_point);
    EXPECT_EQ(records_one[i].seed, records_many[i].seed);
    EXPECT_EQ(records_one[i].unfairness, records_many[i].unfairness);
    EXPECT_EQ(records_one[i].utilization, records_many[i].utilization);
    EXPECT_EQ(records_one[i].work_done, records_many[i].work_done);
  }
  std::ostringstream csv_one, csv_many;
  CsvReporter(csv_one).report(make(1), one);
  CsvReporter(csv_many).report(make(8), many);
  EXPECT_EQ(csv_one.str(), csv_many.str());
}

TEST(SweepAxis, HorizonAxisChangesTheRuns) {
  SweepSpec spec = small_sweep(2);
  spec.baseline.clear();
  // Enough jobs that neither horizon drains the queue: completed work must
  // then strictly grow with the horizon.
  spec.workloads[0].unit_jobs_per_org = 200;
  spec.axes.push_back(make_axis("horizon", {30, 60}));
  const auto [result, records] = run_collecting(spec);
  // More horizon, more completed work: the two axis points must differ.
  std::int64_t work0 = 0, work1 = 0;
  for (std::size_t p = 0; p < spec.policies.size(); ++p) {
    work0 += result.cell(spec, 0, 0, p).work_done;
    work1 += result.cell(spec, 1, 0, p).work_done;
  }
  EXPECT_LT(work0, work1);
}

TEST(SweepAxis, HalfLifeAxisBindsOnlyDecayPolicies) {
  SweepSpec spec = small_sweep(2);
  spec.policies = {"decayfairshare", "fairshare"};
  spec.instances = 3;
  spec.axes.push_back(make_axis("half-life", {20, 100000}));
  const auto [result, records] = run_collecting(spec);
  ASSERT_EQ(records.size(), 2u * spec.instances * 2u);
  // Axis points share instance seeds (paired samples), so a policy the
  // axis does not bind must reproduce bit-identical runs on both points.
  for (std::size_t i = 0; i < spec.instances; ++i) {
    const RunRecord& a0 = records[i * 2 + 1];  // fairshare, first point
    const RunRecord& a1 =
        records[(spec.instances + i) * 2 + 1];  // fairshare, second point
    EXPECT_EQ(a0.seed, a1.seed);
    EXPECT_EQ(a0.unfairness, a1.unfairness);
    EXPECT_EQ(a0.work_done, a1.work_done);
  }
}

// --- Workload/baseline cache ------------------------------------------------

// A sweep where the cache has real sharing to do: a policy-scoped
// half-life axis (all four points share instance + baseline + every
// non-decay policy run) on top of the unit-jobs workload.
SweepSpec decay_sweep(std::size_t threads, std::size_t cache_bytes) {
  SweepSpec spec = small_sweep(threads);
  spec.policies = {"decayfairshare", "fairshare", "roundrobin", "rand5"};
  spec.instances = 3;
  spec.axes.push_back(make_axis("half-life", {20, 60, 500, 100000}));
  spec.cache_bytes = cache_bytes;
  return spec;
}

// Strips the fields the determinism contract deliberately excludes, so the
// comparison below is exact on everything else.
void expect_same_records(const std::vector<RunRecord>& lhs,
                         const std::vector<RunRecord>& rhs) {
  ASSERT_EQ(lhs.size(), rhs.size());
  for (std::size_t i = 0; i < lhs.size(); ++i) {
    EXPECT_EQ(lhs[i].axis_point, rhs[i].axis_point);
    EXPECT_EQ(lhs[i].workload, rhs[i].workload);
    EXPECT_EQ(lhs[i].policy, rhs[i].policy);
    EXPECT_EQ(lhs[i].instance, rhs[i].instance);
    EXPECT_EQ(lhs[i].seed, rhs[i].seed);
    EXPECT_EQ(lhs[i].unfairness, rhs[i].unfairness);
    EXPECT_EQ(lhs[i].rel_distance, rhs[i].rel_distance);
    EXPECT_EQ(lhs[i].utilization, rhs[i].utilization);
    EXPECT_EQ(lhs[i].work_done, rhs[i].work_done);
  }
}

TEST(WorkloadCacheSweep, CachedOutputBitIdenticalToUncachedAcrossThreads) {
  const auto [uncached, records_uncached] =
      run_collecting(decay_sweep(1, 0));
  for (std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    const SweepSpec spec = decay_sweep(threads, kDefaultCacheBytes);
    const auto [cached, records_cached] = run_collecting(spec);
    expect_same_records(records_uncached, records_cached);
    std::ostringstream csv_uncached, csv_cached;
    CsvReporter(csv_uncached).report(spec, uncached);
    CsvReporter(csv_cached).report(spec, cached);
    EXPECT_EQ(csv_uncached.str(), csv_cached.str()) << threads;
    // The streamed per-run CSV (what CI diffs) is identical too.
    std::ostringstream rows_uncached, rows_cached;
    CsvRecordSink sink_uncached(rows_uncached, spec);
    for (const RunRecord& r : records_uncached) sink_uncached.write(r);
    CsvRecordSink sink_cached(rows_cached, spec);
    for (const RunRecord& r : records_cached) sink_cached.write(r);
    EXPECT_EQ(rows_uncached.str(), rows_cached.str()) << threads;
    EXPECT_TRUE(cached.cache_enabled);
    EXPECT_GT(cached.cache.hits, 0u);
    EXPECT_GT(cached.replayed_runs, 0u);
  }
  EXPECT_FALSE(uncached.cache_enabled);
  EXPECT_EQ(uncached.cache.hits + uncached.cache.misses, 0u);
  EXPECT_EQ(uncached.replayed_runs, 0u);
}

TEST(WorkloadCacheSweep, MixedAxesPrefixComputeCounts) {
  // half-life (policy-scoped, 3 values) x orgs (workload-scoped, 2 values):
  // 6 axis points collapse into 2 prefix groups, so per (workload,
  // instance) the prefix is computed twice, not six times.
  SweepSpec spec = small_sweep(4);
  spec.policies = {"decayfairshare", "fairshare", "roundrobin"};
  spec.instances = 3;
  spec.axes.push_back(make_axis("half-life", {20, 60, 100000}));
  spec.axes.push_back(make_axis("orgs", {3, 4}));
  EXPECT_EQ(spec.axes[0].scope, SweepAxis::Scope::kPolicy);
  EXPECT_EQ(spec.axes[1].scope, SweepAxis::Scope::kWorkload);
  const auto [result, records] = run_collecting(spec);

  const std::size_t groups = 2, points = 6;
  EXPECT_EQ(result.prefix_groups, groups);
  // One prefix lookup per task (unit workload: no window sub-cache keys).
  EXPECT_EQ(result.cache.misses, groups * spec.instances);
  EXPECT_EQ(result.cache.hits, (points - groups) * spec.instances);
  EXPECT_EQ(result.cache.evictions, 0u);
  // fairshare + roundrobin replay at every non-computing point of a group;
  // decayfairshare varies within each group and re-runs everywhere.
  EXPECT_EQ(result.replayed_runs, (points - groups) * spec.instances * 2);
  ASSERT_EQ(records.size(), points * spec.instances * spec.policies.size());
  for (const RunRecord& record : records) {
    EXPECT_FALSE(record.policy == 0 && record.replayed);
  }
}

TEST(WorkloadCacheSweep, EvictionUnderTinyBudgetKeepsOutputIdentical) {
  const auto [reference, records_reference] =
      run_collecting(decay_sweep(4, 0));
  SweepSpec tiny = decay_sweep(4, 1);  // 1 byte: nothing can stay resident
  const auto [result, records] = run_collecting(tiny);
  expect_same_records(records_reference, records);
  EXPECT_GT(result.cache.evictions, 0u);
  EXPECT_EQ(result.cache.bytes_in_use, 0u);
}

TEST(WorkloadCacheSweep, SyntheticWindowsShareAcrossConsortiumAxes) {
  // An orgs axis over a synthetic workload: every axis point is its own
  // prefix group (REF really differs), but the generated window depends
  // only on (workload, instance, horizon) and is reused across points.
  SweepSpec spec;
  spec.name = "window-share";
  spec.policies = {"roundrobin", "fairshare"};
  spec.baseline = "ref";
  spec.seed = 7;
  spec.threads = 2;
  spec.horizon = 400;
  spec.instances = 2;
  SweepWorkload w;
  w.name = "lpc";
  w.kind = SweepWorkload::Kind::kSynthetic;
  w.spec = preset_lpc_egee();
  spec.workloads.push_back(std::move(w));
  spec.axes.push_back(make_axis("orgs", {2, 3, 4}));

  const auto [cached, records_cached] = run_collecting(spec);
  EXPECT_EQ(cached.prefix_groups, 3u);
  // Window keys: 1 miss + 2 hits per instance. Prefix keys are single-use
  // (every group has one point) and count as misses.
  EXPECT_EQ(cached.cache.hits, 2 * spec.instances);
  EXPECT_EQ(cached.cache.misses, 4 * spec.instances);
  EXPECT_EQ(cached.replayed_runs, 0u);

  SweepSpec uncached = spec;
  uncached.cache_bytes = 0;
  const auto [reference, records_reference] = run_collecting(uncached);
  expect_same_records(records_reference, records_cached);
}

TEST(WorkloadCacheSweep, PolicyScopedAxisMustBindAPolicy) {
  // A half-life axis over a policy set with no decayfairshare would sweep
  // identical cells; the registry's bound-axes declarations let the driver
  // reject it up front.
  SweepSpec spec = small_sweep(1);
  spec.axes.push_back(make_axis("half-life", {100, 1000}));
  try {
    SweepDriver().run(spec);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("binds no selected policy"),
              std::string::npos);
  }
  spec.policies.push_back("decayfairshare");
  EXPECT_NO_THROW(SweepDriver().run(spec));
  // Registry declarations behind the check:
  EXPECT_NE(PolicyRegistry::global().param_for_axis("decayfairshare",
                                                    "half-life"),
            nullptr);
  EXPECT_EQ(PolicyRegistry::global().param_for_axis("fairshare",
                                                    "half-life"),
            nullptr);
}

TEST(WorkloadCacheSweep, ConfigDefinedPolicyInheritsItsBaseAxes) {
  // A config-defined policy derived from decayfairshare inherits the
  // half-life declaration, so the axis binds it (and the prefix cache
  // re-runs it per point while fairshare replays).
  ConfigPolicyDef def;
  def.name = "shadowdecay";
  def.base = "decayfairshare";
  def.overrides.push_back({"half-life", "1000"});
  register_config_policy(PolicyRegistry::global(), def);
  SweepSpec spec = small_sweep(1);
  spec.policies = {"shadowdecay", "fairshare"};
  spec.instances = 2;
  spec.axes.push_back(make_axis("half-life", {20, 100000}));
  const auto [result, records] = run_collecting(spec);
  EXPECT_EQ(result.prefix_groups, 1u);
  // fairshare replays across the group; shadowdecay re-runs per point.
  EXPECT_EQ(result.replayed_runs, spec.instances);
  // The derived entry is itself parameterized through the open grammar,
  // and its runs match its base's at equal parameter values.
  const PolicySpec derived =
      PolicyRegistry::global().make("shadowdecay(half-life=20)");
  EXPECT_DOUBLE_EQ(derived.params.at("half-life").real_value, 20.0);
}

TEST(WorkloadCacheSweep, WorkloadScopedBindsRejectPolicyScope) {
  // Scope can be widened to kWorkload (opting out of sharing) but a
  // workload-reshaping bind can never be narrowed to kPolicy.
  SweepSpec spec = small_sweep(1);
  SweepAxis axis = make_axis("orgs", {2, 3});
  axis.scope = SweepAxis::Scope::kPolicy;
  spec.axes.push_back(axis);
  EXPECT_THROW(SweepDriver().run(spec), std::invalid_argument);

  // Widening half-life to kWorkload is allowed and simply disables prefix
  // sharing: every axis point becomes its own group.
  SweepSpec widened = small_sweep(1);
  widened.policies = {"decayfairshare", "fairshare"};
  widened.instances = 2;
  SweepAxis half_life = make_axis("half-life", {20, 100000});
  half_life.scope = SweepAxis::Scope::kWorkload;
  widened.axes.push_back(half_life);
  const auto [result, records] = run_collecting(widened);
  EXPECT_EQ(result.prefix_groups, 2u);
  EXPECT_EQ(result.replayed_runs, 0u);
}

// --- Planner/executor split: shards, artifacts, merge -----------------------

// A sweep with several prefix families (2 groups x 2 workloads) so an
// N-way shard partition actually distributes work.
SweepSpec sharded_sweep(std::size_t threads) {
  SweepSpec spec;
  spec.name = "sharded";
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
  spec.instances = 2;
  spec.seed = 7;
  spec.horizon = 100;
  spec.baseline = "ref";
  spec.threads = threads;
  spec.axes.push_back(make_axis("half-life", {20, 100000}));
  spec.axes.push_back(make_axis("orgs", {3, 4}));
  return spec;
}

std::string aggregate_csv(const SweepSpec& spec, const SweepResult& result) {
  std::ostringstream out;
  CsvReporter(out).report(spec, result);
  return out.str();
}

std::string human_table(const SweepSpec& spec, const SweepResult& result) {
  std::ostringstream out;
  TableReporter(out).report(spec, result);
  return out.str();
}

// Executes shard s/N of `spec` and round-trips the result through the
// artifact text format, as a worker process would.
ShardArtifact run_shard(const SweepSpec& spec, std::size_t index,
                        std::size_t count) {
  const SweepPlan plan =
      build_sweep_plan(spec, PolicyRegistry::global(), {index, count});
  ThreadPoolExecutor executor;
  const SweepResult result = executor.execute(plan);
  std::ostringstream artifact;
  write_shard_artifact(artifact, plan, result);
  return parse_shard_artifact(artifact.str(),
                              "shard-" + std::to_string(index));
}

TEST(ShardedSweep, MergedShardsBitIdenticalToWholeRunAtAnyShardCount) {
  const SweepSpec spec = sharded_sweep(2);
  const SweepResult whole = SweepDriver().run(spec);
  const std::string whole_csv = aggregate_csv(spec, whole);
  const std::string whole_table = human_table(spec, whole);

  for (std::size_t count : {2u, 3u, 5u}) {
    std::vector<ShardArtifact> artifacts;
    for (std::size_t s = 0; s < count; ++s) {
      // Vary the thread count per shard: the contract holds regardless.
      SweepSpec shard_spec = spec;
      shard_spec.threads = 1 + s % 3;
      artifacts.push_back(run_shard(shard_spec, s, count));
    }
    const MergedSweep merged = merge_shard_artifacts(std::move(artifacts));
    // Byte-identical statistical output, through the reconstructed spec.
    EXPECT_EQ(aggregate_csv(merged.spec, merged.result), whole_csv)
        << count;
    EXPECT_EQ(human_table(merged.spec, merged.result), whole_table)
        << count;
    EXPECT_EQ(merged.result.shards, count);
    ASSERT_EQ(merged.result.per_shard_cache.size(), count);
    EXPECT_EQ(merged.result.prefix_groups, whole.prefix_groups);
  }
}

TEST(ShardedSweep, MergeMatchesWholeRunWithCacheDisabled) {
  SweepSpec spec = sharded_sweep(2);
  const std::string whole_csv =
      aggregate_csv(spec, SweepDriver().run(spec));
  spec.cache_bytes = 0;  // shards run uncached; output must not move
  std::vector<ShardArtifact> artifacts;
  for (std::size_t s = 0; s < 3; ++s) {
    artifacts.push_back(run_shard(spec, s, 3));
  }
  const MergedSweep merged = merge_shard_artifacts(std::move(artifacts));
  EXPECT_EQ(aggregate_csv(merged.spec, merged.result), whole_csv);
  EXPECT_FALSE(merged.result.cache_enabled);
}

TEST(ShardedSweep, ShardRunsOnlyOwnedCellsAndRecordsCarryRunIds) {
  const SweepSpec spec = sharded_sweep(1);
  // Whole-run records stream exactly in run-id order.
  const auto [whole, whole_records] = run_collecting(spec);
  for (std::size_t r = 0; r < whole_records.size(); ++r) {
    EXPECT_EQ(whole_records[r].run_id, r);
  }

  const SweepPlan plan =
      build_sweep_plan(spec, PolicyRegistry::global(), {1, 3});
  ThreadPoolExecutor executor;
  std::vector<RunRecord> records;
  const SweepResult result = executor.execute(
      plan, nullptr,
      [&records](const RunRecord& record) { records.push_back(record); });
  ASSERT_EQ(records.size(),
            plan.shard_tasks.size() * spec.policies.size());
  ASSERT_FALSE(records.empty());
  // The shard's stream is the whole run's restricted to its tasks: same
  // run ids, same values, ascending order.
  std::size_t previous = 0;
  bool first = true;
  for (const RunRecord& record : records) {
    if (!first) EXPECT_GT(record.run_id, previous);
    first = false;
    previous = record.run_id;
    const RunRecord& reference = whole_records[record.run_id];
    EXPECT_EQ(record.axis_point, reference.axis_point);
    EXPECT_EQ(record.unfairness, reference.unfairness);
    EXPECT_EQ(record.work_done, reference.work_done);
  }
  // Unowned cells stay empty; owned ones match the whole run bit-for-bit.
  for (std::size_t cell = 0; cell < result.cells.size(); ++cell) {
    if (plan.owns_cell(cell)) {
      EXPECT_EQ(result.cells[cell].unfairness.count(), spec.instances);
      EXPECT_EQ(result.cells[cell].unfairness.mean(),
                whole.cells[cell].unfairness.mean());
    } else {
      EXPECT_EQ(result.cells[cell].unfairness.count(), 0u);
    }
  }
}

TEST(ShardedSweep, MergeRejectsInconsistentArtifactSets) {
  const SweepSpec spec = sharded_sweep(1);
  std::vector<ShardArtifact> artifacts;
  for (std::size_t s = 0; s < 3; ++s) {
    artifacts.push_back(run_shard(spec, s, 3));
  }
  EXPECT_THROW(merge_shard_artifacts({}), std::invalid_argument);
  // Missing one shard.
  EXPECT_THROW(merge_shard_artifacts({artifacts[0], artifacts[1]}),
               std::invalid_argument);
  // The same shard twice.
  EXPECT_THROW(
      merge_shard_artifacts({artifacts[0], artifacts[1], artifacts[1]}),
      std::invalid_argument);
  // A shard of a different plan (different seed => fingerprint).
  SweepSpec other = spec;
  other.seed = spec.seed + 1;
  EXPECT_THROW(merge_shard_artifacts(
                   {artifacts[0], artifacts[1], run_shard(other, 2, 3)}),
               std::invalid_argument);
  // The intact set still merges.
  EXPECT_NO_THROW(merge_shard_artifacts(std::move(artifacts)));
}

TEST(ShardedSweep, ArtifactTextRejectsTampering) {
  const SweepSpec spec = sharded_sweep(1);
  const SweepPlan plan =
      build_sweep_plan(spec, PolicyRegistry::global(), {0, 2});
  ThreadPoolExecutor executor;
  const SweepResult result = executor.execute(plan);
  std::ostringstream artifact;
  write_shard_artifact(artifact, plan, result);
  const std::string text = artifact.str();
  EXPECT_NO_THROW(parse_shard_artifact(text, "ok"));
  EXPECT_THROW(parse_shard_artifact(text.substr(0, text.size() / 2),
                                    "truncated"),
               std::invalid_argument);
  EXPECT_THROW(parse_shard_artifact("{}", "empty"), std::invalid_argument);
  std::string wrong_version = text;
  const std::size_t at = wrong_version.find("\"version\": 1");
  ASSERT_NE(at, std::string::npos);
  wrong_version.replace(at, 12, "\"version\": 9");
  try {
    parse_shard_artifact(wrong_version, "vers");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("unsupported version"),
              std::string::npos);
  }
}

// Artifacts from older binaries carry disk_hits/disk_misses/disk_writes in
// their `cache` object. They must still parse and merge, so `merge` over
// old files and dispatch to an older worker keep working.
TEST(ShardedSweep, ParsesAndMergesArtifactsWithDiskCounters) {
  const SweepSpec spec = sharded_sweep(1);
  const std::string whole_csv =
      aggregate_csv(spec, SweepDriver().run(spec));
  std::vector<ShardArtifact> artifacts;
  for (std::size_t s = 0; s < 2; ++s) {
    const SweepPlan plan =
        build_sweep_plan(spec, PolicyRegistry::global(), {s, 2});
    ThreadPoolExecutor executor;
    const SweepResult result = executor.execute(plan);
    std::ostringstream artifact;
    write_shard_artifact(artifact, plan, result);
    std::string text = artifact.str();
    const std::string peak =
        "\"peak_bytes\": " + std::to_string(result.cache.peak_bytes) + "}";
    const std::size_t at = text.find(peak);
    ASSERT_NE(at, std::string::npos);
    text.insert(at + peak.size() - 1,
                ", \"disk_hits\": 3, \"disk_misses\": 4, "
                "\"disk_writes\": 5");
    const ShardArtifact parsed =
        parse_shard_artifact(text, "parent-" + std::to_string(s));
    EXPECT_EQ(parsed.result.cache.hits, result.cache.hits);
    EXPECT_EQ(parsed.result.cache.misses, result.cache.misses);
    EXPECT_EQ(parsed.result.cache.peak_bytes, result.cache.peak_bytes);
    artifacts.push_back(parsed);
  }
  const MergedSweep merged = merge_shard_artifacts(std::move(artifacts));
  EXPECT_EQ(aggregate_csv(merged.spec, merged.result), whole_csv);
}

// --- Strategy sweeps through the whole engine -------------------------------

// A compact strategy sweep through the real scenario factory: 2 policies,
// a deviator-org axis and a pruned deviation grid on the contended LPC
// window.
SweepSpec strategy_sweep(std::size_t threads) {
  ScenarioOptions options;
  options.smoke = true;
  options.duration = 400;
  options.instances = 2;
  options.deviations = "split:2,merge:2,delay:5,misreport:50";
  options.deviator_orgs = "0,1";
  SweepSpec spec = make_strategy_sweep(options);
  spec.policies = {"fcfs", "fairshare"};
  spec.threads = threads;
  spec.seed = 19;
  return spec;
}

std::string strategy_report(const SweepSpec& spec,
                            const SweepResult& result) {
  std::ostringstream out;
  strategy::print_strategy_report(spec, result, out);
  return out.str();
}

TEST(StrategySweep, SpecCarriesTheDeviationGridAsAnAxis) {
  const SweepSpec spec = strategy_sweep(1);
  ASSERT_TRUE(spec.is_strategy());
  // Honest is always entry 0 — the gain reference every report needs.
  ASSERT_EQ(spec.deviations.size(), 5u);
  EXPECT_EQ(spec.deviations[0].kind,
            strategy::DeviationSpec::Kind::kHonest);
  ASSERT_EQ(spec.axes.size(), 2u);
  EXPECT_EQ(spec.axes[0].name, "strategy");
  EXPECT_EQ(spec.axes[0].bind, SweepAxis::Bind::kStrategy);
  EXPECT_EQ(spec.axes[0].scope, SweepAxis::Scope::kStrategy);
  ASSERT_EQ(spec.axes[0].value_labels.size(), 5u);
  EXPECT_EQ(spec.axes[0].value_labels[0], "honest");
  EXPECT_EQ(spec.axes[0].value_labels[1], "split2");
  EXPECT_EQ(spec.axes[1].name, "deviator-org");
  EXPECT_EQ(spec.axes[1].values, (std::vector<double>{0, 1}));
}

TEST(StrategySweep, OutputsBitIdenticalAcrossThreadsAndCache) {
  const auto [one, records_one] = run_collecting(strategy_sweep(1));
  const auto [many, records_many] = run_collecting(strategy_sweep(8));
  ASSERT_EQ(records_one.size(), records_many.size());
  bool any_strategy_signal = false;
  for (std::size_t i = 0; i < records_one.size(); ++i) {
    EXPECT_EQ(records_one[i].deviator_utility,
              records_many[i].deviator_utility);
    EXPECT_EQ(records_one[i].deviator_flow, records_many[i].deviator_flow);
    EXPECT_EQ(records_one[i].honest_utility,
              records_many[i].honest_utility);
    any_strategy_signal |= records_one[i].deviator_utility != 0.0;
  }
  EXPECT_TRUE(any_strategy_signal);
  EXPECT_EQ(aggregate_csv(strategy_sweep(1), one),
            aggregate_csv(strategy_sweep(8), many));
  EXPECT_EQ(strategy_report(strategy_sweep(1), one),
            strategy_report(strategy_sweep(8), many));

  SweepSpec uncached = strategy_sweep(4);
  uncached.cache_bytes = 0;
  EXPECT_EQ(aggregate_csv(uncached, SweepDriver().run(uncached)),
            aggregate_csv(strategy_sweep(1), one));
  // Every deviation of a (workload, instance, deviator) cell shares one
  // honest prefix: the generated window and its REF baseline are computed
  // once, not once per deviation.
  EXPECT_EQ(one.prefix_groups, 1u);
}

TEST(StrategySweep, AggregateCsvCarriesStrategyColumnsOnlyForStrategy) {
  const SweepSpec spec = strategy_sweep(2);
  const std::string csv = aggregate_csv(spec, SweepDriver().run(spec));
  EXPECT_NE(csv.find("deviator_utility_mean"), std::string::npos);
  EXPECT_NE(csv.find("deviator_flow_mean"), std::string::npos);
  EXPECT_NE(csv.find("honest_utility_mean"), std::string::npos);
  const SweepSpec plain = small_sweep(2);
  const std::string plain_csv =
      aggregate_csv(plain, SweepDriver().run(plain));
  EXPECT_EQ(plain_csv.find("deviator_utility_mean"), std::string::npos);
}

TEST(StrategySweep, MergedShardsReproduceReportAndCheckBitForBit) {
  const SweepSpec spec = strategy_sweep(2);
  const SweepResult whole = SweepDriver().run(spec);
  const std::string whole_csv = aggregate_csv(spec, whole);
  const std::string whole_report = strategy_report(spec, whole);
  std::ostringstream whole_check_out;
  const std::size_t whole_check =
      strategy::check_theorem41(spec, whole, 2.0, whole_check_out);

  std::vector<ShardArtifact> artifacts;
  for (std::size_t s = 0; s < 3; ++s) {
    SweepSpec shard_spec = spec;
    shard_spec.threads = 1 + s;
    artifacts.push_back(run_shard(shard_spec, s, 3));
  }
  const MergedSweep merged = merge_shard_artifacts(std::move(artifacts));
  // The deviation grid survives the artifact summary round-trip: the
  // merged spec can drive the same report without the original argv.
  EXPECT_EQ(merged.spec.deviations, spec.deviations);
  ASSERT_EQ(merged.spec.axes.size(), spec.axes.size());
  EXPECT_EQ(merged.spec.axes[0].value_labels,
            spec.axes[0].value_labels);
  EXPECT_EQ(aggregate_csv(merged.spec, merged.result), whole_csv);
  EXPECT_EQ(strategy_report(merged.spec, merged.result), whole_report);
  std::ostringstream merged_check_out;
  EXPECT_EQ(strategy::check_theorem41(merged.spec, merged.result, 2.0,
                                      merged_check_out),
            whole_check);
  EXPECT_EQ(merged_check_out.str(), whole_check_out.str());
}

TEST(StrategySweep, ArtifactRoundTripCarriesStrategyAccumulators) {
  const SweepSpec spec = strategy_sweep(1);
  const SweepPlan plan =
      build_sweep_plan(spec, PolicyRegistry::global(), {0, 1});
  ThreadPoolExecutor executor;
  const SweepResult result = executor.execute(plan);
  std::ostringstream artifact;
  write_shard_artifact(artifact, plan, result);
  const ShardArtifact parsed =
      parse_shard_artifact(artifact.str(), "strategy-shard");
  ASSERT_EQ(parsed.result.cells.size(), result.cells.size());
  for (std::size_t c = 0; c < result.cells.size(); ++c) {
    EXPECT_EQ(parsed.result.cells[c].deviator_utility.mean(),
              result.cells[c].deviator_utility.mean());
    EXPECT_EQ(parsed.result.cells[c].deviator_flow.mean(),
              result.cells[c].deviator_flow.mean());
    EXPECT_EQ(parsed.result.cells[c].honest_utility.mean(),
              result.cells[c].honest_utility.mean());
  }
}

TEST(StrategySweep, ValidationCatchesBadStrategySpecs) {
  // A deviator-org beyond the consortium is a spec error, not a crash.
  SweepSpec bad = strategy_sweep(1);
  bad.axes[1].values = {0, 99};
  EXPECT_THROW(SweepDriver().run(bad), std::invalid_argument);
  // A strategy axis needs a deviation grid behind it.
  bad = strategy_sweep(1);
  bad.deviations.clear();
  EXPECT_THROW(SweepDriver().run(bad), std::invalid_argument);
  // Strategy axis values must index the grid.
  bad = strategy_sweep(1);
  bad.axes[0].values = {0, 7};
  EXPECT_THROW(SweepDriver().run(bad), std::invalid_argument);
}

// --- Reporters --------------------------------------------------------------

// Re-joins quoted newlines, then splits reporter output into CSV lines.
std::vector<std::string> csv_lines(const std::string& text) {
  std::vector<std::string> lines;
  std::string current;
  for (char c : text) {
    if (c == '\n') {
      // Inside an open quote the newline belongs to the cell.
      std::size_t quotes = 0;
      for (char q : current) quotes += q == '"';
      if (quotes % 2 == 1) {
        current += '\n';
        continue;
      }
      lines.push_back(current);
      current.clear();
    } else {
      current += c;
    }
  }
  return lines;
}

TEST(Reporter, CsvRoundTripsThroughUtilCsv) {
  // A workload name with CSV metacharacters must survive escape + parse.
  SweepSpec spec = small_sweep(2);
  spec.name = "round,trip \"sweep\"";
  spec.workloads[0].name = "unit, \"jobs\"\nline2";
  const auto [result, records] = run_collecting(spec);

  std::ostringstream out;
  CsvReporter(out).report(spec, result);
  const std::vector<std::string> lines = csv_lines(out.str());
  ASSERT_FALSE(lines.empty());

  const std::vector<std::string> header = parse_csv_line(lines[0]);
  ASSERT_EQ(header.size(), 11u);
  EXPECT_EQ(header[0], "sweep");
  EXPECT_EQ(header[4], "unfairness_mean");

  // Aggregate rows: one per (workload, policy), values match the cells.
  ASSERT_EQ(lines.size(), 1 + spec.policies.size());
  for (std::size_t p = 0; p < spec.policies.size(); ++p) {
    const std::vector<std::string> row = parse_csv_line(lines[1 + p]);
    ASSERT_EQ(row.size(), 11u);
    EXPECT_EQ(row[0], spec.name);
    EXPECT_EQ(row[1], spec.workloads[0].name);
    EXPECT_EQ(row[2], spec.policies[p]);
    EXPECT_EQ(row[3], std::to_string(spec.instances));
    EXPECT_EQ(row[4],
              CsvReporter::format(result.cell(spec, 0, 0, p)
                                      .unfairness.mean()));
    EXPECT_EQ(row[9],
              CsvReporter::format(result.cell(spec, 0, 0, p)
                                      .utilization.mean()));
  }
}

TEST(Reporter, StreamingSinkCsvRoundTrip) {
  SweepSpec spec = small_sweep(2);
  spec.axes.push_back(make_axis("orgs", {2, 3}));
  std::ostringstream out;
  CsvRecordSink sink(out, spec);
  std::vector<RunRecord> records;
  const SweepResult result =
      SweepDriver().run(spec, nullptr, [&](const RunRecord& record) {
        sink.write(record);
        records.push_back(record);
      });

  const std::vector<std::string> lines = csv_lines(out.str());
  ASSERT_EQ(lines.size(), 1 + records.size());
  const std::vector<std::string> header = parse_csv_line(lines[0]);
  // sweep + 1 axis column + workload, policy, instance, seed, unfairness,
  // rel_distance, utilization, work_done.
  ASSERT_EQ(header.size(), 10u);
  EXPECT_EQ(header[0], "sweep");
  EXPECT_EQ(header[1], "orgs");
  EXPECT_EQ(header[2], "workload");
  for (std::size_t r = 0; r < records.size(); ++r) {
    const std::vector<std::string> row = parse_csv_line(lines[1 + r]);
    ASSERT_EQ(row.size(), 10u);
    EXPECT_EQ(row[0], spec.name);
    EXPECT_EQ(row[1],
              axis_value_label(spec.axes[0],
                               axis_point_values(spec,
                                                 records[r].axis_point)[0]));
    EXPECT_EQ(row[2], spec.workloads[records[r].workload].name);
    EXPECT_EQ(row[3], spec.policies[records[r].policy]);
    EXPECT_EQ(row[4], std::to_string(records[r].instance));
    EXPECT_EQ(row[5], std::to_string(records[r].seed));
    EXPECT_EQ(row[6], CsvReporter::format(records[r].unfairness));
    EXPECT_EQ(row[9], std::to_string(records[r].work_done));
  }
}

TEST(Reporter, CsvAggregateEmitsOneColumnPerAxis) {
  SweepSpec spec = small_sweep(1);
  spec.instances = 2;
  spec.baseline.clear();
  spec.axes.push_back(make_axis("orgs", {2, 3}));
  spec.axes.push_back(make_axis("jobs-per-org", {10, 20}));
  const SweepResult result = SweepDriver().run(spec);
  std::ostringstream out;
  CsvReporter(out).report(spec, result);
  const std::vector<std::string> lines = csv_lines(out.str());
  const std::vector<std::string> header = parse_csv_line(lines[0]);
  ASSERT_EQ(header.size(), 13u);  // 11 fixed + 2 axis columns
  EXPECT_EQ(header[1], "orgs");
  EXPECT_EQ(header[2], "jobs-per-org");
  ASSERT_EQ(lines.size(), 1 + 4 * spec.policies.size());
  const std::vector<std::string> first = parse_csv_line(lines[1]);
  EXPECT_EQ(first[1], "2");
  EXPECT_EQ(first[2], "10");
  const std::vector<std::string> last = parse_csv_line(lines.back());
  EXPECT_EQ(last[1], "3");
  EXPECT_EQ(last[2], "20");
}

TEST(Reporter, JsonBaselineContainsEveryCell) {
  const SweepSpec spec = small_sweep(2);
  const SweepResult result = SweepDriver().run(spec);
  std::ostringstream out;
  JsonReporter(out).report(spec, result);
  const std::string json = out.str();
  EXPECT_NE(json.find("\"sweep\": \"test\""), std::string::npos);
  EXPECT_NE(json.find("\"total_wall_ms\""), std::string::npos);
  EXPECT_NE(json.find("\"runs\": 24"), std::string::npos);
  for (const std::string& policy : spec.policies) {
    EXPECT_NE(json.find("\"policy\": \"" + policy + "\""), std::string::npos)
        << policy;
  }
}

TEST(Reporter, JsonEscapesStringMetacharacters) {
  SweepSpec spec = small_sweep(1);
  spec.name = "quote\" back\\slash";
  spec.workloads[0].name = "line\nbreak\ttab";
  const SweepResult result = SweepDriver().run(spec);
  std::ostringstream out;
  JsonReporter(out).report(spec, result);
  const std::string json = out.str();
  EXPECT_NE(json.find("\"sweep\": \"quote\\\" back\\\\slash\""),
            std::string::npos);
  EXPECT_NE(json.find("line\\nbreak\\ttab"), std::string::npos);
  // No raw control characters may survive inside the output.
  EXPECT_EQ(json.find("line\nbreak"), std::string::npos);
}

TEST(Reporter, TableLeadsWithAxisColumns) {
  SweepSpec spec = small_sweep(1);
  spec.instances = 2;
  spec.baseline.clear();
  spec.axes.push_back(make_axis("orgs", {2, 3}));
  const SweepResult result = SweepDriver().run(spec);
  std::ostringstream out;
  TableReporter(out).report(spec, result);
  const std::string table = out.str();
  EXPECT_NE(table.find("orgs"), std::string::npos);
  EXPECT_NE(table.find("Policy"), std::string::npos);
}

// --- Scenario configs -------------------------------------------------------

TEST(Scenarios, SmokeModeShrinksTheMatrix) {
  ScenarioOptions options;
  options.smoke = true;
  const SweepSpec smoke = make_table_sweep("table1", options);
  ScenarioOptions full;
  const SweepSpec big = make_table_sweep("table1", full);
  EXPECT_LT(smoke.instances, big.instances);
  EXPECT_LT(smoke.horizon, big.horizon);
  EXPECT_EQ(smoke.policies, big.policies);
  EXPECT_EQ(smoke.workloads.size(), big.workloads.size());
  EXPECT_EQ(smoke.workloads.size(), 4u);  // the four archive shapes
}

TEST(Scenarios, Table2IsTheLongHorizonVariant) {
  ScenarioOptions options;
  const SweepSpec t1 = make_table_sweep("table1", options);
  const SweepSpec t2 = make_table_sweep("table2", options);
  EXPECT_EQ(t2.horizon, 10 * t1.horizon);
  EXPECT_THROW(make_table_sweep("table3", options), std::invalid_argument);
}

TEST(Scenarios, CustomSweepResolvesPoliciesAndWorkloads) {
  ScenarioOptions options;
  options.policies = "fcfs,rand5";
  options.workload = "unit";
  const SweepSpec spec = make_custom_sweep(options);
  ASSERT_EQ(spec.policies.size(), 2u);
  EXPECT_EQ(spec.policies[1], "rand5");
  ASSERT_EQ(spec.workloads.size(), 1u);
  EXPECT_EQ(spec.workloads[0].kind, SweepWorkload::Kind::kUnitJobs);
  options.workload = "bogus";
  EXPECT_THROW(make_custom_sweep(options), std::invalid_argument);
}

TEST(Scenarios, Fig10IsADeclarativeOrgsAxis) {
  ScenarioOptions options;
  const SweepSpec spec = make_fig10_sweep(options);
  ASSERT_EQ(spec.axes.size(), 1u);
  EXPECT_EQ(spec.axes[0].name, "orgs");
  EXPECT_EQ(spec.axes[0].bind, SweepAxis::Bind::kOrgs);
  EXPECT_EQ(spec.axes[0].values, (std::vector<double>{2, 3, 4, 5, 6, 7}));
  ASSERT_EQ(spec.workloads.size(), 1u);
  // --min-orgs/--max-orgs reshape the axis; smoke shrinks it.
  ScenarioOptions bounded;
  bounded.min_orgs = 3;
  bounded.max_orgs = 5;
  EXPECT_EQ(make_fig10_sweep(bounded).axes[0].values,
            (std::vector<double>{3, 4, 5}));
  bounded.max_orgs = 2;
  EXPECT_THROW(make_fig10_sweep(bounded), std::invalid_argument);
  ScenarioOptions smoke;
  smoke.smoke = true;
  EXPECT_LT(make_fig10_sweep(smoke).axes[0].values.size(),
            spec.axes[0].values.size());
}

TEST(Scenarios, HorizonGrowthIsADeclarativeHorizonAxis) {
  ScenarioOptions options;
  const SweepSpec spec = make_horizon_growth_sweep(options);
  ASSERT_EQ(spec.axes.size(), 1u);
  EXPECT_EQ(spec.axes[0].name, "horizon");
  EXPECT_EQ(spec.axes[0].bind, SweepAxis::Bind::kHorizon);
  EXPECT_EQ(spec.axes[0].values.size(), 6u);
  // --duration would be silently shadowed by the horizon axis; it must be
  // rejected, not dropped.
  options.duration = 999;
  EXPECT_THROW(make_horizon_growth_sweep(options), std::invalid_argument);
  options.duration = 0;
  options.axes = "horizon=100,200";
  EXPECT_EQ(make_horizon_growth_sweep(options).axes[0].values,
            (std::vector<double>{100, 200}));
}

TEST(Scenarios, FairshareDecayIsADeclarativeHalfLifeAxis) {
  ScenarioOptions options;
  const SweepSpec spec = make_fairshare_decay_sweep(options);
  ASSERT_EQ(spec.axes.size(), 1u);
  EXPECT_EQ(spec.axes[0].name, "half-life");
  EXPECT_EQ(spec.axes[0].bind, SweepAxis::Bind::kPolicyParam);
  EXPECT_EQ(spec.axes[0].values, (std::vector<double>{500, 2500, 10000,
                                                      50000}));
  // decayfairshare is in the policy set for the axis to bind onto.
  bool has_decay = false;
  for (const std::string& policy : spec.policies) {
    if (policy == "decayfairshare") has_decay = true;
  }
  EXPECT_TRUE(has_decay);
}

TEST(Scenarios, SingleAxisPointScenariosRejectAxes) {
  // utilization and rand-convergence post-process per-run data assuming a
  // single axis point; --axes must fail loudly, not corrupt the analysis.
  ScenarioOptions options;
  options.axes = "orgs=2,6";
  EXPECT_THROW(make_utilization_sweep(options), std::invalid_argument);
  EXPECT_THROW(make_rand_convergence_sweep(options), std::invalid_argument);
  options.axes.clear();
  EXPECT_NO_THROW(make_utilization_sweep(options));
  EXPECT_NO_THROW(make_rand_convergence_sweep(options));
}

TEST(Scenarios, RandConvergenceWritesItsCsv) {
  // --csv is a flag of every sweep subcommand; rand-convergence used to
  // exit 0 without writing the file.
  const std::filesystem::path dir =
      std::filesystem::path(::testing::TempDir()) / "fairsched_rand_csv";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  ScenarioOptions options;
  options.smoke = true;
  options.csv_path = (dir / "cells.csv").string();
  options.json_path = (dir / "bench.json").string();
  ASSERT_EQ(run_rand_convergence_scenario(options), 0);
  std::ifstream in(options.csv_path);
  ASSERT_TRUE(in.good()) << options.csv_path;
  std::string header;
  std::getline(in, header);
  EXPECT_EQ(header.rfind("sweep,workload,policy,", 0), 0u) << header;
  std::size_t rows = 0;
  for (std::string line; std::getline(in, line);) {
    EXPECT_EQ(line.rfind("rand-convergence,", 0), 0u) << line;
    ++rows;
  }
  EXPECT_EQ(rows, make_rand_convergence_sweep(options).policies.size());
  std::filesystem::remove_all(dir);
}

TEST(Scenarios, UtilizationWritesItsCsv) {
  // utilization used to accept --csv and exit 0 without writing the file.
  const std::filesystem::path dir =
      std::filesystem::path(::testing::TempDir()) / "fairsched_util_csv";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  ScenarioOptions options;
  options.smoke = true;
  options.csv_path = (dir / "cells.csv").string();
  options.json_path = (dir / "bench.json").string();
  ASSERT_EQ(run_utilization_scenario(options), 0);
  std::ifstream in(options.csv_path);
  ASSERT_TRUE(in.good()) << options.csv_path;
  std::string header;
  std::getline(in, header);
  EXPECT_EQ(header.rfind("sweep,workload,policy,", 0), 0u) << header;
  std::size_t rows = 0;
  for (std::string line; std::getline(in, line);) {
    EXPECT_EQ(line.rfind("utilization,", 0), 0u) << line;
    ++rows;
  }
  EXPECT_EQ(rows, make_utilization_sweep(options).policies.size());
  std::filesystem::remove_all(dir);
}

TEST(Scenarios, StrategySweepPlaysTheDefaultGridOnAContendedPlatform) {
  ScenarioOptions options;
  const SweepSpec spec = make_strategy_sweep(options);
  ASSERT_TRUE(spec.is_strategy());
  // The default grid: honest first, then split/merge/delay/misreport at
  // two magnitudes each.
  EXPECT_EQ(spec.deviations, strategy::default_deviation_grid());
  ASSERT_EQ(spec.axes.size(), 1u);
  EXPECT_EQ(spec.axes[0].name, "strategy");
  EXPECT_EQ(spec.axes[0].values.size(), spec.deviations.size());
  // Both sides of the Thm 4.1 contrast are in the policy set.
  EXPECT_NE(std::find(spec.policies.begin(), spec.policies.end(), "fcfs"),
            spec.policies.end());
  EXPECT_NE(std::find(spec.policies.begin(), spec.policies.end(),
                      "fairshare"),
            spec.policies.end());
  // The platform is scaled down to stay contended: on an underloaded
  // consortium every deviation just soaks idle machines and the contrast
  // drowns.
  ScenarioOptions unscaled;
  unscaled.scale = 1.0;
  EXPECT_LT(spec.workloads[0].spec.total_machines,
            make_strategy_sweep(unscaled).workloads[0].spec.total_machines);

  // --deviations prunes and reorders the grid (honest stays first);
  // malformed entries are rejected.
  ScenarioOptions pruned;
  pruned.deviations = "delay:7,split:3";
  const SweepSpec small = make_strategy_sweep(pruned);
  ASSERT_EQ(small.deviations.size(), 3u);
  EXPECT_EQ(small.deviations[0].kind,
            strategy::DeviationSpec::Kind::kHonest);
  EXPECT_EQ(small.deviations[1].kind,
            strategy::DeviationSpec::Kind::kDelay);
  EXPECT_EQ(small.deviations[1].param, 7);
  pruned.deviations = "bogus";
  EXPECT_THROW(make_strategy_sweep(pruned), std::invalid_argument);
  pruned.deviations = "";
  pruned.deviator_orgs = "1,x";
  EXPECT_THROW(make_strategy_sweep(pruned), std::invalid_argument);
}

TEST(Scenarios, AxesFlagOverridesScenarioDefaults) {
  ScenarioOptions options;
  options.axes = "orgs=2,4;zipf-s=0.5,1.5";
  const SweepSpec spec = make_fig10_sweep(options);
  ASSERT_EQ(spec.axes.size(), 2u);
  EXPECT_EQ(spec.axes[0].name, "orgs");
  EXPECT_EQ(spec.axes[0].values, (std::vector<double>{2, 4}));
  EXPECT_EQ(spec.axes[1].name, "zipf-s");
}

}  // namespace
}  // namespace fairsched::exp
