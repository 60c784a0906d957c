// Tests for the deterministic RNG and its distributions.

#include "util/rng.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <vector>

namespace fairsched {
namespace {

TEST(Rng, DeterministicGivenSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a() == b()) ++equal;
  }
  EXPECT_LT(equal, 5);
}

TEST(Rng, MixSeedSpreadsInstanceSeeds) {
  std::set<std::uint64_t> seen;
  for (std::uint64_t i = 0; i < 1000; ++i) {
    seen.insert(mix_seed(7, i));
  }
  EXPECT_EQ(seen.size(), 1000u);
}

TEST(Rng, UniformU64InRange) {
  Rng rng(3);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.uniform_u64(17), 17u);
  }
}

TEST(Rng, UniformU64CoversAllValues) {
  Rng rng(5);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 2000; ++i) seen.insert(rng.uniform_u64(7));
  EXPECT_EQ(seen.size(), 7u);
}

TEST(Rng, UniformIntInclusiveBounds) {
  Rng rng(11);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 5000; ++i) {
    const std::int64_t v = rng.uniform_int(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    saw_lo |= v == -3;
    saw_hi |= v == 3;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, UniformDoubleInUnitInterval) {
  Rng rng(13);
  double sum = 0;
  for (int i = 0; i < 20000; ++i) {
    const double u = rng.uniform_double();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 20000.0, 0.5, 0.02);
}

TEST(Rng, NormalMoments) {
  Rng rng(17);
  double sum = 0, sq = 0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.normal();
    sum += x;
    sq += x * x;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.03);
  EXPECT_NEAR(sq / n, 1.0, 0.05);
}

TEST(Rng, ExponentialMean) {
  Rng rng(19);
  double sum = 0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) sum += rng.exponential(0.25);
  EXPECT_NEAR(sum / n, 4.0, 0.15);
}

TEST(Rng, PoissonSmallMean) {
  Rng rng(23);
  double sum = 0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) sum += static_cast<double>(rng.poisson(3.5));
  EXPECT_NEAR(sum / n, 3.5, 0.1);
}

TEST(Rng, PoissonLargeMeanUsesApproximation) {
  Rng rng(29);
  double sum = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += static_cast<double>(rng.poisson(200.0));
  EXPECT_NEAR(sum / n, 200.0, 2.0);
}

TEST(Rng, GeometricMeanMatches) {
  Rng rng(31);
  double sum = 0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) sum += static_cast<double>(rng.geometric(0.2));
  EXPECT_NEAR(sum / n, 5.0, 0.2);
}

TEST(Rng, GeometricWithCertainSuccess) {
  Rng rng(37);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(rng.geometric(1.0), 1u);
}

TEST(Rng, PermutationIsPermutation) {
  Rng rng(41);
  const auto p = rng.permutation(50);
  std::set<std::uint32_t> seen(p.begin(), p.end());
  EXPECT_EQ(seen.size(), 50u);
  EXPECT_EQ(*seen.begin(), 0u);
  EXPECT_EQ(*seen.rbegin(), 49u);
}

TEST(Rng, LognormalMedian) {
  Rng rng(43);
  std::vector<double> xs;
  for (int i = 0; i < 20001; ++i) xs.push_back(rng.lognormal(2.0, 0.5));
  std::nth_element(xs.begin(), xs.begin() + 10000, xs.end());
  EXPECT_NEAR(xs[10000], std::exp(2.0), 0.15 * std::exp(2.0));
}

TEST(HashFnv1a64, KnownAnswersUseTheProjectOffsetBasis) {
  // The empty string hashes to the offset basis itself: 1469598103934665603,
  // not FNV-1a's published 14695981039346656037 (0xcbf29ce484222325).
  // Plan fingerprints, cache keys and golden files depend on this basis.
  EXPECT_EQ(hash_fnv1a64(""), 1469598103934665603ULL);
  EXPECT_EQ(hash_fnv1a64(""), 0x14650fb0739d0383ULL);
  EXPECT_EQ(hash_fnv1a64("a"), 0x44bd8ad473cd9906ULL);
  EXPECT_EQ(hash_fnv1a64("foobar"), 0x88fad7c0a8ff07f2ULL);
  // The published basis would give the standard test vectors instead.
  EXPECT_NE(hash_fnv1a64("a"), 0xaf63dc4c8601ec8cULL);
  EXPECT_NE(hash_fnv1a64("foobar"), 0x85944171f73967e8ULL);
}

TEST(Zipf, RanksInRange) {
  ZipfSampler zipf(10, 1.0);
  Rng rng(47);
  for (int i = 0; i < 1000; ++i) {
    const auto r = zipf.sample(rng);
    EXPECT_GE(r, 1u);
    EXPECT_LE(r, 10u);
  }
}

TEST(Zipf, Rank1MostFrequent) {
  ZipfSampler zipf(5, 1.2);
  Rng rng(53);
  std::vector<int> counts(6, 0);
  for (int i = 0; i < 20000; ++i) counts[zipf.sample(rng)]++;
  EXPECT_GT(counts[1], counts[2]);
  EXPECT_GT(counts[2], counts[3]);
  EXPECT_GT(counts[3], counts[5]);
}

}  // namespace
}  // namespace fairsched
