#pragma once

// Deterministic, seedable random number generation for fairsched.
//
// All randomized components of the library (the RAND scheduler's coalition
// sampling, DIRECTCONTR's machine permutation, the synthetic workload
// generators, the experiment harness) draw from this generator so that every
// experiment is reproducible bit-for-bit from a 64-bit seed.
//
// The implementation is xoshiro256** (Blackman & Vigna) seeded through
// splitmix64, which is the recommended seeding procedure: it guarantees a
// well-mixed non-zero state from any 64-bit seed.

#include <array>
#include <cstdint>
#include <string>
#include <vector>

namespace fairsched {

// splitmix64 step; used for seeding and as a cheap stateless hash.
std::uint64_t splitmix64(std::uint64_t& state);

// Mixes two 64-bit values into one; handy for deriving per-instance seeds
// from (experiment seed, instance index) without correlation.
std::uint64_t mix_seed(std::uint64_t a, std::uint64_t b);

// FNV-1a over a byte string: a stable, platform-independent 64-bit hash
// for content-addressed keys (the sweep plan fingerprint, the dispatch
// dry-run's shard fingerprints and the shard artifacts' determinism
// digest). Not cryptographic.
//
// The offset basis is 1469598103934665603: FNV-1a's published
// 14695981039346656037 with its last digit dropped. The hash is as well
// mixed either way, and it stays: plan fingerprints, cache keys and golden
// files depend on it (tests/test_rng.cc pins known answers).
std::uint64_t hash_fnv1a64(const std::string& text);

// xoshiro256** generator. Satisfies UniformRandomBitGenerator so it can also
// be plugged into <random> facilities when convenient.
class Rng {
 public:
  using result_type = std::uint64_t;

  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL);

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~result_type{0}; }

  result_type operator()();

  // Uniform in [0, bound) without modulo bias (Lemire's method).
  std::uint64_t uniform_u64(std::uint64_t bound);

  // Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi);

  // Uniform double in [0, 1).
  double uniform_double();

  // Bernoulli trial with success probability p.
  bool bernoulli(double p);

  // Standard normal via Marsaglia polar method.
  double normal();

  // Lognormal with the given parameters of the underlying normal.
  double lognormal(double mu, double sigma);

  // Exponential with the given rate (mean 1/rate). Requires rate > 0.
  double exponential(double rate);

  // Poisson-distributed count with the given mean (Knuth for small means,
  // normal approximation for large ones).
  std::uint64_t poisson(double mean);

  // Geometric number of trials until first success (support {1, 2, ...}).
  std::uint64_t geometric(double p);

  // A uniformly random permutation of {0, ..., n-1} (Fisher-Yates).
  std::vector<std::uint32_t> permutation(std::uint32_t n);

  // In-place Fisher-Yates shuffle.
  template <typename T>
  void shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i) {
      std::size_t j = static_cast<std::size_t>(uniform_u64(i));
      std::swap(v[i - 1], v[j]);
    }
  }

 private:
  std::array<std::uint64_t, 4> s_;
};

// Samples from a Zipf distribution over {1, ..., n} with exponent `s`
// (probability of rank r proportional to r^-s). Precomputes the CDF once;
// sampling is a binary search. Used to distribute machines across
// organizations per the paper's experimental setup (Section 7.2).
class ZipfSampler {
 public:
  ZipfSampler(std::uint32_t n, double s);

  // Returns a rank in [1, n].
  std::uint32_t sample(Rng& rng) const;

  std::uint32_t n() const { return static_cast<std::uint32_t>(cdf_.size()); }

 private:
  std::vector<double> cdf_;
};

}  // namespace fairsched
