// Deterministic random-number utilities.
//
// Every stochastic stage of the ATLAS pipeline (design generation, rewrites,
// workload stimulus, masking, model init) takes an explicit seed so that the
// whole experiment flow is reproducible bit-for-bit.
#pragma once

#include <cstdint>
#include <limits>
#include <vector>

namespace atlas::util {

/// Small, fast, deterministic PRNG (xoshiro256** core seeded by splitmix64).
/// Not cryptographic; intended for reproducible simulation only.
class Rng {
 public:
  explicit Rng(std::uint64_t seed = 1);

  /// Uniform 64-bit value.
  std::uint64_t next_u64();

  /// Uniform integer in [0, bound). `bound` must be > 0.
  std::uint64_t next_below(std::uint64_t bound);

  /// Uniform double in [0, 1).
  double next_double();

  /// Uniform double in [lo, hi).
  double next_double(double lo, double hi);

  /// Bernoulli draw with probability `p` of true.
  bool next_bool(double p = 0.5);

  /// Standard normal via Box-Muller (cached pair).
  double next_gaussian();

  /// Index drawn from a discrete distribution given non-negative weights.
  /// Requires at least one strictly positive weight.
  std::size_t next_weighted(const std::vector<double>& weights);

  /// Fisher-Yates shuffle.
  template <typename T>
  void shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i) {
      const std::size_t j = static_cast<std::size_t>(next_below(i));
      using std::swap;
      swap(v[i - 1], v[j]);
    }
  }

 private:
  std::uint64_t state_[4];
  double cached_gaussian_ = 0.0;
  bool has_cached_gaussian_ = false;
};

}  // namespace atlas::util
