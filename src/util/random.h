#ifndef EPFIS_UTIL_RANDOM_H_
#define EPFIS_UTIL_RANDOM_H_

#include <cstdint>

namespace epfis {

/// Deterministic, seedable pseudo-random number generator
/// (xoshiro256** by Blackman & Vigna). All workload generation in this
/// library goes through Rng so experiments are reproducible from a seed.
class Rng {
 public:
  /// Seeds the generator; the seed is expanded with splitmix64 so that
  /// nearby seeds yield uncorrelated streams.
  explicit Rng(uint64_t seed = 0x9e3779b97f4a7c15ULL);

  /// Uniform 64-bit value.
  uint64_t NextUint64();

  /// Uniform integer in [0, bound) using unbiased rejection sampling.
  /// Precondition: bound > 0.
  uint64_t NextBounded(uint64_t bound);

  /// Uniform double in [0, 1).
  double NextDouble();

  /// Bernoulli trial with success probability p (clamped to [0,1]).
  bool NextBernoulli(double p);

 private:
  uint64_t state_[4];
};

}  // namespace epfis

#endif  // EPFIS_UTIL_RANDOM_H_
