// Deterministic pseudo-random number generation used across the library.
//
// All stochastic components (parameter init, dropout, synthetic data,
// Gaussian noise injection) draw from logcl::Rng so that every experiment is
// reproducible from a single seed.

#ifndef LOGCL_COMMON_RNG_H_
#define LOGCL_COMMON_RNG_H_

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace logcl {

/// SplitMix64-based PRNG. Small, fast, seedable, and with a Split() operation
/// that derives independent child streams (used to give each module its own
/// stream so adding randomness in one place never perturbs another).
///
/// SplitMix64 is counter-based: the k-th call to Next() (k = 1, 2, ...) on a
/// generator whose state is `s` returns Mix(s + k * kGamma). Reserve() hands
/// out the state before a block of draws, so a block can be computed in any
/// order (or in parallel shards) and still match the serial stream bit for
/// bit.
class Rng {
 public:
  /// Weyl-sequence increment added to the state before every draw.
  static constexpr uint64_t kGamma = 0x9E3779B97F4A7C15ULL;

  /// Multipliers of Mix (vectorised copies of Mix use them too).
  static constexpr uint64_t kMixMul1 = 0xBF58476D1CE4E5B9ULL;
  static constexpr uint64_t kMixMul2 = 0x94D049BB133111EBULL;

  /// SplitMix64 output finaliser: Next() returns Mix(state after increment).
  static constexpr uint64_t Mix(uint64_t z) {
    z = (z ^ (z >> 30)) * kMixMul1;
    z = (z ^ (z >> 27)) * kMixMul2;
    return z ^ (z >> 31);
  }

  explicit Rng(uint64_t seed = kGamma);

  /// Next raw 64-bit value.
  uint64_t Next();

  /// Reserves the next `n` draws and returns the state before them: draw k
  /// of the block (k = 1..n) is Mix(base + k * kGamma). Leaves the stream
  /// exactly where `n` calls to Next() would.
  uint64_t Reserve(uint64_t n);

  /// Uniform in [0, 1).
  double Uniform();

  /// Uniform in [lo, hi).
  double Uniform(double lo, double hi);

  /// Uniform integer in [0, n). Requires n > 0.
  uint64_t UniformInt(uint64_t n);

  /// Standard normal via Box-Muller.
  double Normal();

  /// Normal with the given mean and standard deviation.
  double Normal(double mean, double stddev);

  /// Bernoulli draw with probability p of returning true.
  bool Bernoulli(double p);

  /// Derives an independent child generator.
  Rng Split();

  /// Fisher-Yates shuffle of an index vector.
  template <typename T>
  void Shuffle(std::vector<T>* values) {
    if (values->empty()) return;
    for (size_t i = values->size() - 1; i > 0; --i) {
      size_t j = static_cast<size_t>(UniformInt(i + 1));
      std::swap((*values)[i], (*values)[j]);
    }
  }

 private:
  uint64_t state_;
  // Box-Muller produces pairs; cache the second value.
  bool has_cached_normal_ = false;
  double cached_normal_ = 0.0;
};

}  // namespace logcl

#endif  // LOGCL_COMMON_RNG_H_
