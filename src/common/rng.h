// Deterministic pseudo-random number generation. Every stochastic component
// in the library takes an explicit seed so that experiments are reproducible
// bit-for-bit; nothing reads global entropy.
#ifndef FAIRWOS_COMMON_RNG_H_
#define FAIRWOS_COMMON_RNG_H_

#include <array>
#include <cstdint>
#include <vector>

#include "common/check.h"

namespace fairwos::common {

/// Complete serializable generator state: the four xoshiro256++ words plus
/// the Box-Muller cache. Restoring this into any Rng continues the exact
/// stream — including after an odd number of Normal() draws — which is what
/// makes crash-resumed training bit-identical (docs/resume.md).
struct RngState {
  std::array<uint64_t, 4> words{};
  bool has_cached_normal = false;
  double cached_normal = 0.0;

  bool operator==(const RngState& other) const = default;
};

/// xoshiro256++ generator: fast, high-quality, and fully deterministic from
/// its 64-bit seed. Satisfies the UniformRandomBitGenerator concept is not a
/// goal; the distribution helpers below are all we need and keep behaviour
/// identical across standard libraries.
class Rng {
 public:
  /// Seeds the state via SplitMix64 so that nearby seeds give unrelated
  /// streams.
  explicit Rng(uint64_t seed);

  /// Next raw 64 random bits.
  uint64_t NextU64();

  /// Uniform double in [0, 1).
  double Uniform();

  /// Uniform double in [lo, hi).
  double Uniform(double lo, double hi);

  /// Uniform integer in [0, n). Requires n > 0.
  int64_t UniformInt(int64_t n);

  /// Standard normal via Box-Muller (cached second variate).
  double Normal();

  /// Normal with the given mean and standard deviation.
  double Normal(double mean, double stddev);

  /// Bernoulli draw with success probability p.
  bool Bernoulli(double p);

  /// n Bernoulli(p) draws at once: out[i] = Bernoulli(p) ? hit : 0, with
  /// the same draws and the same final state as that per-element loop.
  void FillBernoulli(double p, float hit, float* out, int64_t n);

  /// Fisher-Yates shuffle.
  template <typename T>
  void Shuffle(std::vector<T>* v) {
    for (int64_t i = static_cast<int64_t>(v->size()) - 1; i > 0; --i) {
      int64_t j = UniformInt(i + 1);
      std::swap((*v)[i], (*v)[j]);
    }
  }

  /// Samples `k` distinct indices from [0, n) (k <= n), in random order.
  std::vector<int64_t> SampleWithoutReplacement(int64_t n, int64_t k);

  /// Derives an unrelated child generator; used to hand independent streams
  /// to sub-components (e.g. per-trial seeds from a base seed).
  Rng Fork();

  /// Captures the complete generator state for checkpointing.
  RngState SaveState() const;

  /// Overwrites this generator with `state`; the stream continues exactly
  /// where SaveState left off.
  void LoadState(const RngState& state);

 private:
  uint64_t state_[4];
  bool has_cached_normal_ = false;
  double cached_normal_ = 0.0;
};

}  // namespace fairwos::common

#endif  // FAIRWOS_COMMON_RNG_H_
