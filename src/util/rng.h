// Deterministic pseudo-random number generation for reproducible experiments.
//
// All randomized components of the library (DemCOM acceptance draws, RamCOM
// threshold choice, dataset synthesis, Monte-Carlo sampling) take an explicit
// Rng so that a fixed seed reproduces every experiment bit-for-bit.

#ifndef COMX_UTIL_RNG_H_
#define COMX_UTIL_RNG_H_

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <vector>

namespace comx {

/// xoshiro256** generator seeded via splitmix64.
///
/// Small, fast, and high quality; not cryptographically secure (which the
/// simulations do not require). Copyable: forked sub-streams are made with
/// Fork(), which derives an independent stream from the current state.
class Rng {
 public:
  /// Seeds the generator. Identical seeds produce identical streams.
  explicit Rng(uint64_t seed = 0x9e3779b97f4a7c15ull);

  /// Next raw 64-bit output. Inline: the pricing draw loops call it once
  /// per candidate.
  uint64_t NextUint64() {
    const uint64_t result = Rotl(s_[1] * 5, 7) * 9;
    const uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = Rotl(s_[3], 45);
    return result;
  }

  /// Uniform double in [0, 1).
  double NextDouble() {
    // 53 high bits -> double in [0, 1).
    return static_cast<double>(NextUint64() >> 11) * 0x1.0p-53;
  }

  /// Uniform double in [lo, hi). Requires lo <= hi.
  double Uniform(double lo, double hi);

  /// Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  int64_t UniformInt(int64_t lo, int64_t hi);

  /// Bernoulli draw: true with probability p (clamped to [0, 1]).
  bool Bernoulli(double p);

  /// Standard normal via Marsaglia polar method.
  double Normal(double mean = 0.0, double stddev = 1.0);

  /// Log-normal: exp(Normal(mu, sigma)).
  double LogNormal(double mu, double sigma);

  /// Exponential with the given rate (lambda > 0).
  double Exponential(double rate);

  /// Fisher-Yates shuffle.
  template <typename T>
  void Shuffle(std::vector<T>* v) {
    if (v->size() < 2) return;
    for (size_t i = v->size() - 1; i > 0; --i) {
      size_t j = static_cast<size_t>(UniformInt(0, static_cast<int64_t>(i)));
      std::swap((*v)[i], (*v)[j]);
    }
  }

  /// Uniformly picks an index into a container of the given size (> 0).
  size_t PickIndex(size_t size) {
    assert(size > 0);
    return static_cast<size_t>(UniformInt(0, static_cast<int64_t>(size) - 1));
  }

  /// Derives an independent generator from the current stream.
  Rng Fork();

  /// Raw serializable state: the xoshiro words plus the Marsaglia normal
  /// cache. Restoring it resumes the exact draw sequence — checkpoints
  /// (src/recovery/) depend on this to replay runs bit-exactly.
  struct State {
    uint64_t s[4];
    bool has_cached_normal;
    double cached_normal;
  };
  State SaveState() const;
  void RestoreState(const State& state);

 private:
  static uint64_t Rotl(uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  uint64_t s_[4];
  bool has_cached_normal_ = false;
  double cached_normal_ = 0.0;
};

}  // namespace comx

#endif  // COMX_UTIL_RNG_H_
