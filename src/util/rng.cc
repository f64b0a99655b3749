#include "util/rng.h"

#include <cmath>

namespace comx {
namespace {

uint64_t SplitMix64(uint64_t* state) {
  uint64_t z = (*state += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

}  // namespace

Rng::Rng(uint64_t seed) {
  uint64_t sm = seed;
  for (auto& s : s_) s = SplitMix64(&sm);
  // xoshiro must not start from the all-zero state.
  if ((s_[0] | s_[1] | s_[2] | s_[3]) == 0) s_[0] = 1;
}

double Rng::Uniform(double lo, double hi) {
  assert(lo <= hi);
  return lo + (hi - lo) * NextDouble();
}

int64_t Rng::UniformInt(int64_t lo, int64_t hi) {
  assert(lo <= hi);
  const uint64_t range = static_cast<uint64_t>(hi - lo) + 1;
  if (range == 0) return static_cast<int64_t>(NextUint64());  // full range
  // Rejection sampling to avoid modulo bias.
  const uint64_t limit = UINT64_MAX - UINT64_MAX % range;
  uint64_t x;
  do {
    x = NextUint64();
  } while (x >= limit);
  return lo + static_cast<int64_t>(x % range);
}

bool Rng::Bernoulli(double p) {
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  return NextDouble() < p;
}

double Rng::Normal(double mean, double stddev) {
  if (has_cached_normal_) {
    has_cached_normal_ = false;
    return mean + stddev * cached_normal_;
  }
  double u, v, s;
  do {
    u = Uniform(-1.0, 1.0);
    v = Uniform(-1.0, 1.0);
    s = u * u + v * v;
  } while (s >= 1.0 || s == 0.0);
  const double factor = std::sqrt(-2.0 * std::log(s) / s);
  cached_normal_ = v * factor;
  has_cached_normal_ = true;
  return mean + stddev * (u * factor);
}

double Rng::LogNormal(double mu, double sigma) {
  return std::exp(Normal(mu, sigma));
}

double Rng::Exponential(double rate) {
  assert(rate > 0.0);
  double u;
  do {
    u = NextDouble();
  } while (u == 0.0);
  return -std::log(u) / rate;
}

Rng Rng::Fork() { return Rng(NextUint64() ^ 0xa0761d6478bd642full); }

Rng::State Rng::SaveState() const {
  State state;
  for (int i = 0; i < 4; ++i) state.s[i] = s_[i];
  state.has_cached_normal = has_cached_normal_;
  state.cached_normal = cached_normal_;
  return state;
}

void Rng::RestoreState(const State& state) {
  for (int i = 0; i < 4; ++i) s_[i] = state.s[i];
  has_cached_normal_ = state.has_cached_normal;
  cached_normal_ = state.cached_normal;
}

}  // namespace comx
