#include "common/rng.h"

#include <cmath>
#include <numbers>

namespace fairwos::common {
namespace {

uint64_t SplitMix64(uint64_t* x) {
  uint64_t z = (*x += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

// One xoshiro256++ step on `s`.
inline uint64_t Next(uint64_t* s) {
  const uint64_t result = Rotl(s[0] + s[3], 23) + s[0];
  const uint64_t t = s[1] << 17;
  s[2] ^= s[0];
  s[3] ^= s[1];
  s[1] ^= s[2];
  s[0] ^= s[3];
  s[2] ^= t;
  s[3] = Rotl(s[3], 45);
  return result;
}

// 53 high bits -> double in [0, 1).
inline double ToUnit(uint64_t bits) {
  return static_cast<double>(bits >> 11) * 0x1.0p-53;
}

}  // namespace

Rng::Rng(uint64_t seed) {
  uint64_t s = seed;
  for (auto& word : state_) word = SplitMix64(&s);
}

uint64_t Rng::NextU64() { return Next(state_); }

double Rng::Uniform() { return ToUnit(NextU64()); }

double Rng::Uniform(double lo, double hi) {
  FW_CHECK_LE(lo, hi);
  return lo + (hi - lo) * Uniform();
}

int64_t Rng::UniformInt(int64_t n) {
  FW_CHECK_GT(n, 0);
  // Rejection sampling to avoid modulo bias.
  const uint64_t un = static_cast<uint64_t>(n);
  const uint64_t limit = UINT64_MAX - UINT64_MAX % un;
  uint64_t r;
  do {
    r = NextU64();
  } while (r >= limit);
  return static_cast<int64_t>(r % un);
}

double Rng::Normal() {
  if (has_cached_normal_) {
    has_cached_normal_ = false;
    return cached_normal_;
  }
  double u1;
  do {
    u1 = Uniform();
  } while (u1 <= 1e-300);
  const double u2 = Uniform();
  const double mag = std::sqrt(-2.0 * std::log(u1));
  cached_normal_ = mag * std::sin(2.0 * std::numbers::pi * u2);
  has_cached_normal_ = true;
  return mag * std::cos(2.0 * std::numbers::pi * u2);
}

double Rng::Normal(double mean, double stddev) {
  FW_CHECK_GE(stddev, 0.0);
  return mean + stddev * Normal();
}

bool Rng::Bernoulli(double p) {
  FW_CHECK_GE(p, 0.0);
  FW_CHECK_LE(p, 1.0);
  return Uniform() < p;
}

void Rng::FillBernoulli(double p, float hit, float* out, int64_t n) {
  FW_CHECK_GE(p, 0.0);
  FW_CHECK_LE(p, 1.0);
  FW_CHECK_GE(n, 0);
  // The state lives in locals for the loop, so the draws stay in registers
  // instead of round-tripping through *this once per element.
  uint64_t s[4] = {state_[0], state_[1], state_[2], state_[3]};
  for (int64_t i = 0; i < n; ++i) out[i] = ToUnit(Next(s)) < p ? hit : 0.0f;
  for (int i = 0; i < 4; ++i) state_[i] = s[i];
}

std::vector<int64_t> Rng::SampleWithoutReplacement(int64_t n, int64_t k) {
  FW_CHECK_GE(n, k);
  FW_CHECK_GE(k, 0);
  std::vector<int64_t> all(n);
  for (int64_t i = 0; i < n; ++i) all[i] = i;
  // Partial Fisher-Yates: the first k entries become the sample.
  for (int64_t i = 0; i < k; ++i) {
    int64_t j = i + UniformInt(n - i);
    std::swap(all[i], all[j]);
  }
  all.resize(k);
  return all;
}

Rng Rng::Fork() { return Rng(NextU64()); }

RngState Rng::SaveState() const {
  RngState state;
  for (size_t i = 0; i < state.words.size(); ++i) state.words[i] = state_[i];
  state.has_cached_normal = has_cached_normal_;
  state.cached_normal = cached_normal_;
  return state;
}

void Rng::LoadState(const RngState& state) {
  for (size_t i = 0; i < state.words.size(); ++i) state_[i] = state.words[i];
  has_cached_normal_ = state.has_cached_normal;
  cached_normal_ = state.cached_normal;
}

}  // namespace fairwos::common
