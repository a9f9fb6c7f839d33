#include "src/common/rng.h"

#include <cmath>
#include <numbers>

namespace pronghorn {

uint64_t SplitMix64(uint64_t& state) {
  state += 0x9e3779b97f4a7c15ULL;
  uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

uint64_t HashCombine(uint64_t a, uint64_t b) {
  uint64_t state = a ^ (b + 0x9e3779b97f4a7c15ULL + (a << 6) + (a >> 2));
  return SplitMix64(state);
}

uint64_t StableNameHash(std::string_view name) {
  uint64_t hash = 0xcbf29ce484222325ULL;
  for (const char c : name) {
    hash ^= static_cast<uint8_t>(c);
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

namespace {

uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

}  // namespace

Rng::Rng(uint64_t seed) {
  uint64_t sm = seed;
  for (auto& word : state_) {
    word = SplitMix64(sm);
  }
}

Rng Rng::Fork(uint64_t stream_id) const {
  // Derive a child seed from the current state and the stream id. Does not
  // perturb this generator.
  uint64_t mixed = HashCombine(state_[0] ^ state_[2], stream_id);
  return Rng(HashCombine(mixed, state_[1] ^ state_[3]));
}

uint64_t Rng::NextUint64() {
  const uint64_t result = Rotl(state_[1] * 5, 7) * 9;
  const uint64_t t = state_[1] << 17;
  state_[2] ^= state_[0];
  state_[3] ^= state_[1];
  state_[1] ^= state_[2];
  state_[0] ^= state_[3];
  state_[2] ^= t;
  state_[3] = Rotl(state_[3], 45);
  return result;
}

uint64_t Rng::UniformUint64(uint64_t bound) {
  if (bound == 0) {
    return 0;
  }
  // Rejection sampling over the largest multiple of `bound` below 2^64.
  const uint64_t threshold = (0 - bound) % bound;
  while (true) {
    const uint64_t value = NextUint64();
    if (value >= threshold) {
      return value % bound;
    }
  }
}

int64_t Rng::UniformInt(int64_t lo, int64_t hi) {
  const uint64_t span =
      static_cast<uint64_t>(hi) - static_cast<uint64_t>(lo) + 1;
  return static_cast<int64_t>(static_cast<uint64_t>(lo) + UniformUint64(span));
}

double Rng::UniformDouble() {
  // 53 high-quality bits -> double in [0, 1).
  return static_cast<double>(NextUint64() >> 11) * 0x1.0p-53;
}

double Rng::UniformDouble(double lo, double hi) {
  return lo + (hi - lo) * UniformDouble();
}

double Rng::Gaussian() {
  // Box-Muller; draws two uniforms per normal and discards the spare so the
  // stream position is a pure function of the number of calls.
  double u1 = UniformDouble();
  while (u1 <= 0.0) {
    u1 = UniformDouble();
  }
  const double u2 = UniformDouble();
  return std::sqrt(-2.0 * std::log(u1)) * std::cos(2.0 * std::numbers::pi * u2);
}

double Rng::Gaussian(double mean, double stddev) {
  return mean + stddev * Gaussian();
}

double Rng::LogNormal(double mu, double sigma) {
  return std::exp(Gaussian(mu, sigma));
}

double Rng::Exponential(double rate) {
  double u = UniformDouble();
  while (u <= 0.0) {
    u = UniformDouble();
  }
  return -std::log(u) / rate;
}

bool Rng::Bernoulli(double p) {
  if (p <= 0.0) {
    return false;
  }
  if (p >= 1.0) {
    return true;
  }
  return UniformDouble() < p;
}

size_t Rng::WeightedIndex(std::span<const double> weights) {
  double total = 0.0;
  for (double w : weights) {
    if (w > 0.0) {
      total += w;
    }
  }
  if (total <= 0.0) {
    return static_cast<size_t>(UniformUint64(weights.size()));
  }
  double target = UniformDouble() * total;
  for (size_t i = 0; i < weights.size(); ++i) {
    const double w = weights[i] > 0.0 ? weights[i] : 0.0;
    if (target < w) {
      return i;
    }
    target -= w;
  }
  // Floating-point slack: fall back to the last positive-weight element.
  for (size_t i = weights.size(); i > 0; --i) {
    if (weights[i - 1] > 0.0) {
      return i - 1;
    }
  }
  return weights.size() - 1;
}

}  // namespace pronghorn
