// Deterministic pseudo-random number generation.
//
// Every stochastic component in the simulator draws from an explicitly seeded
// Rng so that experiments are reproducible bit-for-bit across runs and
// platforms. We implement xoshiro256** (public-domain, Blackman & Vigna)
// seeded via SplitMix64 rather than relying on std::mt19937, whose
// distribution implementations are not portable across standard libraries.

#ifndef PRONGHORN_SRC_COMMON_RNG_H_
#define PRONGHORN_SRC_COMMON_RNG_H_

#include <array>
#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

namespace pronghorn {

// SplitMix64 step: used for seeding and for cheap stateless hashing.
uint64_t SplitMix64(uint64_t& state);

// Mixes two 64-bit values into one; handy for deriving substream seeds.
uint64_t HashCombine(uint64_t a, uint64_t b);

// FNV-1a: a stable string hash for names that key RNG substreams, shard
// routing and fingerprints (std::hash is not portable across standard
// libraries, which would break cross-platform reproducibility).
uint64_t StableNameHash(std::string_view name);

// xoshiro256** generator with portable distribution helpers.
class Rng {
 public:
  explicit Rng(uint64_t seed);

  // Constructs an Rng for a named substream, so components can derive
  // independent deterministic streams from one experiment seed.
  Rng Fork(uint64_t stream_id) const;

  // Uniform on the full uint64 range.
  uint64_t NextUint64();

  // Uniform in [0, bound). bound must be > 0. Uses rejection sampling to
  // avoid modulo bias.
  uint64_t UniformUint64(uint64_t bound);

  // Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  int64_t UniformInt(int64_t lo, int64_t hi);

  // Uniform double in [0, 1).
  double UniformDouble();

  // Uniform double in [lo, hi).
  double UniformDouble(double lo, double hi);

  // Standard normal via Box-Muller (deterministic, no cached spare).
  double Gaussian();

  // Normal with the given mean and standard deviation.
  double Gaussian(double mean, double stddev);

  // Log-normal: exp(Gaussian(mu, sigma)).
  double LogNormal(double mu, double sigma);

  // Exponential with the given rate (mean 1/rate). rate must be > 0.
  double Exponential(double rate);

  // True with probability p (clamped to [0, 1]).
  bool Bernoulli(double p);

  // Draws an index in [0, weights.size()) with probability proportional to
  // weights[i]. Non-positive weights are treated as zero. If all weights are
  // zero, draws uniformly. weights must be non-empty.
  size_t WeightedIndex(std::span<const double> weights);

  // Fisher-Yates shuffle.
  template <typename T>
  void Shuffle(std::vector<T>& values) {
    for (size_t i = values.size(); i > 1; --i) {
      size_t j = static_cast<size_t>(UniformUint64(i));
      using std::swap;
      swap(values[i - 1], values[j]);
    }
  }

  // Serializable generator state (for checkpointable components).
  std::array<uint64_t, 4> state() const { return state_; }
  void set_state(const std::array<uint64_t, 4>& state) { state_ = state; }

 private:
  std::array<uint64_t, 4> state_{};
};

}  // namespace pronghorn

#endif  // PRONGHORN_SRC_COMMON_RNG_H_
