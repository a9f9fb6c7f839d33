// The learned per-request-number latency vector theta (Algorithm 1, line 2).

#ifndef PRONGHORN_SRC_CORE_WEIGHT_VECTOR_H_
#define PRONGHORN_SRC_CORE_WEIGHT_VECTOR_H_

#include <cstdint>
#include <span>
#include <vector>

#include "src/common/bytes.h"
#include "src/common/result.h"

namespace pronghorn {

// theta[i] is the EWMA of end-to-end latencies (in seconds) observed for the
// i-th request since cold start, across all worker lifetimes of a function.
// Zero means "never observed" — the policy's inverse weighting turns that
// into an enormous exploration bonus.
//
// Derived quantities (inverse weights, lifetime weights, explored count) are
// maintained incrementally behind mutable caches so per-decision cost is
// O(changed state) instead of O(W). Every cached value is produced by the
// exact same arithmetic as the naive recompute (same expressions, same
// summation order), so cached and uncached evaluation are bit-for-bit
// identical — the invariant tests/hot_path_equivalence_test.cc pins.
class WeightVector {
 public:
  explicit WeightVector(uint32_t length) : values_(length, 0.0) {}

  uint32_t length() const { return static_cast<uint32_t>(values_.size()); }

  // EWMA update (Algorithm 1, part 3): a first observation initializes the
  // entry; later observations blend with proportion alpha. Out-of-range
  // request numbers are ignored (observed beyond the learning window).
  // Refreshes the derived caches in O(beta) (point update of the inverse
  // weight, invalidation of the lifetime windows covering the entry).
  void Update(uint64_t request_number, double latency_seconds, double alpha);

  // Latency estimate for a request number; 0 when unexplored or out of range.
  double At(uint64_t request_number) const;

  bool IsExplored(uint64_t request_number) const { return At(request_number) > 0.0; }

  // Number of explored entries in [0, length). O(1): the count is maintained
  // by Update (an explored entry can never become unexplored again) and
  // cross-checked against the full scan in debug builds.
  uint32_t ExploredCount() const;

  // Inverse weights 1/(theta[i]+mu) for i in [lo, hi] inclusive, clamped to
  // the vector range (the probability map D of Algorithm 1, recomputed).
  std::vector<double> InverseWeights(uint64_t lo, uint64_t hi, double mu) const;

  // Allocation-free variant: a view into the maintained inverse-weight cache.
  // The span is invalidated by the next Update or by a call with a different
  // mu; callers must consume it before further mutation (the policy's draw
  // path does). Values are bitwise identical to InverseWeights().
  std::span<const double> InverseWeightsSpan(uint64_t lo, uint64_t hi, double mu) const;

  // Average inverse weight over a worker lifetime starting at request
  // `start`: (1/beta) * sum_{i=start}^{start+beta} 1/(theta[i]+mu)
  // (Algorithm 1, GetSnapshotWeights line 15). Memoized per start; a warm
  // entry is two array reads, a cold one is the naive O(beta) fold.
  double LifetimeWeight(uint64_t start, uint32_t beta, double mu) const;

  // Sum of learned latencies over a lifetime window, for reporting.
  double LifetimeLatencySum(uint64_t start, uint32_t beta) const;

  // A varint length and then every entry as an 8-byte little-endian double,
  // written and read in bulk.
  void Serialize(ByteWriter& writer) const;
  // Bytes Serialize appends.
  size_t SerializedSize() const;
  static Result<WeightVector> Deserialize(ByteReader& reader);

  // Identity is the learned values only; the derived caches are
  // recomputable and never serialized.
  bool operator==(const WeightVector& other) const {
    return values_ == other.values_;
  }

 private:
  // The naive folds the caches must reproduce bit-for-bit.
  double NaiveLifetimeWeight(uint64_t start, uint32_t beta, double mu) const;
  uint32_t ScanExploredCount() const;

  // (Re)builds inv_ for `mu` when absent or keyed to a different mu.
  void EnsureInverseCache(double mu) const;
  // Resets the lifetime memo when (beta, mu) differ from the cached key.
  void EnsureLifetimeCache(uint32_t beta, double mu) const;

  std::vector<double> values_;
  uint32_t explored_count_ = 0;

  // Inverse-weight cache: inv_[i] == InverseWeight(values_[i], inv_mu_).
  mutable bool inv_valid_ = false;
  mutable double inv_mu_ = 0.0;
  mutable std::vector<double> inv_;

  // Lifetime-weight memo keyed by (lw_beta_, lw_mu_): lw_memo_[start] holds
  // the naive fold's result when lw_fresh_[start] is set.
  mutable bool lw_valid_ = false;
  mutable uint32_t lw_beta_ = 0;
  mutable double lw_mu_ = 0.0;
  mutable std::vector<double> lw_memo_;
  mutable std::vector<uint8_t> lw_fresh_;
};

}  // namespace pronghorn

#endif  // PRONGHORN_SRC_CORE_WEIGHT_VECTOR_H_
