#include "src/core/weight_vector.h"

#include <algorithm>
#include <cassert>

#include "src/common/mathutil.h"

namespace pronghorn {

void WeightVector::Update(uint64_t request_number, double latency_seconds, double alpha) {
  if (request_number >= values_.size() || latency_seconds <= 0.0) {
    return;
  }
  double& entry = values_[request_number];
  if (entry == 0.0) {
    entry = latency_seconds;  // First observation initializes (line 26).
    // First observations are positive and EWMA blends of positives stay
    // positive, so "explored" is monotone: the count only ever grows.
    explored_count_ += 1;
  } else {
    entry = EwmaUpdate(entry, latency_seconds, alpha);  // Line 28.
  }
  if (inv_valid_) {
    inv_[request_number] = InverseWeight(entry, inv_mu_);
  }
  if (lw_valid_) {
    // Lifetime windows [start, start+beta] containing request_number are now
    // stale; everything else keeps its memoized fold.
    const uint64_t first =
        request_number > lw_beta_ ? request_number - lw_beta_ : 0;
    const uint64_t last = std::min<uint64_t>(request_number, lw_fresh_.size() - 1);
    for (uint64_t s = first; s <= last; ++s) {
      lw_fresh_[s] = 0;
    }
  }
}

double WeightVector::At(uint64_t request_number) const {
  if (request_number >= values_.size()) {
    return 0.0;
  }
  return values_[request_number];
}

uint32_t WeightVector::ScanExploredCount() const {
  uint32_t count = 0;
  for (double v : values_) {
    if (v > 0.0) {
      ++count;
    }
  }
  return count;
}

uint32_t WeightVector::ExploredCount() const {
  assert(explored_count_ == ScanExploredCount());
  return explored_count_;
}

void WeightVector::EnsureInverseCache(double mu) const {
  if (inv_valid_ && inv_mu_ == mu) {
    return;
  }
  inv_.resize(values_.size());
  // Bulk element-wise rebuild (SIMD where available; bit-identical to the
  // scalar InverseWeight loop — see mathutil.h).
  InverseWeightsInto(values_, mu, inv_);
  inv_mu_ = mu;
  inv_valid_ = true;
}

std::span<const double> WeightVector::InverseWeightsSpan(uint64_t lo, uint64_t hi,
                                                         double mu) const {
  if (lo > hi || values_.empty()) {
    return {};
  }
  const uint64_t clamped_hi = std::min<uint64_t>(hi, values_.size() - 1);
  if (lo > clamped_hi) {
    return {};
  }
  EnsureInverseCache(mu);
  return std::span<const double>(inv_.data() + lo, clamped_hi - lo + 1);
}

std::vector<double> WeightVector::InverseWeights(uint64_t lo, uint64_t hi,
                                                 double mu) const {
  const std::span<const double> view = InverseWeightsSpan(lo, hi, mu);
  return std::vector<double>(view.begin(), view.end());
}

double WeightVector::NaiveLifetimeWeight(uint64_t start, uint32_t beta,
                                         double mu) const {
  // Entries beyond the learned window contribute as unexplored (theta = 0),
  // keeping the exploration bonus for snapshots near the window's edge.
  //
  // The fold is restructured for the vector units without changing a bit:
  // the divisions 1/(theta[i]+mu) are independent element-wise operations
  // (computed in SIMD chunks through a stack buffer), while the additions
  // stay scalar in the original left-to-right order — so the result is
  // bit-for-bit the naive loop's (tests/vector_math_test.cc pins this).
  constexpr size_t kChunk = 128;
  double buffer[kChunk];
  const uint64_t end = start + beta;  // Inclusive.
  double sum = 0.0;
  uint64_t i = start;
  if (start < values_.size()) {
    const uint64_t in_range_hi = std::min<uint64_t>(end, values_.size() - 1);
    while (i <= in_range_hi) {
      const size_t n = static_cast<size_t>(
          std::min<uint64_t>(in_range_hi - i + 1, kChunk));
      InverseWeightsInto(std::span<const double>(values_.data() + i, n), mu,
                         std::span<double>(buffer, n));
      for (size_t j = 0; j < n; ++j) {
        sum += buffer[j];
      }
      i += n;
    }
  }
  const double unexplored = InverseWeight(0.0, mu);
  for (; i <= end; ++i) {
    sum += unexplored;
  }
  return sum / static_cast<double>(beta);
}

void WeightVector::EnsureLifetimeCache(uint32_t beta, double mu) const {
  if (lw_valid_ && lw_beta_ == beta && lw_mu_ == mu) {
    return;
  }
  lw_memo_.assign(values_.size(), 0.0);
  lw_fresh_.assign(values_.size(), 0);
  lw_beta_ = beta;
  lw_mu_ = mu;
  lw_valid_ = true;
}

double WeightVector::LifetimeWeight(uint64_t start, uint32_t beta, double mu) const {
  if (beta == 0 || start >= values_.size()) {
    // Degenerate or off-the-end windows are rare and constant-cost; keep
    // them out of the memo.
    return NaiveLifetimeWeight(start, beta, mu);
  }
  EnsureLifetimeCache(beta, mu);
  if (lw_fresh_[start] == 0) {
    lw_memo_[start] = NaiveLifetimeWeight(start, beta, mu);
    lw_fresh_[start] = 1;
  }
  return lw_memo_[start];
}

double WeightVector::LifetimeLatencySum(uint64_t start, uint32_t beta) const {
  double sum = 0.0;
  for (uint64_t i = start; i <= start + beta; ++i) {
    sum += At(i);
  }
  return sum;
}

void WeightVector::Serialize(ByteWriter& writer) const {
  writer.WriteVarint(values_.size());
  writer.WriteDoubles(values_);
}

size_t WeightVector::SerializedSize() const {
  return VarintSize(values_.size()) + values_.size() * sizeof(double);
}

Result<WeightVector> WeightVector::Deserialize(ByteReader& reader) {
  PRONGHORN_ASSIGN_OR_RETURN(uint64_t length, reader.ReadVarint());
  if (length == 0 || length > (1u << 24)) {
    return DataLossError("implausible weight vector length");
  }
  // Bound the allocation by the input before sizing the vector.
  if (reader.remaining() / sizeof(double) < length) {
    return OutOfRangeError("read past end of buffer");
  }
  WeightVector vector(static_cast<uint32_t>(length));
  PRONGHORN_RETURN_IF_ERROR(reader.ReadDoubles(vector.values_));
  for (const double v : vector.values_) {
    if (v < 0.0) {
      return DataLossError("negative latency in weight vector");
    }
  }
  vector.explored_count_ = vector.ScanExploredCount();
  return vector;
}

}  // namespace pronghorn
