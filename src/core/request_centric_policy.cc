#include "src/core/request_centric_policy.h"

#include <algorithm>
#include <numeric>
#include <span>

#include "src/common/mathutil.h"
#include "src/common/small_vector.h"

namespace pronghorn {

namespace {

// Inline capacity of the decision scratch: the paper's pool (C = 12) plus
// one in flight, as for StartDecision::CandidateList.
constexpr size_t kInlineScratch = 16;

}  // namespace

Result<RequestCentricPolicy> RequestCentricPolicy::Create(const PolicyConfig& config) {
  PRONGHORN_RETURN_IF_ERROR(config.Validate());
  return RequestCentricPolicy(config);
}

std::vector<double> RequestCentricPolicy::SnapshotWeights(const PolicyState& state) const {
  // GetSnapshotWeights (Algorithm 1, lines 11-18): w[i] is the average
  // inverse learned latency over the lifetime that would follow a restore
  // from snapshot i.
  std::vector<double> weights;
  weights.reserve(state.pool.size());
  for (const PoolEntry& entry : state.pool.entries()) {
    weights.push_back(state.theta.LifetimeWeight(entry.metadata.request_number,
                                                 config_.beta, config_.mu));
  }
  return weights;
}

std::optional<uint64_t> RequestCentricPolicy::DrawCheckpointRequest(
    const PolicyState& state, uint64_t start, Rng& rng) const {
  // OnContainerStart (Algorithm 1, lines 4-10). The paper draws from
  // [R, R+beta]; we draw from (R, min(R+beta, W)]: checkpointing at R itself
  // would duplicate the snapshot we just restored (no new JIT progress), and
  // W bounds the request numbers at which checkpointing is permitted
  // (Table 2).
  const uint64_t lo = start + 1;
  const uint64_t hi =
      std::min<uint64_t>(start + config_.beta, config_.max_checkpoint_request);
  if (lo > hi) {
    return std::nullopt;
  }
  const std::span<const double> weights =
      state.theta.InverseWeightsSpan(lo, hi, config_.mu);
  if (weights.empty()) {
    return std::nullopt;
  }
  const size_t index = rng.WeightedIndex(weights);
  return lo + index;
}

StartDecision RequestCentricPolicy::OnWorkerStart(const PolicyState& state,
                                                  Rng& rng) const {
  StartDecision decision;
  uint64_t start_request = 0;
  if (!state.pool.empty()) {
    // OnContainerInit (lines 19-23): softmax over snapshot weights, then a
    // weighted draw. Low-lifetime-latency snapshots dominate, but every
    // snapshot keeps nonzero probability. The single draw is the paper's
    // restore choice; the remaining entries are ranked by probability
    // (descending, ties by recency) to give the orchestrator a deterministic
    // fallback order when a restore attempt fails (missing or corrupt
    // image). Ranking consumes no randomness, so fault-free trajectories are
    // identical to a policy without fallback candidates.
    //
    // All scratch lives on the stack as parallel (SoA) arrays — weights,
    // probabilities, ids, sort order — so the scoring scans run over
    // contiguous doubles and a decision over a pool of up to kInlineScratch
    // entries is allocation-free. A larger pool spills to the heap for that
    // decision only; nothing outlives the call, so no thread keeps a scratch
    // block pinned in the heap between decisions.
    const auto entries = state.pool.entries();
    const size_t count = entries.size();
    SmallVector<double, kInlineScratch> weights;
    SmallVector<double, kInlineScratch> probabilities;
    SmallVector<uint64_t, kInlineScratch> ids;
    SmallVector<size_t, kInlineScratch> order;
    weights.resize(count);
    probabilities.resize(count);
    ids.resize(count);
    order.resize(count);
    for (size_t i = 0; i < count; ++i) {
      weights[i] = state.theta.LifetimeWeight(entries[i].metadata.request_number,
                                              config_.beta, config_.mu);
    }
    SoftmaxInto(weights, config_.softmax_temperature, probabilities);
    const size_t first_index = rng.WeightedIndex(probabilities);
    for (size_t i = 0; i < count; ++i) {
      ids[i] = entries[i].metadata.id.value;
    }
    std::iota(order.begin(), order.end(), size_t{0});
    // The drawn snapshot always ranks first; the rest sort by probability
    // (descending, ties by recency). Swapping it to the front and sorting
    // only the tail yields the same order as the old comparator that
    // special-cased first_index — (probability, id) is a strict total order
    // because pool ids are unique — without the per-element branch.
    std::swap(order[0], order[first_index]);
    std::sort(order.begin() + 1, order.end(), [&](size_t a, size_t b) {
      if (probabilities[a] != probabilities[b]) {
        return probabilities[a] > probabilities[b];
      }
      return ids[a] > ids[b];
    });
    decision.restore_candidates.reserve(count);
    for (const size_t index : order) {
      decision.restore_candidates.push_back(entries[index].metadata.id);
    }
    const PoolEntry& chosen = entries[first_index];
    decision.restore_from = chosen.metadata.id;
    start_request = chosen.metadata.request_number;
  }
  decision.checkpoint_at_request = DrawCheckpointRequest(state, start_request, rng);
  return decision;
}

void RequestCentricPolicy::OnRequestComplete(PolicyState& state, uint64_t request_number,
                                             Duration latency) const {
  // OnRequest (lines 24-30): first observation initializes, later ones blend
  // with proportion alpha (handled inside WeightVector::Update).
  state.theta.Update(request_number, latency.ToSeconds(), config_.alpha);
}

std::vector<PoolEntry> RequestCentricPolicy::OnSnapshotAdded(PolicyState& state,
                                                             Rng& rng) const {
  // OnCapacityReached (lines 31-36).
  if (state.pool.size() <= config_.pool_capacity) {
    return {};
  }
  const std::vector<double> weights = SnapshotWeights(state);
  return state.pool.Prune(weights, config_.retain_top_percent,
                          config_.retain_random_percent, rng);
}

}  // namespace pronghorn
