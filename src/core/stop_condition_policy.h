// Provider stop-condition wrapper (paper §5.1 "Stopping condition" and §5.3
// "Bounding system costs").
//
// "The cloud provider can always choose to stop checkpointing and use the
// best snapshot available in the pool thereafter" — empirically safe after
// W + 100 requests, at which point all further checkpoint/network overhead
// ceases while the performance benefit persists indefinitely.

#ifndef PRONGHORN_SRC_CORE_STOP_CONDITION_POLICY_H_
#define PRONGHORN_SRC_CORE_STOP_CONDITION_POLICY_H_

#include <atomic>
#include <cstdint>

#include "src/core/policy.h"

namespace pronghorn {

// Wraps any inner policy. Until `explore_requests` total requests have been
// observed, all decisions delegate to the inner policy. Afterwards the
// wrapper freezes: new workers restore from the snapshot with the best
// learned lifetime latency (deterministically — no more exploration) and no
// further checkpoints are planned.
class StopConditionPolicy : public OrchestrationPolicy {
 public:
  // `inner` is borrowed and must outlive this policy. `explore_requests` of
  // 0 freezes immediately (pure exploit of whatever the pool holds).
  StopConditionPolicy(const OrchestrationPolicy& inner, uint64_t explore_requests)
      : inner_(inner), explore_requests_(explore_requests) {}

  std::string_view name() const override { return "stop-condition"; }
  const PolicyConfig& config() const override { return inner_.config(); }

  StartDecision OnWorkerStart(const PolicyState& state, Rng& rng) const override;
  void OnRequestComplete(PolicyState& state, uint64_t request_number,
                         Duration latency) const override;
  std::vector<PoolEntry> OnSnapshotAdded(PolicyState& state, Rng& rng) const override;

  const OrchestrationPolicy& inner() const { return inner_; }
  uint64_t explore_requests() const { return explore_requests_; }

  // True once the exploration budget has been spent.
  bool frozen() const { return requests_seen_.load(std::memory_order_relaxed) >=
                               explore_requests_; }
  uint64_t requests_seen() const {
    return requests_seen_.load(std::memory_order_relaxed);
  }

 private:
  const OrchestrationPolicy& inner_;
  uint64_t explore_requests_;
  // Counts observed requests. Mutable because the policy interface is
  // logically stateless per call; this is bookkeeping, not decision state.
  mutable std::atomic<uint64_t> requests_seen_{0};
};

}  // namespace pronghorn

#endif  // PRONGHORN_SRC_CORE_STOP_CONDITION_POLICY_H_
