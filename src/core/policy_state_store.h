// Database-backed persistence of the per-function PolicyState.
//
// Workflow steps 3, 4, and 8 of §3.2: after every request the orchestrator
// writes latency knowledge to the Database; before decisions it refreshes its
// view (other workers may have updated it concurrently); after a checkpoint
// it records the snapshot's location and metadata. Concurrent updates are
// serialized with versioned compare-and-swap over the state blob.
//
// Retry discipline: CAS conflicts and transient (kUnavailable) failures are
// retried with capped exponential backoff plus deterministic jitter, paid in
// *simulated* time when the store holds a clock. The jitter stream is seeded
// from the function name, so retry schedules are bit-reproducible and
// independent of thread scheduling.

#ifndef PRONGHORN_SRC_CORE_POLICY_STATE_STORE_H_
#define PRONGHORN_SRC_CORE_POLICY_STATE_STORE_H_

#include <memory>
#include <string>

#include "src/common/clock.h"
#include "src/common/function_ref.h"
#include "src/common/rng.h"
#include "src/core/policy.h"
#include "src/store/kv_database.h"

namespace pronghorn {

// Serializes a PolicyState to the Database blob format (versioned, CRC-free:
// the Database is trusted storage, unlike snapshot images in flight). The
// result is allocated once, at its exact size. Cost is O(changed bytes): theta
// is one bulk copy and an unchanged pool splices its memoized section.
std::vector<uint8_t> EncodePolicyState(const PolicyState& state);
Result<PolicyState> DecodePolicyState(std::span<const uint8_t> bytes);

// Bounds and shape of the store's retry loops.
struct StateStoreRetryPolicy {
  // A CAS loop this long under backoff indicates a livelock bug, not
  // contention.
  int max_cas_attempts = 64;
  // Transient (kUnavailable) failures retried per operation before
  // surfacing.
  int max_transient_retries = 8;
  // Exponential backoff: base * multiplier^n, capped, jittered to
  // [50%, 100%] of the nominal delay.
  Duration backoff_base = Duration::Millis(2);
  double backoff_multiplier = 2.0;
  Duration backoff_cap = Duration::Millis(250);
};

// Cumulative operation accounting (attempt/conflict/retry counts surface in
// the platform's fault-recovery reports).
struct StateStoreStats {
  uint64_t loads = 0;
  uint64_t updates = 0;
  uint64_t cas_attempts = 0;
  uint64_t cas_conflicts = 0;
  uint64_t transient_retries = 0;
  Duration total_backoff;
};

// Decoded-state cache accounting. Kept separate from StateStoreStats on
// purpose: those counters fold into digest-covered fault reports, and cache
// effectiveness must never influence a digest (the cache is a pure
// optimization — trajectories are identical with it on or off).
struct StateCacheStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t invalidations = 0;
};

class PolicyStateStore {
 public:
  // `function` scopes all keys; `config` sizes fresh weight vectors. `clock`
  // (borrowed, may be null) receives backoff delays in simulated time.
  // `enable_cache` keeps the last decoded state plus its DB version so the
  // common CAS-success path skips DecodePolicyState; disabling it is
  // digest-neutral (the knob exists for the equivalence tests and the
  // --no-state-cache flag).
  PolicyStateStore(KvDatabase& db, std::string function, const PolicyConfig& config,
                   SimClock* clock = nullptr,
                   StateStoreRetryPolicy retry = StateStoreRetryPolicy{},
                   bool enable_cache = true);

  // Loads the current state; a function never seen before gets a fresh
  // zero-initialized state. The result is an immutable snapshot: on a cache
  // hit it shares the cached state (no copy), and a later Update never
  // changes it — Update copies the state first while a snapshot is held.
  Result<std::shared_ptr<const PolicyState>> Load() const;

  // Applies `mutate` atomically via a CAS retry loop. The mutator may be
  // invoked multiple times (on conflict it re-runs against the fresh state),
  // so it must be idempotent with respect to external effects. `mutate` is
  // borrowed for the call only; passing a lambda allocates nothing.
  Status Update(FunctionRef<void(PolicyState&)> mutate);

  // Allocates a globally unique snapshot id from the Database sequence.
  Result<SnapshotId> AllocateSnapshotId();

  const std::string& function() const { return function_; }
  const StateStoreStats& stats() const { return stats_; }
  const StateCacheStats& cache_stats() const { return cache_stats_; }
  bool cache_enabled() const { return cache_enabled_; }

 private:
  // Both keys are fixed at construction; materializing them once keeps the
  // per-request Get/CAS pair free of string concatenation.
  const std::string& StateKey() const { return state_key_; }
  const std::string& SequenceKey() const { return sequence_key_; }

  // Sleeps the simulated clock for the nth backoff of one operation and
  // accounts it. Safe without a clock (still counts, no time passes).
  void Backoff(int retry_index) const;

  // Drops the cached state (CAS failure, injected fault, decode error). A
  // no-op with the cache disabled.
  void InvalidateCache() const;

  // Reads the state blob. With a cached state this is the copy-free probe:
  // on a version match the value comes back empty.
  Result<VersionedValue> ReadState() const;

  KvDatabase& db_;
  std::string function_;
  std::string state_key_;
  std::string sequence_key_;
  PolicyConfig config_;
  SimClock* clock_;
  StateStoreRetryPolicy retry_;
  bool cache_enabled_;
  mutable Rng jitter_rng_;
  mutable StateStoreStats stats_;

  // Last decoded state and the DB version it decodes from. Decode(Encode(s))
  // reproduces s exactly (doubles travel as bit patterns), so serving the
  // cached state is indistinguishable from re-decoding the stored blob.
  // Shared with the snapshots Load hands out; Update mutates it in place only
  // while no snapshot holds it (copy-on-write).
  mutable std::shared_ptr<PolicyState> cached_state_;
  mutable uint64_t cached_version_ = 0;
  mutable StateCacheStats cache_stats_;
};

}  // namespace pronghorn

#endif  // PRONGHORN_SRC_CORE_POLICY_STATE_STORE_H_
