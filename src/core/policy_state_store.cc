#include "src/core/policy_state_store.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "src/common/bytes.h"
#include "src/common/logging.h"
#include "src/common/mathutil.h"

namespace pronghorn {

namespace {

// Version 2 appended the restore-failure ledger to the v1 theta+pool layout;
// version 3 appends the per-slot commit high-water marks that make journaled
// group commits exactly-once across service crashes.
constexpr uint32_t kStateFormatVersion = 3;

// FNV-1a over the function name: a stable seed for the per-store jitter
// stream (std::hash is not portable across standard libraries).
uint64_t StableNameHash(std::string_view name) {
  uint64_t hash = 0xcbf29ce484222325ULL;
  for (const char c : name) {
    hash ^= static_cast<uint8_t>(c);
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

}  // namespace

namespace {

// Bytes EncodePolicyState writes (builds the pool memo when stale).
size_t EncodedPolicyStateSize(const PolicyState& state) {
  size_t size = 4 + state.theta.SerializedSize() + state.pool.SerializedSize() +
                VarintSize(state.restore_failures.size()) +
                VarintSize(state.commit_marks.size());
  for (const auto& [id, count] : state.restore_failures) {
    size += VarintSize(id) + VarintSize(count);
  }
  for (const auto& [scope, mark] : state.commit_marks) {
    size += VarintSize(scope) + VarintSize(mark);
  }
  return size;
}

}  // namespace

std::vector<uint8_t> EncodePolicyState(const PolicyState& state) {
  // Exact-size reservation: the one allocation is the returned buffer.
  ByteWriter writer;
  writer.Reserve(EncodedPolicyStateSize(state));
  writer.WriteUint32(kStateFormatVersion);
  state.theta.Serialize(writer);
  state.pool.Serialize(writer);
  writer.WriteVarint(state.restore_failures.size());
  for (const auto& [id, count] : state.restore_failures) {
    writer.WriteVarint(id);
    writer.WriteVarint(count);
  }
  writer.WriteVarint(state.commit_marks.size());
  for (const auto& [scope, mark] : state.commit_marks) {
    writer.WriteVarint(scope);
    writer.WriteVarint(mark);
  }
  return writer.TakeData();
}

Result<PolicyState> DecodePolicyState(std::span<const uint8_t> bytes) {
  ByteReader reader(bytes);
  PRONGHORN_ASSIGN_OR_RETURN(uint32_t version, reader.ReadUint32());
  if (version != kStateFormatVersion) {
    return DataLossError("unsupported policy state version " + std::to_string(version));
  }
  PRONGHORN_ASSIGN_OR_RETURN(WeightVector theta, WeightVector::Deserialize(reader));
  PRONGHORN_ASSIGN_OR_RETURN(SnapshotPool pool, SnapshotPool::Deserialize(reader));
  PolicyState state(std::move(theta), std::move(pool));
  PRONGHORN_ASSIGN_OR_RETURN(uint64_t failures, reader.ReadVarint());
  for (uint64_t i = 0; i < failures; ++i) {
    PRONGHORN_ASSIGN_OR_RETURN(uint64_t id, reader.ReadVarint());
    PRONGHORN_ASSIGN_OR_RETURN(uint64_t count, reader.ReadVarint());
    state.restore_failures[id] = static_cast<uint32_t>(count);
  }
  PRONGHORN_ASSIGN_OR_RETURN(uint64_t marks, reader.ReadVarint());
  for (uint64_t i = 0; i < marks; ++i) {
    PRONGHORN_ASSIGN_OR_RETURN(uint64_t scope, reader.ReadVarint());
    PRONGHORN_ASSIGN_OR_RETURN(uint64_t mark, reader.ReadVarint());
    state.commit_marks[static_cast<uint32_t>(scope)] = mark;
  }
  if (!reader.AtEnd()) {
    return DataLossError("trailing bytes after policy state");
  }
  return state;
}

PolicyStateStore::PolicyStateStore(KvDatabase& db, std::string function,
                                   const PolicyConfig& config, SimClock* clock,
                                   StateStoreRetryPolicy retry, bool enable_cache)
    : db_(db),
      function_(std::move(function)),
      state_key_("policy/" + function_ + "/state"),
      sequence_key_("policy/" + function_ + "/next-snapshot-id"),
      config_(config),
      clock_(clock),
      retry_(retry),
      cache_enabled_(enable_cache),
      jitter_rng_(HashCombine(0xbac0ffULL, StableNameHash(function_))) {}

void PolicyStateStore::InvalidateCache() const {
  if (cached_state_ != nullptr) {
    cache_stats_.invalidations += 1;
    cached_state_.reset();
  }
}

Result<VersionedValue> PolicyStateStore::ReadState() const {
  if (cached_state_ != nullptr) {
    // Only the version matters when it matches the cached state's: skip
    // copying the blob.
    return db_.GetVersionedIfChanged(StateKey(), cached_version_);
  }
  return db_.GetVersioned(StateKey());
}

void PolicyStateStore::Backoff(int retry_index) const {
  Duration delay = CappedExponentialBackoff(retry_.backoff_base,
                                            retry_.backoff_multiplier,
                                            retry_index, retry_.backoff_cap);
  // Deterministic jitter in [50%, 100%] de-synchronizes contending workers
  // without sacrificing reproducibility.
  delay = delay * (0.5 + 0.5 * jitter_rng_.UniformDouble());
  stats_.total_backoff += delay;
  if (clock_ != nullptr) {
    clock_->Advance(delay);
  }
}

Result<std::shared_ptr<const PolicyState>> PolicyStateStore::Load() const {
  // A versioned read instead of Get so the blob's version can key the
  // decoded cache; every read path shares one fault draw and one accounting
  // bump, so this is trajectory-neutral.
  stats_.loads += 1;
  for (int attempt = 0;; ++attempt) {
    auto versioned = ReadState();
    if (versioned.ok()) {
      if (cached_state_ != nullptr && cached_version_ == versioned->version) {
        cache_stats_.hits += 1;
        return std::shared_ptr<const PolicyState>(cached_state_);
      }
      auto decoded = DecodePolicyState(versioned->value);
      if (!decoded.ok()) {
        InvalidateCache();
        return decoded.status();
      }
      auto state = std::make_shared<PolicyState>(*std::move(decoded));
      if (cache_enabled_) {
        cache_stats_.misses += 1;
        cached_state_ = state;
        cached_version_ = versioned->version;
      }
      return std::shared_ptr<const PolicyState>(std::move(state));
    }
    if (versioned.status().code() == StatusCode::kNotFound) {
      // A fresh function has no blob; a (hypothetical) deleted-and-recreated
      // key would restart its version sequence, so drop any stale cache.
      InvalidateCache();
      return std::shared_ptr<const PolicyState>(std::make_shared<PolicyState>(config_));
    }
    if (versioned.status().code() != StatusCode::kUnavailable ||
        attempt >= retry_.max_transient_retries) {
      return versioned.status();
    }
    stats_.transient_retries += 1;
    InvalidateCache();  // Injected fault: distrust everything held locally.
    Backoff(attempt);
    PRONGHORN_LOG_DEBUG("transient load failure for '%s' (attempt %d): %s",
                        function_.c_str(), attempt + 1,
                        versioned.status().ToString().c_str());
  }
}

Status PolicyStateStore::Update(FunctionRef<void(PolicyState&)> mutate) {
  stats_.updates += 1;
  int transient_failures = 0;
  int conflicts = 0;
  for (int attempt = 0; attempt < retry_.max_cas_attempts; ++attempt) {
    uint64_t version = 0;
    std::shared_ptr<PolicyState> state;
    auto versioned = ReadState();
    if (versioned.ok()) {
      version = versioned->version;
      if (cached_state_ != nullptr && cached_version_ == version) {
        // Cache hit: the blob at this version is the one we decoded (or
        // wrote) last time, so skip DecodePolicyState. Take the state out —
        // the CAS below either re-installs the mutated successor or
        // invalidates, so the pristine state is never needed again. It is
        // mutated in place unless a Load snapshot still holds it; then the
        // snapshot keeps the pristine state and this update works on a copy.
        cache_stats_.hits += 1;
        state = std::exchange(cached_state_, nullptr);
        if (state.use_count() > 1) {
          state = std::make_shared<PolicyState>(std::as_const(*state));
        }
      } else {
        auto decoded = DecodePolicyState(versioned->value);
        if (!decoded.ok()) {
          InvalidateCache();
          return decoded.status();
        }
        if (cache_enabled_) {
          cache_stats_.misses += 1;
        }
        state = std::make_shared<PolicyState>(*std::move(decoded));
      }
    } else if (versioned.status().code() == StatusCode::kUnavailable) {
      if (++transient_failures > retry_.max_transient_retries) {
        return versioned.status();
      }
      stats_.transient_retries += 1;
      InvalidateCache();
      Backoff(transient_failures - 1);
      continue;
    } else if (versioned.status().code() != StatusCode::kNotFound) {
      return versioned.status();
    } else {
      InvalidateCache();  // Fresh key: any cached version tag is meaningless.
      state = std::make_shared<PolicyState>(config_);
    }

    mutate(*state);

    stats_.cas_attempts += 1;
    Status cas = db_.CompareAndSwap(StateKey(), version, EncodePolicyState(*state));
    if (cas.ok()) {
      if (cache_enabled_) {
        // A successful CAS at `version` installs the blob at version + 1;
        // the mutated state is exactly what that blob decodes to.
        cached_state_ = std::move(state);
        cached_version_ = version + 1;
      }
      return OkStatus();
    }
    InvalidateCache();
    if (cas.code() == StatusCode::kUnavailable) {
      if (++transient_failures > retry_.max_transient_retries) {
        return cas;
      }
      stats_.transient_retries += 1;
      Backoff(transient_failures - 1);
      continue;
    }
    if (cas.code() != StatusCode::kAborted) {
      return cas;
    }
    stats_.cas_conflicts += 1;
    Backoff(conflicts++);
    PRONGHORN_LOG_DEBUG("CAS conflict updating state for '%s' (attempt %d)",
                        function_.c_str(), attempt + 1);
  }
  return InternalError("policy state CAS loop exceeded " +
                       std::to_string(retry_.max_cas_attempts) + " attempts for " +
                       function_);
}

Result<SnapshotId> PolicyStateStore::AllocateSnapshotId() {
  for (int attempt = 0;; ++attempt) {
    auto next = db_.Increment(SequenceKey());
    if (next.ok()) {
      return SnapshotId{static_cast<uint64_t>(*next)};
    }
    if (next.status().code() != StatusCode::kUnavailable ||
        attempt >= retry_.max_transient_retries) {
      return next.status();
    }
    stats_.transient_retries += 1;
    Backoff(attempt);
  }
}

}  // namespace pronghorn
