#include "src/core/orchestrator.h"

#include <algorithm>
#include <cmath>
#include <string>
#include <utility>
#include <vector>

#include "src/common/logging.h"
#include "src/common/mathutil.h"

namespace pronghorn {

Orchestrator::Orchestrator(const WorkloadProfile& profile,
                           const WorkloadRegistry& registry,
                           const OrchestrationPolicy& policy, CheckpointEngine& engine,
                           SnapshotStore& snapshot_store, PolicyStateStore& state_store,
                           SimClock& clock, uint64_t seed, OrchestratorCostModel costs,
                           RecoveryOptions recovery)
    : profile_(profile),
      registry_(registry),
      policy_(policy),
      engine_(engine),
      snapshot_store_(snapshot_store),
      state_store_(state_store),
      clock_(clock),
      rng_(HashCombine(seed, 0x0c4e57ULL)),
      costs_(costs),
      recovery_options_(recovery) {}

Duration Orchestrator::TransferTime(uint64_t logical_bytes) const {
  const double mb = static_cast<double>(logical_bytes) / (1024.0 * 1024.0);
  return Duration::Seconds(mb / costs_.object_store_mb_per_sec);
}

void Orchestrator::Backoff(int retry_index) {
  Duration delay = CappedExponentialBackoff(
      recovery_options_.backoff_base, recovery_options_.backoff_multiplier,
      retry_index, recovery_options_.backoff_cap);
  // Deterministic jitter in [50%, 100%]. The draw only happens on a fault, so
  // fault-free trajectories consume exactly the same RNG stream as before.
  delay = delay * (0.5 + 0.5 * rng_.UniformDouble());
  recovery_.total_retry_backoff += delay;
  if (obs_ != nullptr) {
    obs_->Counter("recovery.backoffs", 1);
    obs_->Observe("recovery.backoff_us", delay);
    obs_->Instant(obs_track_, "backoff", "recovery", clock_.now());
  }
  clock_.Advance(delay);
}

Result<ObjectBlob> Orchestrator::FetchWithRetry(const std::string& key) {
  for (int attempt = 0;; ++attempt) {
    auto reader = snapshot_store_.OpenSnapshot(key);
    if (reader.ok()) {
      // Materialize through the (possibly lazy) reader. Any error here is a
      // hard integrity failure, never transient, so it is not retried.
      return (*reader)->ReadAll();
    }
    if (reader.status().code() != StatusCode::kUnavailable ||
        attempt >= recovery_options_.max_transient_retries) {
      return reader.status();
    }
    recovery_.restore_transient_retries += 1;
    if (obs_ != nullptr) {
      obs_->Counter("recovery.transient_retries", 1);
      obs_->Instant(obs_track_, "retry", "recovery", clock_.now());
    }
    Backoff(attempt);
  }
}

Status Orchestrator::PutWithRetry(const std::string& key, ObjectBlob blob) {
  for (int attempt = 0;; ++attempt) {
    // Put consumes its argument; keeping one for retries is cheap now that
    // the payload is a shared immutable buffer (refcount bump, no deep copy).
    ObjectBlob copy = blob;
    const auto put = snapshot_store_.PutSnapshot(key, std::move(copy));
    const Status status = put.ok() ? OkStatus() : put.status();
    if (status.ok() || status.code() != StatusCode::kUnavailable ||
        attempt >= recovery_options_.max_transient_retries) {
      return status;
    }
    recovery_.restore_transient_retries += 1;
    if (obs_ != nullptr) {
      obs_->Counter("recovery.transient_retries", 1);
      obs_->Instant(obs_track_, "retry", "recovery", clock_.now());
    }
    Backoff(attempt);
  }
}

void Orchestrator::RecordRestoreFailure(SnapshotId id, const std::string& object_key) {
  // Best effort: if the Database is unreachable the ledger write is simply
  // lost — the snapshot gets another chance next lifetime.
  bool quarantined = false;
  const Status status = state_store_.Update([&](PolicyState& state) {
    quarantined = false;  // Mutator may re-run on CAS conflict.
    const uint32_t count = ++state.restore_failures[id.value];
    if (count >= recovery_options_.quarantine_threshold) {
      state.pool.Remove(id);
      state.restore_failures.erase(id.value);
      quarantined = true;
    }
  });
  if (!status.ok()) {
    PRONGHORN_LOG_DEBUG("restore-failure ledger write lost for snapshot %llu: %s",
                        static_cast<unsigned long long>(id.value),
                        status.ToString().c_str());
    return;
  }
  if (quarantined) {
    recovery_.snapshots_quarantined += 1;
    if (obs_ != nullptr) {
      obs_->Counter("recovery.quarantines", 1);
      obs_->Instant(obs_track_, "quarantine", "recovery", clock_.now());
    }
    PRONGHORN_LOG_WARNING("snapshot %llu quarantined after repeated restore failures",
                          static_cast<unsigned long long>(id.value));
    const Status deleted = snapshot_store_.DeleteSnapshot(object_key);
    if (!deleted.ok() && deleted.code() != StatusCode::kNotFound) {
      recovery_.eviction_deletes_deferred += 1;
    }
  }
}

void Orchestrator::PruneStaleEntry(SnapshotId id) {
  const Status status = state_store_.Update([&](PolicyState& state) {
    state.pool.Remove(id);
    state.restore_failures.erase(id.value);
  });
  if (status.ok()) {
    recovery_.stale_entries_pruned += 1;
  }
}

Result<WorkerSession> Orchestrator::StartWorker() {
  // Workflow step: the Orchestrator queries the Database for the freshest
  // view of snapshots and their performance before deciding.
  auto loaded = state_store_.Load();
  if (!loaded.ok()) {
    if (loaded.status().code() == StatusCode::kUnavailable) {
      // Database outage at launch: the worker must still come up, so degrade
      // to a local cold start with no checkpoint plan. Latency observations
      // are buffered and replayed once the Database recovers.
      WorkerSession session(RuntimeProcess::ColdStart(profile_, rng_.NextUint64()),
                            next_worker_id_++);
      session.degraded = true;
      session.startup_latency = profile_.cold_init;
      session.startup_overhead = costs_.db_read_latency;
      recovery_.degraded_starts += 1;
      overheads_.worker_starts += 1;
      overheads_.total_startup_overhead += session.startup_overhead;
      if (obs_ != nullptr) {
        obs_->Counter("orchestrator.degraded_starts", 1);
        obs_->Instant(obs_track_, "decision:degraded_start", "orchestrator",
                      clock_.now());
      }
      PRONGHORN_LOG_WARNING("database unavailable at worker launch for '%s'; "
                            "degraded cold start",
                            state_store_.function().c_str());
      return session;
    }
    return loaded.status();
  }
  // Hold the snapshot for the whole decision: the pool entries (and their
  // object keys) stay valid even when a failed restore updates the store,
  // because Update copies a state that a snapshot still holds.
  const std::shared_ptr<const PolicyState> snapshot = *std::move(loaded);
  const PolicyState& state = *snapshot;
  const StartDecision decision = policy_.OnWorkerStart(state, rng_);

  const Duration decision_overhead =
      costs_.db_read_latency + costs_.decision_base_cost +
      costs_.decision_per_snapshot_cost * static_cast<double>(state.pool.size());

  // Walk the policy's ranked candidates (best first) until one restores.
  StartDecision::CandidateList candidates = decision.restore_candidates;
  if (candidates.empty() && decision.restore_from.has_value()) {
    candidates.push_back(*decision.restore_from);
  }
  if (candidates.size() > recovery_options_.max_restore_candidates) {
    candidates.resize(recovery_options_.max_restore_candidates);
  }

  std::optional<WorkerSession> session;
  for (size_t rank = 0; rank < candidates.size() && !session.has_value(); ++rank) {
    const SnapshotId id = candidates[rank];
    auto entry = state.pool.Find(id);
    if (!entry.ok()) {
      continue;
    }
    const std::string& key = (*entry)->object_key;
    auto blob = FetchWithRetry(key);
    if (!blob.ok()) {
      if (blob.status().code() == StatusCode::kNotFound) {
        // Concurrent eviction between our Load and the fetch: the pool entry
        // points at a blob that no longer exists. Drop it so later lifetimes
        // stop drawing it.
        PRONGHORN_LOG_DEBUG("snapshot object missing for id %llu; pruning entry",
                            static_cast<unsigned long long>(id.value));
        PruneStaleEntry(id);
      } else if (blob.status().code() == StatusCode::kDataLoss) {
        // The store itself detected at-rest damage (corrupt chunk manifest
        // or a chunk missing from the index) before an image ever decoded.
        // Flat stores never return kDataLoss here — their corruption is only
        // caught by the image CRC below — so flat trajectories are unchanged.
        PRONGHORN_LOG_WARNING("snapshot %llu store-level data loss: %s",
                              static_cast<unsigned long long>(id.value),
                              blob.status().ToString().c_str());
        recovery_.restore_attempt_failures += 1;
        RecordRestoreFailure(id, key);
      } else {
        recovery_.restore_attempt_failures += 1;
      }
      continue;
    }
    auto image = SnapshotImage::Decode(blob->bytes());
    if (!image.ok()) {
      PRONGHORN_LOG_WARNING("snapshot %llu image corrupt: %s",
                            static_cast<unsigned long long>(id.value),
                            image.status().ToString().c_str());
      recovery_.restore_attempt_failures += 1;
      RecordRestoreFailure(id, key);
      continue;
    }
    auto restored = engine_.Restore(*image, registry_);
    if (!restored.ok()) {
      PRONGHORN_LOG_WARNING("restore of snapshot %llu failed: %s",
                            static_cast<unsigned long long>(id.value),
                            restored.status().ToString().c_str());
      recovery_.restore_attempt_failures += 1;
      RecordRestoreFailure(id, key);
      continue;
    }
    WorkerSession s(std::move(restored->process), next_worker_id_++);
    s.restored = true;
    s.restored_from = id;
    s.startup_latency = TransferTime(blob->logical_size) + restored->restore_time;
    if (rank > 0) {
      recovery_.restore_fallbacks += 1;
      if (obs_ != nullptr) {
        obs_->Counter("recovery.restore_fallbacks", 1);
        obs_->Instant(obs_track_, "restore_fallback", "recovery", clock_.now());
      }
    }
    if (state.restore_failures.count(id.value) > 0) {
      // The snapshot proved healthy after all; clear its strikes (best
      // effort — a lost write just leaves stale strikes to age out).
      (void)state_store_.Update(
          [&](PolicyState& st) { st.restore_failures.erase(id.value); });
    }
    session.emplace(std::move(s));
  }
  if (!session.has_value()) {
    session.emplace(RuntimeProcess::ColdStart(profile_, rng_.NextUint64()),
                    next_worker_id_++);
    session->startup_latency = profile_.cold_init;
  }

  session->checkpoint_at = decision.checkpoint_at_request;
  session->startup_overhead = decision_overhead;

  overheads_.worker_starts += 1;
  overheads_.total_startup_overhead += decision_overhead;
  if (obs_ != nullptr) {
    obs_->Counter(session->restored ? "orchestrator.restore_decisions"
                                    : "orchestrator.cold_start_decisions",
                  1);
    obs_->Instant(obs_track_,
                  session->restored ? "decision:restore" : "decision:cold_start",
                  "orchestrator", clock_.now());
  }
  return *std::move(session);
}

RequestOutcome Orchestrator::ExecuteBuffered(WorkerSession& session,
                                             const FunctionRequest& request,
                                             uint64_t sequence) {
  RequestOutcome outcome;
  const ExecutionResult execution = session.process.Execute(request);
  outcome.latency = execution.latency;
  outcome.request_number = session.process.requests_executed();

  pending_observations_.push_back({outcome.request_number, outcome.latency, sequence});
  if (pending_observations_.size() > recovery_options_.max_buffered_observations) {
    pending_observations_.pop_front();
    recovery_.observations_dropped += 1;
  }
  overheads_.requests_served += 1;
  return outcome;
}

Status Orchestrator::CommitObservations(RequestOutcome& outcome) {
  if (pending_observations_.empty()) {
    return OkStatus();
  }
  // Journal-replay dedup, stage 1 of 2: when the buffer holds sequenced
  // observations (only ever true in journaled service mode — sim paths pass
  // sequence 0 and skip this Load entirely), drop the ones the blob's
  // high-water mark already covers so a pure-duplicate replay performs no
  // write at all. The mutator below re-checks under the CAS, which is the
  // authoritative exactly-once guarantee; this pass is the fast path.
  bool sequenced = false;
  for (const PendingObservation& observation : pending_observations_) {
    sequenced = sequenced || observation.sequence != 0;
  }
  if (sequenced) {
    const auto current = state_store_.Load();
    if (current.ok()) {
      uint64_t mark = 0;
      const PolicyState& state = **current;
      if (const auto it = state.commit_marks.find(commit_scope_);
          it != state.commit_marks.end()) {
        mark = it->second;
      }
      const size_t before = pending_observations_.size();
      std::erase_if(pending_observations_,
                    [&](const PendingObservation& observation) {
                      return observation.sequence != 0 && observation.sequence <= mark;
                    });
      observations_deduped_ += before - pending_observations_.size();
      if (pending_observations_.empty()) {
        return OkStatus();
      }
    }
    // A Load failure falls through: the mutator dedups under the CAS anyway.
  }
  // Workflow step 3: pass the end-to-end latency to the policy, which
  // updates the Database (one knowledge write per batch). Writes that hit
  // a Database outage are buffered locally and replayed with a later
  // commit; the mutator flushes the whole buffer, which is safe to re-run
  // because a failed Update never commits — and sequenced observations are
  // additionally guarded by the high-water mark, which advances in the same
  // CAS as the knowledge writes it covers.
  const uint64_t backlog = pending_observations_.size() - 1;
  const Status update = state_store_.Update([&](PolicyState& state) {
    for (const PendingObservation& observation : pending_observations_) {
      if (observation.sequence != 0) {
        uint64_t& mark = state.commit_marks[commit_scope_];
        if (observation.sequence <= mark) {
          continue;  // Already applied by a commit that beat the crash.
        }
        mark = observation.sequence;
      }
      policy_.OnRequestComplete(state, observation.request_number,
                                observation.latency);
    }
  });
  if (update.ok()) {
    recovery_.observations_replayed += backlog;
    pending_observations_.clear();
    outcome.request_overhead = costs_.db_write_latency;
    overheads_.total_request_overhead += outcome.request_overhead;
  } else if (update.code() == StatusCode::kUnavailable) {
    recovery_.observations_buffered += 1;
  } else {
    return update;
  }
  return OkStatus();
}

Status Orchestrator::ReplayJournaled(std::span<const JournaledObservation> records) {
  for (const JournaledObservation& record : records) {
    pending_observations_.push_back(
        {record.request_number, record.latency, record.sequence});
    if (pending_observations_.size() > recovery_options_.max_buffered_observations) {
      pending_observations_.pop_front();
      recovery_.observations_dropped += 1;
    }
  }
  if (pending_observations_.empty()) {
    return OkStatus();
  }
  RequestOutcome scratch;
  return CommitObservations(scratch);
}

Result<uint64_t> Orchestrator::CommittedHighWater() const {
  PRONGHORN_ASSIGN_OR_RETURN(const std::shared_ptr<const PolicyState> state,
                             state_store_.Load());
  const auto it = state->commit_marks.find(commit_scope_);
  return it == state->commit_marks.end() ? 0 : it->second;
}

Status Orchestrator::MaybeCheckpoint(WorkerSession& session, RequestOutcome& outcome) {
  // Workflow steps 5-8: checkpoint when this lifetime's plan fires. A plan
  // that hits a transient fault is consumed (counted, not retried): the next
  // lifetime will draw a fresh plan.
  if (!session.checkpoint_at.has_value() ||
      session.process.requests_executed() < *session.checkpoint_at) {
    return OkStatus();
  }
  session.checkpoint_at.reset();  // One checkpoint per lifetime plan.
  auto downtime = TakeCheckpoint(session, outcome);
  if (downtime.ok()) {
    outcome.checkpoint_taken = true;
    outcome.checkpoint_downtime = *downtime;
  } else if (downtime.status().code() == StatusCode::kUnavailable) {
    recovery_.checkpoints_skipped += 1;
    PRONGHORN_LOG_DEBUG("checkpoint skipped for '%s': %s",
                        state_store_.function().c_str(),
                        downtime.status().ToString().c_str());
  } else {
    return downtime.status();
  }
  return OkStatus();
}

Result<RequestOutcome> Orchestrator::ServeRequest(WorkerSession& session,
                                                  const FunctionRequest& request) {
  RequestOutcome outcome = ExecuteBuffered(session, request);
  PRONGHORN_RETURN_IF_ERROR(CommitObservations(outcome));
  PRONGHORN_RETURN_IF_ERROR(MaybeCheckpoint(session, outcome));
  return outcome;
}

Result<Duration> Orchestrator::TakeCheckpoint(WorkerSession& session,
                                              RequestOutcome& outcome) {
  PRONGHORN_ASSIGN_OR_RETURN(SnapshotId id, state_store_.AllocateSnapshotId());
  PRONGHORN_ASSIGN_OR_RETURN(CheckpointOutcome checkpoint,
                             engine_.Checkpoint(session.process, id, clock_.now()));

  const SnapshotImage& image = checkpoint.image;
  // Scope the object key by the deployment (the state store's function
  // scope), not the workload name: two deployments of one workload — e.g.
  // input-class-specialized orchestrators — must never collide in a shared
  // object store.
  const std::string key = "snapshots/" + state_store_.function() + "/" +
                          std::to_string(image.metadata().id.value);
  // The engine sealed the encoding at checkpoint time; every downstream
  // hand-off (retries, store, readers) shares that one immutable buffer.
  PRONGHORN_RETURN_IF_ERROR(PutWithRetry(key, std::move(checkpoint.blob)));

  // Record the snapshot and apply the capacity rule atomically. External
  // deletions happen only after the state update commits; `evicted` is
  // rebuilt on every CAS retry so the mutator stays idempotent.
  std::vector<PoolEntry> evicted;
  size_t pool_size_after = 0;
  const Status update = state_store_.Update([&](PolicyState& state) {
    evicted.clear();
    if (!state.pool.Contains(image.metadata().id)) {
      // Add cannot fail after the Contains check.
      (void)state.pool.Add(PoolEntry{image.metadata(), key});
    }
    evicted = policy_.OnSnapshotAdded(state, rng_);
    pool_size_after = state.pool.size();
  });
  if (!update.ok()) {
    // The blob landed but its metadata never committed: delete it so it does
    // not linger as an orphan (best effort; GC sweeps whatever remains).
    (void)snapshot_store_.DeleteSnapshot(key);
    return update;
  }
  for (const PoolEntry& entry : evicted) {
    const Status status = snapshot_store_.DeleteSnapshot(entry.object_key);
    if (status.ok() || status.code() == StatusCode::kNotFound) {
      continue;
    }
    if (status.code() == StatusCode::kUnavailable) {
      // The pool entry is already gone; the blob becomes an orphan that
      // CollectOrphanedObjects reclaims.
      recovery_.eviction_deletes_deferred += 1;
      continue;
    }
    return status;
  }

  // Orchestrator bookkeeping (Figure 7's per-checkpoint component): the
  // metadata write, the pool update (which re-scores every pooled snapshot),
  // and the eviction deletes. The image upload itself is network transfer,
  // accounted by the object store, not orchestrator overhead.
  const Duration overhead =
      costs_.db_write_latency * 2.0 + costs_.decision_base_cost * 0.5 +
      costs_.decision_per_snapshot_cost *
          static_cast<double>(pool_size_after + evicted.size());
  outcome.checkpoint_overhead = overhead;
  overheads_.checkpoints_taken += 1;
  overheads_.total_checkpoint_overhead += overhead;
  return checkpoint.downtime;
}

Result<uint64_t> Orchestrator::CollectOrphanedObjects() {
  PRONGHORN_ASSIGN_OR_RETURN(const std::shared_ptr<const PolicyState> state,
                             state_store_.Load());
  const std::string prefix = "snapshots/" + state_store_.function() + "/";
  const std::vector<std::string> keys = snapshot_store_.ListSnapshots(prefix);
  uint64_t collected = 0;
  for (const std::string& key : keys) {
    bool referenced = false;
    for (const PoolEntry& entry : state->pool.entries()) {
      if (entry.object_key == key) {
        referenced = true;
        break;
      }
    }
    if (referenced) {
      continue;
    }
    const Status status = snapshot_store_.DeleteSnapshot(key);
    if (status.ok() || status.code() == StatusCode::kNotFound) {
      collected += 1;
    }
  }
  // Each delete reclaims the chunks it held last; nothing is left to collect.
  recovery_.orphans_collected += collected;
  return collected;
}

}  // namespace pronghorn
