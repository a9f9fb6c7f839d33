#include "src/store/fault_injection.h"

namespace pronghorn {

namespace {

// Applies the plan's scheduled windows at the clock's current instant:
// advances the clock through any active latency window and reports whether
// an outage window covers the op. Windows are evaluated against one snapshot
// of `now` so an injected delay cannot silently end the window mid-check.
bool InOutage(const FaultPlan& plan, SimClock* clock, FaultDomain domain,
              FaultInjectionStats& stats) {
  if (clock == nullptr || plan.windows.empty()) {
    return false;
  }
  const TimePoint now = clock->now();
  bool outage = false;
  for (const FaultWindow& window : plan.windows) {
    if (!window.AppliesTo(domain) || !window.Covers(now)) {
      continue;
    }
    if (window.kind == FaultWindow::Kind::kLatency) {
      clock->Advance(window.extra_latency);
      stats.latency_injections += 1;
    } else {
      outage = true;
    }
  }
  return outage;
}

}  // namespace

void FlipRandomBit(std::vector<uint8_t>& bytes, Rng& rng) {
  if (bytes.empty()) {
    return;
  }
  const uint64_t bit = rng.UniformUint64(bytes.size() * 8);
  bytes[bit / 8] ^= static_cast<uint8_t>(1u << (bit % 8));
}

bool FaultPlan::Active() const {
  return get_failure_rate > 0.0 || put_failure_rate > 0.0 ||
         delete_failure_rate > 0.0 || metadata_failure_rate > 0.0 ||
         corruption_rate > 0.0 || torn_write_rate > 0.0 ||
         chunk_corruption_rate > 0.0 || manifest_corruption_rate > 0.0 ||
         !windows.empty();
}

// --- FaultGate ----------------------------------------------------------------

void FaultGate::NoteFault(const char* counter, const char* event) const {
  if (obs == nullptr) {
    return;
  }
  obs->Counter(counter, 1);
  if (event != nullptr) {
    obs->Instant(obs_track, event, "fault",
                 clock != nullptr ? clock->now() : TimePoint());
  }
}

bool FaultGate::ShouldFail(double rate) {
  if (InOutage(plan, clock, domain, stats)) {
    stats.faults_injected += 1;
    stats.outage_faults += 1;
    NoteFault(names.injected, names.outage_event);
    return true;
  }
  if (rng.Bernoulli(rate)) {
    stats.faults_injected += 1;
    NoteFault(names.injected, names.rate_event);
    return true;
  }
  return false;
}

bool FaultGate::MetadataFault() {
  if (!ShouldFail(plan.metadata_failure_rate)) {
    return false;
  }
  stats.metadata_faults += 1;
  return true;
}

// --- FaultySnapshotStore -----------------------------------------------------

Result<SnapshotRef> FaultySnapshotStore::PutSnapshot(std::string_view key,
                                                     ObjectBlob blob) {
  // Draw order per put: fail check, torn check, corruption check (+ one bit
  // draw when it fires).
  if (gate_.ShouldFail(gate_.plan.put_failure_rate)) {
    return UnavailableError("injected object-store put failure");
  }
  if (gate_.rng.Bernoulli(gate_.plan.torn_write_rate) && !blob.bytes().empty()) {
    // Partial upload: half the payload lands, the call still fails. The
    // stored garbage is an orphan until GC (or a successful rewrite) reaps it.
    // The half-payload copy is the fault's own private buffer — the caller's
    // shared bytes are never mutated.
    const std::vector<uint8_t>& payload = blob.bytes();
    std::vector<uint8_t> half(
        payload.begin(),
        payload.begin() + static_cast<std::ptrdiff_t>(payload.size() / 2));
    gate_.stats.torn_puts += 1;
    gate_.stats.faults_injected += 1;
    gate_.NoteFault("faults.store.torn_puts", "fault:torn_put");
    (void)inner_.PutSnapshot(key, ObjectBlob(std::move(half), blob.logical_size / 2));
    return UnavailableError("injected torn object-store put");
  }
  if (gate_.rng.Bernoulli(gate_.plan.corruption_rate) && !blob.bytes().empty()) {
    // Silent whole-image bit rot *before* chunking: only the snapshot image
    // CRC can catch it, at restore time. In a dedup store the damaged region
    // lands in a chunk with a new content address (copy-on-write by
    // construction), so siblings sharing the healthy chunk are untouched.
    // The payload is deep-copied only when this fault fires.
    std::vector<uint8_t> corrupted = blob.bytes();
    FlipRandomBit(corrupted, gate_.rng);
    blob = ObjectBlob(std::move(corrupted), blob.logical_size);
    gate_.stats.corrupted_puts += 1;
    gate_.NoteFault("faults.store.corrupted_puts", "fault:corrupted_put");
  }
  PRONGHORN_ASSIGN_OR_RETURN(SnapshotRef ref, inner_.PutSnapshot(key, std::move(blob)));
  // Chunk-granular at-rest faults fire after a successful put, on their own
  // RNG stream — the shared trajectory above never sees these draws.
  if (chunk_rng_.Bernoulli(gate_.plan.chunk_corruption_rate)) {
    if (inner_.CorruptChunk(key, chunk_rng_).ok()) {
      gate_.stats.corrupted_chunks += 1;
      gate_.NoteFault("faults.store.corrupted_chunks", "fault:corrupted_chunk");
    }
  }
  if (chunk_rng_.Bernoulli(gate_.plan.manifest_corruption_rate)) {
    if (inner_.CorruptManifest(key, chunk_rng_).ok()) {
      gate_.stats.corrupted_manifests += 1;
      gate_.NoteFault("faults.store.corrupted_manifests", "fault:corrupted_manifest");
    }
  }
  return ref;
}

Result<std::unique_ptr<SnapshotReader>> FaultySnapshotStore::OpenSnapshot(
    std::string_view key) {
  if (gate_.ShouldFail(gate_.plan.get_failure_rate)) {
    return UnavailableError("injected object-store get failure");
  }
  return inner_.OpenSnapshot(key);
}

Status FaultySnapshotStore::DeleteSnapshot(std::string_view key) {
  if (gate_.ShouldFail(gate_.plan.delete_failure_rate)) {
    return UnavailableError("injected object-store delete failure");
  }
  return inner_.DeleteSnapshot(key);
}

bool FaultySnapshotStore::ContainsSnapshot(std::string_view key) const {
  if (gate_.MetadataFault()) {
    return false;  // The metadata index is unreachable.
  }
  return inner_.ContainsSnapshot(key);
}

std::vector<std::string> FaultySnapshotStore::ListSnapshots(
    std::string_view prefix) const {
  if (gate_.MetadataFault()) {
    return {};
  }
  return inner_.ListSnapshots(prefix);
}

// --- FaultyKvDatabase --------------------------------------------------------

Status FaultyKvDatabase::MaybeFail(double rate, const char* operation) {
  if (gate_.ShouldFail(rate)) {
    return UnavailableError(std::string("injected database failure: ") + operation);
  }
  return OkStatus();
}

Status FaultyKvDatabase::Put(std::string_view key, std::vector<uint8_t> value) {
  PRONGHORN_RETURN_IF_ERROR(MaybeFail(gate_.plan.put_failure_rate, "put"));
  return inner_.Put(key, std::move(value));
}

Result<std::vector<uint8_t>> FaultyKvDatabase::Get(std::string_view key) {
  PRONGHORN_RETURN_IF_ERROR(MaybeFail(gate_.plan.get_failure_rate, "get"));
  return inner_.Get(key);
}

Result<VersionedValue> FaultyKvDatabase::GetVersioned(std::string_view key) {
  PRONGHORN_RETURN_IF_ERROR(MaybeFail(gate_.plan.get_failure_rate, "get-versioned"));
  return inner_.GetVersioned(key);
}

Result<VersionedValue> FaultyKvDatabase::GetVersionedIfChanged(std::string_view key,
                                                               uint64_t known_version) {
  PRONGHORN_RETURN_IF_ERROR(MaybeFail(gate_.plan.get_failure_rate, "get-versioned"));
  return inner_.GetVersionedIfChanged(key, known_version);
}

Status FaultyKvDatabase::CompareAndSwap(std::string_view key, uint64_t expected_version,
                                        std::vector<uint8_t> value) {
  PRONGHORN_RETURN_IF_ERROR(
      MaybeFail(gate_.plan.put_failure_rate, "compare-and-swap"));
  return inner_.CompareAndSwap(key, expected_version, std::move(value));
}

Status FaultyKvDatabase::Delete(std::string_view key) {
  PRONGHORN_RETURN_IF_ERROR(MaybeFail(gate_.plan.delete_failure_rate, "delete"));
  return inner_.Delete(key);
}

Result<int64_t> FaultyKvDatabase::Increment(std::string_view key) {
  PRONGHORN_RETURN_IF_ERROR(MaybeFail(gate_.plan.put_failure_rate, "increment"));
  return inner_.Increment(key);
}

std::vector<std::string> FaultyKvDatabase::ListKeys(std::string_view prefix) const {
  if (gate_.MetadataFault()) {
    return {};
  }
  return inner_.ListKeys(prefix);
}

}  // namespace pronghorn
