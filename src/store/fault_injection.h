// Deterministic fault schedules for the storage layer.
//
// Distributed deployments lose object-store reads and database round trips
// to transient failures, partial uploads, and flipped bits. Two decorators
// inject faults from a seeded FaultPlan: FaultySnapshotStore wraps any
// SnapshotStore (flat or dedup; the one store fault seam) and
// FaultyKvDatabase wraps any KvDatabase. Tests and benches use them to verify
// the orchestrator's degradation behavior (restore failures fall back to the
// next-best snapshot; knowledge writes are buffered through outages; corrupt
// images are quarantined).
//
// Faults come in two flavors:
//   - Per-operation rates: each op kind fails with kUnavailable with a fixed
//     probability, drawn from a seeded Rng (bit-reproducible across runs).
//   - Scheduled windows: [start, end) intervals of *simulated* time during
//     which a whole domain (object store, database, or both) is down
//     (kOutage) or slow (kLatency adds a fixed delay to every op). Windows
//     require the decorator to hold the simulation's clock; without a clock
//     they are ignored.
//
// Snapshot writes additionally support two data-integrity faults:
//   - corruption_rate: the stored image gets one bit flipped. The write
//     "succeeds"; the damage is only caught later by the snapshot CRC.
//   - torn_write_rate: a truncated prefix lands in the store and the call
//     still fails with kUnavailable — a partial upload whose garbage blob
//     must eventually be garbage-collected.

#ifndef PRONGHORN_SRC_STORE_FAULT_INJECTION_H_
#define PRONGHORN_SRC_STORE_FAULT_INJECTION_H_

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "src/common/clock.h"
#include "src/common/rng.h"
#include "src/obs/sink.h"
#include "src/store/kv_database.h"
#include "src/store/snapshot_store.h"

namespace pronghorn {

// Flips one uniformly-drawn bit of `bytes` in place; no-op when empty. The
// single-bit-rot primitive behind corruption_rate, shared with the service
// wire-format tests (which reuse it to prove the frame CRC catches every
// one-bit flip).
void FlipRandomBit(std::vector<uint8_t>& bytes, Rng& rng);

// Which storage service a scheduled fault window hits.
enum class FaultDomain {
  kObjectStore = 0,
  kDatabase = 1,
  kBoth = 2,
};

// One scheduled fault interval in simulated time, half-open [start, end).
struct FaultWindow {
  enum class Kind {
    kOutage = 0,   // Every op in the domain fails with kUnavailable.
    kLatency = 1,  // Every op in the domain takes extra_latency longer.
  };

  Kind kind = Kind::kOutage;
  FaultDomain domain = FaultDomain::kBoth;
  TimePoint start;
  TimePoint end;
  Duration extra_latency;  // kLatency only.

  bool Covers(TimePoint t) const { return t >= start && t < end; }
  bool AppliesTo(FaultDomain domain_in) const {
    return domain == FaultDomain::kBoth || domain == domain_in;
  }
};

// Where in a shard's processing loop an injected crash fires, relative to
// the shard's Nth processed envelope.
enum class ServiceCrashStage {
  // Before the envelope is processed: the request is parked, the shard dies,
  // and the supervisor re-queues the envelope at the front after recovery —
  // the client just sees a slow reply.
  kEnqueue = 0,
  // After the envelope is processed (reply already sent) but before its
  // deferred batch flushes: the shard dies taking its in-memory buffers with
  // it, so only the write-ahead journal can save the observations.
  kMidBatch = 1,
  // After a group commit lands in the Database but before the journal
  // truncates: recovery replays records that were already committed,
  // exercising the high-water-mark dedup.
  kPreTruncate = 2,
};

// One scheduled shard crash. Fires exactly once, when shard `shard`
// processes its `at_op`-th envelope (1-based, counted across recoveries).
struct ServiceCrash {
  uint32_t shard = 0;
  uint64_t at_op = 0;
  ServiceCrashStage stage = ServiceCrashStage::kEnqueue;
};

// One scheduled shard stall: the shard sleeps `wall_millis` of host time
// before processing its `at_op`-th envelope. Combined with a small queue and
// a shed deadline this creates deterministic queue-overflow pressure.
struct ServiceStall {
  uint32_t shard = 0;
  uint64_t at_op = 0;
  uint32_t wall_millis = 0;
};

// Service-level faults: scheduled, deterministic by construction (no rates,
// no RNG — a crash either is in the plan or is not), so a crash-injected run
// is reproducible record for record. Carried inside FaultPlan so one chaos
// knob configures the whole stack, but consumed by OrchestratorService, not
// by the storage decorators below.
struct ServiceFaultPlan {
  std::vector<ServiceCrash> crashes;
  std::vector<ServiceStall> stalls;

  bool Active() const { return !crashes.empty() || !stalls.empty(); }
  // Highest shard index any entry names; validation material for drivers
  // that know the service's shard count.
  uint32_t MaxShardNamed() const {
    uint32_t max_shard = 0;
    for (const ServiceCrash& crash : crashes) {
      max_shard = std::max(max_shard, crash.shard);
    }
    for (const ServiceStall& stall : stalls) {
      max_shard = std::max(max_shard, stall.shard);
    }
    return max_shard;
  }
};

struct FaultPlan {
  // Probability that each operation kind fails with kUnavailable.
  double get_failure_rate = 0.0;
  double put_failure_rate = 0.0;
  double delete_failure_rate = 0.0;
  // Metadata/list operations (SnapshotStore ContainsSnapshot/ListSnapshots,
  // KvDatabase ListKeys). These interfaces cannot return a Status, so a metadata fault
  // models an unreachable index: Contains reports false, ListKeys reports
  // nothing.
  double metadata_failure_rate = 0.0;
  // Snapshot put bit-flip corruption (stored image is damaged, write reports
  // success).
  double corruption_rate = 0.0;
  // Snapshot put torn write (truncated blob stored, write reports
  // kUnavailable).
  double torn_write_rate = 0.0;
  // Chunk-granular at-rest faults (DedupSnapshotStore only; flat stores have
  // no chunks, so these rates are ignored for them). Both fire *after* a
  // successful put, from an independent RNG stream, so enabling them never
  // perturbs the flat-store fault trajectory.
  //   chunk_corruption_rate: one chunk of the stored snapshot is rewritten
  //     through copy-on-write with a flipped bit — snapshots sharing the
  //     original chunk stay healthy; the damaged snapshot fails its image
  //     CRC at restore.
  //   manifest_corruption_rate: one bit of the serialized chunk manifest is
  //     flipped — the next OpenSnapshot fails the manifest CRC (kDataLoss)
  //     and feeds the quarantine ledger.
  double chunk_corruption_rate = 0.0;
  double manifest_corruption_rate = 0.0;

  // Scheduled outage/latency windows (simulated time; need a clock).
  std::vector<FaultWindow> windows;

  // Service-level faults (shard crashes, stalls). Consumed by
  // OrchestratorService; the storage decorators ignore them, and they do not
  // count toward Active() — a plan that only crashes shards must not wrap
  // the stores in fault decorators.
  ServiceFaultPlan service;

  uint64_t seed = 0;

  // True when any *storage* fault can ever fire (a zero plan lets
  // simulations skip the decorators entirely, preserving byte-identical
  // no-fault baselines). Service faults are reported by service.Active().
  bool Active() const;
};

// What a decorator injected so far (mirrored into the platform reports).
struct FaultInjectionStats {
  uint64_t faults_injected = 0;  // Ops failed with kUnavailable (rate + outage).
  uint64_t outage_faults = 0;    // Subset of faults_injected from kOutage windows.
  uint64_t metadata_faults = 0;  // Contains/List deflections (also counted above).
  uint64_t corrupted_puts = 0;
  uint64_t torn_puts = 0;
  uint64_t latency_injections = 0;
  uint64_t corrupted_chunks = 0;     // Chunk-granular at-rest bit rot.
  uint64_t corrupted_manifests = 0;  // Manifest-frame bit rot.
};

// The draw-and-report core both decorators share: scheduled windows for one
// FaultDomain, then one Bernoulli draw at the op's rate. Every injected fault
// lands in `stats` and, with a sink attached, becomes a counter plus an 'i'
// instant on `obs_track` at the simulated fault time.
struct FaultGate {
  // The obs names one domain reports its faults under.
  struct Names {
    const char* injected;      // Counter for every failed op.
    const char* outage_event;  // Instant for an outage-window failure.
    const char* rate_event;    // Instant for a rate-drawn failure.
  };

  FaultGate(FaultPlan plan_in, SimClock* clock_in, FaultDomain domain_in,
            Names names_in, uint64_t salt)
      : plan(std::move(plan_in)),
        clock(clock_in),
        domain(domain_in),
        names(names_in),
        rng(HashCombine(plan.seed, salt)) {}

  // Applies windows and the per-op rate; true means the op must fail.
  bool ShouldFail(double rate);
  // ShouldFail at the metadata rate, counting a hit as a metadata fault.
  bool MetadataFault();
  // Emits the counter (and instant, when `event` is non-null) for one
  // injected fault.
  void NoteFault(const char* counter, const char* event) const;

  FaultPlan plan;
  SimClock* clock;
  FaultDomain domain;
  Names names;
  Rng rng;
  FaultInjectionStats stats;
  ObsSink* obs = nullptr;
  ObsTrack obs_track;
};

// SnapshotStore decorator: the one store fault seam, over a flat or a dedup
// store alike. Each logical operation draws the same sequence whichever store
// is inside — that is what keeps simulation digests bit-identical with the
// store swapped. Chunk/manifest faults draw from an independent stream (salt
// 0xc417) after a put succeeds, so enabling them cannot shift the shared
// trajectory; flat stores decline them. The inner store is borrowed.
// `clock` (borrowed, may be null) enables scheduled windows and receives the
// injected latency of kLatency windows.
class FaultySnapshotStore : public SnapshotStore {
 public:
  FaultySnapshotStore(SnapshotStore& inner, FaultPlan plan, SimClock* clock = nullptr)
      : inner_(inner),
        chunk_rng_(HashCombine(plan.seed, 0xc417ULL)),
        gate_(std::move(plan), clock, FaultDomain::kObjectStore,
              {"faults.store.injected", "fault:store_outage", "fault:store"},
              0xfa17ULL) {}

  Result<SnapshotRef> PutSnapshot(std::string_view key, ObjectBlob blob) override;
  Result<std::unique_ptr<SnapshotReader>> OpenSnapshot(std::string_view key) override;
  Status DeleteSnapshot(std::string_view key) override;
  bool ContainsSnapshot(std::string_view key) const override;
  std::vector<std::string> ListSnapshots(std::string_view prefix) const override;
  Status Pin(std::string_view key) override { return inner_.Pin(key); }
  Status Unpin(std::string_view key) override { return inner_.Unpin(key); }
  uint64_t CollectGarbage() override { return inner_.CollectGarbage(); }
  StoreAccounting accounting() const override { return inner_.accounting(); }
  Status CorruptChunk(std::string_view key, Rng& rng) override {
    return inner_.CorruptChunk(key, rng);
  }
  Status CorruptManifest(std::string_view key, Rng& rng) override {
    return inner_.CorruptManifest(key, rng);
  }

  const FaultInjectionStats& stats() const { return gate_.stats; }
  uint64_t faults_injected() const { return gate_.stats.faults_injected; }

  // Borrowed observability sink; also forwarded to the inner store so its
  // chunk_fetch spans land on the same track.
  void set_obs(ObsSink* obs, ObsTrack track) override {
    gate_.obs = obs;
    gate_.obs_track = track;
    inner_.set_obs(obs, track);
  }

 private:
  SnapshotStore& inner_;
  Rng chunk_rng_;  // Chunk/manifest fault stream (salt 0xc417).
  mutable FaultGate gate_;  // Shared-trajectory stream (salt 0xfa17).
};

// KvDatabase decorator. Reads and writes fail independently per the plan
// (CAS and Increment count as writes). The inner database is borrowed.
class FaultyKvDatabase : public KvDatabase {
 public:
  FaultyKvDatabase(KvDatabase& inner, FaultPlan plan, SimClock* clock = nullptr)
      : inner_(inner),
        gate_(std::move(plan), clock, FaultDomain::kDatabase,
              {"faults.db.injected", "fault:db_outage", "fault:db"}, 0xfadbULL) {}

  Status Put(std::string_view key, std::vector<uint8_t> value) override;
  Result<std::vector<uint8_t>> Get(std::string_view key) override;
  Result<VersionedValue> GetVersioned(std::string_view key) override;
  // Draws exactly as GetVersioned, then forwards to the inner probe.
  Result<VersionedValue> GetVersionedIfChanged(std::string_view key,
                                               uint64_t known_version) override;
  Status CompareAndSwap(std::string_view key, uint64_t expected_version,
                        std::vector<uint8_t> value) override;
  Status Delete(std::string_view key) override;
  Result<int64_t> Increment(std::string_view key) override;
  std::vector<std::string> ListKeys(std::string_view prefix) const override;
  KvAccounting accounting() const override { return inner_.accounting(); }

  const FaultInjectionStats& stats() const { return gate_.stats; }
  uint64_t faults_injected() const { return gate_.stats.faults_injected; }

  // Borrowed observability sink; see FaultySnapshotStore::set_obs.
  void set_obs(ObsSink* obs, ObsTrack track) {
    gate_.obs = obs;
    gate_.obs_track = track;
  }

 private:
  Status MaybeFail(double rate, const char* operation);

  KvDatabase& inner_;
  mutable FaultGate gate_;
};

}  // namespace pronghorn

#endif  // PRONGHORN_SRC_STORE_FAULT_INJECTION_H_
