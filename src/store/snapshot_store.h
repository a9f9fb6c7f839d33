// SnapshotStore: the chunk-granular snapshot API, and the only blob API the
// checkpoint/restore path talks to:
//
//   PutSnapshot    -> SnapshotRef (content digest + chunk manifest summary)
//   OpenSnapshot   -> lazy chunk reader (pins the snapshot while open)
//   Pin/Unpin      -> GC protection across reader lifetimes
//   DeleteSnapshot -> drops the manifest; chunk reclaim is deferred to GC
//   CollectGarbage -> reclaims chunks no manifest references
//
// Two implementations:
//
//   FlatSnapshotStore  — whole-blob store over an InMemoryObjectStore, one
//     object per snapshot.
//
//   DedupSnapshotStore — content-addressed chunk index. Snapshots are split
//     into fixed/CDC chunks (src/store/chunker.h) keyed by content digest
//     with refcounts, so pool snapshots of one function (and identical
//     chunks across functions) deduplicate; CDC chunking is the delta
//     encoding between adjacent pool snapshots. Restores can run lazily,
//     REAP-style: the first open records the transferred chunk set into the
//     snapshot's manifest, later opens prefetch exactly that set and fault
//     the rest in on demand through a bounded host chunk cache.
//
// Store faults are injected above either one by FaultySnapshotStore
// (src/store/fault_injection.h).
//
// Accounting contract: the seven digest-covered StoreAccounting fields are
// computed with the *same logical arithmetic* as InMemoryObjectStore, so
// simulation digests are bit-identical whichever implementation backs a run.
// Everything chunk-granular lands in the digest-excluded PhysicalAccounting.

#ifndef PRONGHORN_SRC_STORE_SNAPSHOT_STORE_H_
#define PRONGHORN_SRC_STORE_SNAPSHOT_STORE_H_

#include <cstdint>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "src/common/clock.h"
#include "src/common/result.h"
#include "src/common/rng.h"
#include "src/obs/sink.h"
#include "src/store/chunker.h"
#include "src/store/object_store.h"

namespace pronghorn {

// What PutSnapshot hands back: enough to audit dedup behavior without
// another store round trip.
struct SnapshotRef {
  std::string key;
  uint64_t logical_size = 0;       // Modeled CRIU image bytes (digest-covered).
  uint64_t encoded_size = 0;       // Actual encoded payload bytes.
  uint32_t chunk_count = 0;
  uint64_t unique_bytes_added = 0; // Chunk bytes this put actually stored.
};

// Lazy chunk reader returned by OpenSnapshot. Holds a pin on the snapshot:
// the manifest and its chunks survive a concurrent DeleteSnapshot until the
// reader is destroyed. Must not outlive the store that opened it.
class SnapshotReader {
 public:
  virtual ~SnapshotReader() = default;

  virtual const SnapshotRef& ref() const = 0;
  // Materializes the full encoded image. Byte-identical to what was put
  // (including any at-rest corruption) regardless of eager/lazy fetching.
  virtual Result<ObjectBlob> ReadAll() = 0;
};

// How a simulation's snapshot store is built (SimOptions::store).
struct SnapshotStoreOptions {
  enum class Kind {
    kFlat = 0,   // FlatSnapshotStore over the environment's InMemoryObjectStore.
    kDedup = 1,  // Content-addressed DedupSnapshotStore.
  };
  Kind kind = Kind::kFlat;
  // Chunking geometry (fixed cut size / CDC target average; see chunker.h).
  ChunkerOptions chunker;
  // REAP-style record-then-prefetch restores (kDedup only). Digest-neutral:
  // only the physical fetch counters change.
  bool lazy_restore = false;
  // Host-side restore chunk cache budget for lazy mode.
  uint64_t chunk_cache_bytes = 16ull << 20;
};

class SnapshotStore {
 public:
  virtual ~SnapshotStore() = default;

  // Stores `blob` under `key`, replacing any existing snapshot.
  virtual Result<SnapshotRef> PutSnapshot(std::string_view key, ObjectBlob blob) = 0;
  // Opens a pinned reader. kNotFound for unknown keys; kDataLoss when the
  // manifest fails its integrity check.
  virtual Result<std::unique_ptr<SnapshotReader>> OpenSnapshot(std::string_view key) = 0;
  // Drops the snapshot's manifest. Chunks lose a reference but stay resident
  // until CollectGarbage (or until a pin on the snapshot is released).
  virtual Status DeleteSnapshot(std::string_view key) = 0;
  virtual bool ContainsSnapshot(std::string_view key) const = 0;
  // Keys in lexicographic order, optionally filtered by prefix.
  virtual std::vector<std::string> ListSnapshots(std::string_view prefix = "") const = 0;

  // Explicit GC protection independent of reader lifetimes. Pins nest.
  virtual Status Pin(std::string_view key) = 0;
  virtual Status Unpin(std::string_view key) = 0;
  // Reclaims every unpinned chunk no manifest references; returns how many
  // chunks were collected.
  virtual uint64_t CollectGarbage() = 0;

  virtual StoreAccounting accounting() const = 0;

  // Chaos hooks for chunk-granular fault injection (see fault_injection.h).
  // Flat stores have no chunks or manifests, so the default declines.
  virtual Status CorruptChunk(std::string_view key, Rng& rng);
  virtual Status CorruptManifest(std::string_view key, Rng& rng);

  // Borrowed observability sink; chunk fetches become "chunk_fetch" spans.
  virtual void set_obs(ObsSink* obs, ObsTrack track);
};

// Whole-blob store: one inner object operation per call, no chunks, no
// manifests, nothing to pin or collect. The inner store is borrowed.
class FlatSnapshotStore : public SnapshotStore {
 public:
  explicit FlatSnapshotStore(InMemoryObjectStore& inner) : inner_(inner) {}

  Result<SnapshotRef> PutSnapshot(std::string_view key, ObjectBlob blob) override;
  Result<std::unique_ptr<SnapshotReader>> OpenSnapshot(std::string_view key) override;
  Status DeleteSnapshot(std::string_view key) override;
  bool ContainsSnapshot(std::string_view key) const override;
  std::vector<std::string> ListSnapshots(std::string_view prefix) const override;
  Status Pin(std::string_view /*key*/) override { return OkStatus(); }
  Status Unpin(std::string_view /*key*/) override { return OkStatus(); }
  uint64_t CollectGarbage() override { return 0; }
  StoreAccounting accounting() const override { return inner_.accounting(); }

 private:
  InMemoryObjectStore& inner_;
};

// Content-addressed deduplicated store. Self-contained (owns its chunk index
// and manifests); thread-safe like the stores it replaces. `clock` (borrowed,
// may be null) only timestamps observability spans — the store never advances
// simulated time, which is what keeps it digest-neutral.
class DedupSnapshotStore : public SnapshotStore {
 public:
  explicit DedupSnapshotStore(SnapshotStoreOptions options, SimClock* clock = nullptr);

  Result<SnapshotRef> PutSnapshot(std::string_view key, ObjectBlob blob) override;
  Result<std::unique_ptr<SnapshotReader>> OpenSnapshot(std::string_view key) override;
  Status DeleteSnapshot(std::string_view key) override;
  bool ContainsSnapshot(std::string_view key) const override;
  std::vector<std::string> ListSnapshots(std::string_view prefix) const override;
  Status Pin(std::string_view key) override;
  Status Unpin(std::string_view key) override;
  uint64_t CollectGarbage() override;
  StoreAccounting accounting() const override;

  // Chaos hooks. CorruptChunk rewrites one uniformly-drawn chunk of `key`'s
  // manifest through copy-on-write (siblings sharing the original chunk are
  // untouched); CorruptManifest flips one bit of the serialized manifest so
  // the next open fails its CRC.
  Status CorruptChunk(std::string_view key, Rng& rng) override;
  Status CorruptManifest(std::string_view key, Rng& rng) override;

  void set_obs(ObsSink* obs, ObsTrack track) override;

  // Audit for tests: every manifest reference resolves, refcount totals
  // match, and the physical byte ledger equals the resident bytes. Returns
  // the first violation found.
  Status CheckInvariants() const;

  // Test introspection.
  uint64_t resident_chunks() const;
  uint64_t unreferenced_chunks() const;

 private:
  struct ChunkEntry {
    std::vector<uint8_t> bytes;
    uint64_t refs = 0;
  };
  struct ManifestEntry {
    uint64_t logical_size = 0;
    uint64_t encoded_size = 0;
    std::vector<ChunkKey> chunks;      // Authoritative refcount ledger.
    std::vector<uint32_t> sizes;
    std::vector<uint8_t> serialized;   // CRC-framed; the read path's input.
    std::vector<uint32_t> working_set; // Chunk indexes transferred at first open.
    bool ws_recorded = false;
    uint64_t pins = 0;
    bool zombie = false;  // Deleted while pinned; released at last unpin.
  };

  class Reader;

  // All Locked helpers require mutex_ held.
  std::shared_ptr<ManifestEntry> FindLocked(std::string_view key) const;
  void SerializeManifestLocked(ManifestEntry& manifest);
  Status ParseManifestLocked(const ManifestEntry& manifest,
                             std::vector<ChunkKey>& chunks,
                             std::vector<uint32_t>& sizes) const;
  // Adds one reference to `key`'s chunk (inserting `bytes` when new);
  // returns bytes actually stored (0 on a dedup hit).
  uint64_t RefChunkLocked(const ChunkKey& key, std::span<const uint8_t> bytes);
  void ReleaseManifestLocked(ManifestEntry& manifest);
  uint64_t CollectLocked();
  void TouchCacheLocked(const ChunkKey& key, uint32_t size);
  bool CachedLocked(const ChunkKey& key) const;
  void CloseReader(const std::shared_ptr<ManifestEntry>& manifest);
  Result<ObjectBlob> ReadAllLocked(const std::shared_ptr<ManifestEntry>& manifest,
                                   const std::vector<ChunkKey>& chunks,
                                   const std::vector<uint32_t>& sizes,
                                   const std::string& key);

  // ChunkKey is itself a 128-bit content digest, so its high word is already
  // a high-quality hash — no re-mixing needed. The chunk index is the hottest
  // map in the store (every put/restore touches it once per chunk); hashed
  // lookup replaces the old std::map's pointer-chasing tree descent. Every
  // iteration over the index computes order-independent totals, so the
  // unordered iteration order is unobservable.
  struct ChunkKeyHash {
    size_t operator()(const ChunkKey& key) const noexcept {
      return static_cast<size_t>(key.hi);
    }
  };

  mutable std::mutex mutex_;
  SnapshotStoreOptions options_;
  SimClock* clock_;
  std::unordered_map<ChunkKey, ChunkEntry, ChunkKeyHash> chunks_;
  std::map<std::string, std::shared_ptr<ManifestEntry>, std::less<>> manifests_;
  // Deleted-while-pinned manifests awaiting their last unpin.
  std::vector<std::shared_ptr<ManifestEntry>> zombies_;
  // Host restore cache (lazy mode): LRU by chunk key, bounded by bytes.
  std::list<ChunkKey> cache_lru_;
  std::unordered_map<ChunkKey, std::pair<std::list<ChunkKey>::iterator, uint32_t>,
                     ChunkKeyHash>
      cache_;
  uint64_t cache_bytes_ = 0;
  // Refcount-0 resident chunks (GC backlog); auto-collected past a bound.
  uint64_t garbage_bytes_ = 0;
  uint64_t garbage_chunks_ = 0;
  // Last snapshot put per key prefix, for adjacent-delta accounting.
  std::map<std::string, std::string> last_put_by_prefix_;
  StoreAccounting accounting_;
  ObsSink* obs_ = nullptr;
  ObsTrack obs_track_;
};

}  // namespace pronghorn

#endif  // PRONGHORN_SRC_STORE_SNAPSHOT_STORE_H_
