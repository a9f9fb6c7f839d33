// SnapshotStore: the chunk-granular snapshot API, and the only blob API the
// checkpoint/restore path talks to:
//
//   PutSnapshot    -> SnapshotRef (content digest + chunk manifest summary)
//   OpenSnapshot   -> lazy chunk reader (pins the snapshot while open)
//   Pin/Unpin      -> keeps a snapshot's chunks resident across deletion
//   DeleteSnapshot -> drops the manifest; chunks no longer referenced are
//                     reclaimed at once (after the last pin, if pinned)
//   CollectGarbage -> kept for interface compatibility; nothing to collect
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
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "src/common/clock.h"
#include "src/common/result.h"
#include "src/common/rng.h"
#include "src/common/small_vector.h"
#include "src/obs/sink.h"
#include "src/store/chunker.h"
#include "src/store/object_store.h"
#include "src/store/striping.h"

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

// One chunk-table row of a dedup snapshot manifest.
struct ManifestChunk {
  ChunkKey key;
  uint32_t size = 0;
};

// The decoded form of a dedup snapshot manifest: sizes, chunk table and the
// REAP working set. Inline storage covers the common small snapshot, so a
// manifest decoded on every open does not touch the heap.
struct SnapshotManifest {
  uint64_t logical_size = 0;
  uint64_t encoded_size = 0;          // Sum of the chunk sizes.
  SmallVector<ManifestChunk, 4> chunks;
  bool ws_recorded = false;
  SmallVector<uint32_t, 4> working_set;  // Chunk indexes transferred at first open.
};

// Wire format: magic 0x504d414e, version, varint logical/encoded sizes, a
// varint chunk count and (hi, lo, varint size) per chunk, the working-set
// flag and varint indexes, then a CRC32 of everything before it.
std::vector<uint8_t> EncodeSnapshotManifest(const SnapshotManifest& manifest);
// Decodes a frame from EncodeSnapshotManifest into `out`. Every malformed
// frame is kDataLoss, never a crash or an allocation out of proportion to
// the frame: a bad CRC, magic or version; truncation; a chunk count the
// remaining bytes cannot hold; a chunk size above UINT32_MAX; sizes that do
// not sum to the encoded size; a working-set index outside the chunk table;
// trailing bytes.
Status DecodeSnapshotManifest(std::span<const uint8_t> frame, SnapshotManifest& out);

class SnapshotStore {
 public:
  virtual ~SnapshotStore() = default;

  // Stores `blob` under `key`, replacing any existing snapshot.
  virtual Result<SnapshotRef> PutSnapshot(std::string_view key, ObjectBlob blob) = 0;
  // Opens a pinned reader. kNotFound for unknown keys; kDataLoss when the
  // manifest fails its integrity check.
  virtual Result<std::unique_ptr<SnapshotReader>> OpenSnapshot(std::string_view key) = 0;
  // Drops the snapshot's manifest. Each of its chunks loses a reference, and
  // a chunk whose last reference goes is reclaimed before this returns. A
  // snapshot pinned at deletion (open reader or explicit pin) keeps its
  // references until the last pin is released.
  virtual Status DeleteSnapshot(std::string_view key) = 0;
  virtual bool ContainsSnapshot(std::string_view key) const = 0;
  // Keys in lexicographic order, optionally filtered by prefix.
  virtual std::vector<std::string> ListSnapshots(std::string_view prefix = "") const = 0;

  // Explicit pins, independent of reader lifetimes: a pinned snapshot keeps
  // its chunks resident across deletion. Pins nest.
  virtual Status Pin(std::string_view key) = 0;
  virtual Status Unpin(std::string_view key) = 0;
  // Returns how many chunks were reclaimed. Both implementations reclaim at
  // the last reference, so there is never a backlog and this returns 0; it
  // stays for callers and decorators that still forward it.
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
  uint64_t CollectGarbage() override { return 0; }
  StoreAccounting accounting() const override;

  // Chaos hooks. CorruptChunk rewrites one uniformly-drawn chunk of `key`'s
  // manifest through copy-on-write (siblings sharing the original chunk are
  // untouched, and so are readers already open on `key`); CorruptManifest
  // flips one bit of the serialized manifest so the next open fails its CRC.
  Status CorruptChunk(std::string_view key, Rng& rng) override;
  Status CorruptManifest(std::string_view key, Rng& rng) override;

  void set_obs(ObsSink* obs, ObsTrack track) override;

  // Audit for tests: every manifest reference resolves, refcounts match the
  // references exactly (so no resident chunk has refcount 0), the physical
  // byte ledger equals the resident bytes, and the restore cache's books
  // match its list. Returns the first violation found.
  Status CheckInvariants() const;

  // Test introspection.
  uint64_t resident_chunks() const;

 private:
  // A resident chunk. `bytes` holds exactly the chunk: a single-chunk put
  // adopts the caller's buffer, and a single-chunk read hands it back.
  // The LRU links thread the lazy-restore host cache through the index
  // itself (entries are node-allocated, so their addresses are stable).
  struct ChunkEntry {
    std::shared_ptr<const std::vector<uint8_t>> bytes;
    uint64_t refs = 0;
    ChunkEntry* lru_prev = nullptr;
    ChunkEntry* lru_next = nullptr;
    bool cached = false;
  };
  struct ManifestEntry {
    SnapshotManifest manifest;         // Authoritative refcount ledger.
    std::vector<uint8_t> serialized;   // CRC-framed; the read path's input.
    // Chunks replaced by CorruptChunk while pinned: the open readers still
    // read them, so their references last until the last pin goes.
    std::vector<ChunkKey> retained;
    uint64_t pins = 0;
    bool zombie = false;  // Deleted while pinned; released at last unpin.
  };

  class Reader;

  // ChunkKey is itself a 128-bit content digest, so its high word is already
  // a high-quality hash — no re-mixing needed. Every iteration over the
  // index computes order-independent totals, so the unordered iteration
  // order is unobservable.
  struct ChunkKeyHash {
    size_t operator()(const ChunkKey& key) const noexcept {
      return static_cast<size_t>(key.hi);
    }
  };
  using ChunkIndex = std::unordered_map<ChunkKey, ChunkEntry, ChunkKeyHash>;
  template <typename V>
  using StringMap =
      std::unordered_map<std::string, V, TransparentStringHash, std::equal_to<>>;

  // All Locked helpers require mutex_ held.
  ManifestEntry* FindLocked(std::string_view key) const;
  // Drops one reference; the chunk is reclaimed (and leaves the restore
  // cache) when it was the last.
  void UnrefChunkLocked(ChunkIndex::iterator it);
  void UnrefChunkLocked(const ChunkKey& key);
  void ReleaseManifestLocked(ManifestEntry& entry);
  // Detaches a replaced or deleted manifest: a zombie while pinned,
  // released otherwise.
  void RetireLocked(std::shared_ptr<ManifestEntry> entry);
  void UnpinLocked(const std::shared_ptr<ManifestEntry>& entry);
  // Lazy-restore host cache: moves `entry` to the most-recent end, inserting
  // it (and evicting from the least-recent end past the budget) if absent.
  void TouchCacheLocked(ChunkEntry& entry);
  void UnlinkCacheLocked(ChunkEntry& entry);
  Result<ObjectBlob> ReadAllLocked(ManifestEntry& entry, const SnapshotManifest& parsed);

  mutable std::mutex mutex_;
  SnapshotStoreOptions options_;
  SimClock* clock_;
  ChunkIndex chunks_;
  StringMap<std::shared_ptr<ManifestEntry>> manifests_;
  // Deleted-while-pinned manifests awaiting their last unpin.
  std::vector<std::shared_ptr<ManifestEntry>> zombies_;
  // Host restore cache (lazy mode): an LRU list through ChunkEntry, head is
  // most recent, bounded by bytes.
  ChunkEntry* lru_head_ = nullptr;
  ChunkEntry* lru_tail_ = nullptr;
  uint64_t cache_chunks_ = 0;
  uint64_t cache_bytes_ = 0;
  // Last snapshot put per key prefix, for adjacent-delta accounting.
  StringMap<std::string> last_put_by_prefix_;
  StoreAccounting accounting_;
  ObsSink* obs_ = nullptr;
  ObsTrack obs_track_;
};

}  // namespace pronghorn

#endif  // PRONGHORN_SRC_STORE_SNAPSHOT_STORE_H_
