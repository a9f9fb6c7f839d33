// Object store (MinIO stand-in) for snapshot images, plus the blob and
// accounting types every snapshot store shares.
//
// InMemoryObjectStore is the whole-blob key/value store under
// FlatSnapshotStore (src/store/snapshot_store.h); nothing else talks to it,
// so it is a concrete class rather than an interface. The store
// distinguishes *physical* bytes (the encoded image actually held)
// from *logical* bytes (the modeled CRIU image size, dominated by heap pages
// that the simulator does not materialize). All storage and network
// accounting — the basis of the paper's Table 5 — is in logical bytes.

#ifndef PRONGHORN_SRC_STORE_OBJECT_STORE_H_
#define PRONGHORN_SRC_STORE_OBJECT_STORE_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "src/common/result.h"
#include "src/store/striping.h"

namespace pronghorn {

// A stored blob plus its modeled size. The payload is held behind a shared
// immutable buffer so stores, retries, and readers pass multi-MB snapshot
// images around by reference count instead of deep copy; anyone needing to
// mutate the bytes (the fault-injection corruption decorator) builds a fresh
// private buffer first.
struct ObjectBlob {
  ObjectBlob() = default;
  ObjectBlob(std::vector<uint8_t> payload, uint64_t logical)
      : data(std::make_shared<const std::vector<uint8_t>>(std::move(payload))),
        logical_size(logical) {}

  // The payload; an empty buffer when default-constructed.
  const std::vector<uint8_t>& bytes() const;

  std::shared_ptr<const std::vector<uint8_t>> data;
  uint64_t logical_size = 0;
};

// Chunk-granular physical accounting (SnapshotStore layer). Tracks the bytes
// a store actually holds and moves, as opposed to the modeled logical (CRIU
// image) bytes of StoreAccounting proper. Deliberately EXCLUDED from report
// digests: SerializeStoreAccounting writes only the seven logical fields, so
// flat and dedup stores produce bit-identical digests while differing here.
struct PhysicalAccounting {
  uint64_t bytes_stored = 0;        // Resident unique chunk + manifest bytes.
  uint64_t peak_bytes = 0;
  uint64_t flat_bytes_stored = 0;   // What a non-deduplicating store would hold.
  uint64_t peak_flat_bytes = 0;
  uint64_t chunks_stored = 0;       // Resident unique chunks.
  uint64_t chunk_refs = 0;          // Live manifest->chunk references.
  uint64_t dedup_hits = 0;          // Put chunks that were already resident.
  uint64_t dedup_bytes_saved = 0;   // Bytes not stored thanks to dedup.
  uint64_t delta_bytes_shared = 0;  // Saved bytes shared with the immediately
                                    // preceding snapshot of the same prefix.
  uint64_t chunks_fetched = 0;      // Physical chunk transfers to restores.
  uint64_t bytes_fetched = 0;
  uint64_t chunks_prefetched = 0;   // Lazy restore: recorded-working-set fetches.
  uint64_t demand_faults = 0;       // Lazy restore: chunks outside the set.
  uint64_t cache_hits = 0;          // Lazy restore: host-cache hits (no fetch).
  uint64_t chunks_collected = 0;    // GC-reclaimed chunks.
  uint64_t bytes_collected = 0;

  // Flat-vs-physical footprint ratio at the high-water mark; 1.0 for a store
  // that never deduplicated anything (or stored nothing).
  double DedupRatio() const {
    if (peak_bytes == 0) {
      return 1.0;
    }
    return static_cast<double>(peak_flat_bytes) / static_cast<double>(peak_bytes);
  }
};

// Cumulative transfer/storage accounting.
struct StoreAccounting {
  uint64_t logical_bytes_stored = 0;    // Current logical footprint.
  uint64_t peak_logical_bytes = 0;      // High-water mark (Table 5 "max storage").
  uint64_t network_bytes_uploaded = 0;  // Cumulative Put traffic.
  uint64_t network_bytes_downloaded = 0;// Cumulative Get traffic.
  uint64_t put_count = 0;
  uint64_t get_count = 0;
  uint64_t delete_count = 0;
  // Digest-excluded physical view (see PhysicalAccounting above).
  PhysicalAccounting physical;
};

// Thread-safe in-memory object store. Keys are lock-striped across
// kStoreStripes independently-locked hash maps and accounting is kept in
// serial-exact atomics (see src/store/striping.h), so concurrent operations
// on different keys never contend on a mutex or a cache line. Observable
// behavior is identical to the historical single-mutex std::map version:
// ListKeys still returns lexicographic order, and any serial operation
// sequence yields a bit-identical StoreAccounting.
class InMemoryObjectStore {
 public:
  InMemoryObjectStore() = default;

  // Stores `blob` under `key`, replacing any existing object.
  Status Put(std::string_view key, ObjectBlob blob);
  // Fetches the object; the payload buffer is shared, not copied.
  Result<ObjectBlob> Get(std::string_view key);
  Status Delete(std::string_view key);
  bool Contains(std::string_view key) const;
  // Keys in lexicographic order, optionally filtered by prefix.
  std::vector<std::string> ListKeys(std::string_view prefix = "") const;
  StoreAccounting accounting() const;

 private:
  struct alignas(kCacheLineBytes) Stripe {
    mutable std::mutex mutex;
    std::unordered_map<std::string, ObjectBlob, TransparentStringHash,
                       std::equal_to<>>
        objects;
  };

  // Serial-exact atomic mirror of StoreAccounting (flat store: the physical
  // view coincides with the encoded payload, so flat == physical here).
  struct AtomicAccounting {
    std::atomic<uint64_t> logical_bytes_stored{0};
    std::atomic<uint64_t> peak_logical_bytes{0};
    std::atomic<uint64_t> network_bytes_uploaded{0};
    std::atomic<uint64_t> network_bytes_downloaded{0};
    std::atomic<uint64_t> put_count{0};
    std::atomic<uint64_t> get_count{0};
    std::atomic<uint64_t> delete_count{0};
    std::atomic<uint64_t> physical_bytes_stored{0};
    std::atomic<uint64_t> physical_peak_bytes{0};
    std::atomic<uint64_t> chunks_fetched{0};
    std::atomic<uint64_t> bytes_fetched{0};
  };

  std::array<Stripe, kStoreStripes> stripes_;
  AtomicAccounting accounting_;
};

}  // namespace pronghorn

#endif  // PRONGHORN_SRC_STORE_OBJECT_STORE_H_
