// Fixed-capacity snapshot pool with the paper's top-p% + random-gamma%
// retention policy (Algorithm 1, part 4).

#ifndef PRONGHORN_SRC_CORE_SNAPSHOT_POOL_H_
#define PRONGHORN_SRC_CORE_SNAPSHOT_POOL_H_

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "src/checkpoint/snapshot.h"
#include "src/common/bytes.h"
#include "src/common/result.h"
#include "src/common/rng.h"

namespace pronghorn {

// Pool-resident record of one snapshot: the metadata the policy reasons
// about plus the object-store key holding the image.
struct PoolEntry {
  SnapshotMetadata metadata;
  std::string object_key;

  bool operator==(const PoolEntry&) const = default;
};

class SnapshotPool {
 public:
  SnapshotPool() = default;

  // Adds an entry; rejects duplicate snapshot ids.
  Status Add(PoolEntry entry);

  Result<const PoolEntry*> Find(SnapshotId id) const;
  bool Contains(SnapshotId id) const;

  // Removes the entry with `id` if present; returns whether one was removed
  // (quarantine/GC path — unlike Prune, this may empty the pool).
  bool Remove(SnapshotId id);

  std::span<const PoolEntry> entries() const { return entries_; }
  size_t size() const { return entries_.size(); }
  bool empty() const { return entries_.empty(); }

  // Retention pass (OnCapacityReached): keeps the ceil(p% * size) entries
  // with the highest `weights` plus gamma% chosen uniformly at random from
  // the remainder, removes the rest, and returns the removed entries so the
  // caller can delete their images from the object store. `weights` must be
  // parallel to entries(). Always retains at least one entry.
  std::vector<PoolEntry> Prune(std::span<const double> weights, double top_percent,
                               double random_percent, Rng& rng);

  // Appends the pool section: a varint entry count, then per entry the id,
  // function, request number, logical size, creation time and object key.
  // The section is memoized: the first call after a mutation encodes it,
  // later calls splice the cached bytes. Add, Remove and Prune mark the memo
  // stale; a pool built by Deserialize starts without one.
  void Serialize(ByteWriter& writer) const;
  // Bytes Serialize appends (builds the memo when stale).
  size_t SerializedSize() const;
  static Result<SnapshotPool> Deserialize(ByteReader& reader);

  // Whether Serialize would splice a memoized section (for tests).
  bool section_memoized() const { return section_fresh_; }

  // Identity is the entries only; the memo is derived state.
  bool operator==(const SnapshotPool& other) const { return entries_ == other.entries_; }

 private:
  // The memoized section, re-encoded first when stale.
  const std::vector<uint8_t>& Section() const;

  std::vector<PoolEntry> entries_;
  // Copies of the pool share the memo buffer (a refcount bump, not a deep
  // copy). A rebuild reuses the buffer in place only while this pool is its
  // sole holder and otherwise starts a new one, so a shared buffer never
  // changes under a copy. Like WeightVector's caches, the memo is filled by
  // const calls: one pool object is used by one thread at a time, while
  // copies may live on other threads (the refcount is atomic).
  mutable std::shared_ptr<std::vector<uint8_t>> section_;
  mutable bool section_fresh_ = false;
};

}  // namespace pronghorn

#endif  // PRONGHORN_SRC_CORE_SNAPSHOT_POOL_H_
