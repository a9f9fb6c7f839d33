#include "src/store/snapshot_store.h"

#include <algorithm>
#include <set>
#include <span>
#include <utility>

#include "src/common/bytes.h"
#include "src/common/crc32.h"

namespace pronghorn {

namespace {

constexpr uint32_t kManifestMagic = 0x504d414e;  // "NAMP"
constexpr uint8_t kManifestVersion = 1;
// Refcount-0 chunks are reclaimed opportunistically once the backlog passes
// this bound, so long fleet runs stay memory-bounded between explicit GCs.
constexpr uint64_t kAutoCollectBytes = 64ull << 20;

// The prefix under which adjacent pool snapshots share content: everything
// up to and including the last '/' ("snapshots/<function>/").
std::string_view KeyPrefix(std::string_view key) {
  const size_t slash = key.rfind('/');
  return slash == std::string_view::npos ? std::string_view{} : key.substr(0, slash + 1);
}

}  // namespace

// --- SnapshotStore defaults --------------------------------------------------

Status SnapshotStore::CorruptChunk(std::string_view key, Rng& rng) {
  (void)key;
  (void)rng;
  return UnimplementedError("store has no chunk granularity");
}

Status SnapshotStore::CorruptManifest(std::string_view key, Rng& rng) {
  (void)key;
  (void)rng;
  return UnimplementedError("store has no manifests");
}

void SnapshotStore::set_obs(ObsSink* obs, ObsTrack track) {
  (void)obs;
  (void)track;
}

// --- FlatSnapshotStore -------------------------------------------------------

namespace {

// Reader over an already-fetched flat blob: the inner Get happened at open
// time (one inner operation per OpenSnapshot).
class FlatReader final : public SnapshotReader {
 public:
  FlatReader(SnapshotRef ref, ObjectBlob blob)
      : ref_(std::move(ref)), blob_(std::move(blob)) {}

  const SnapshotRef& ref() const override { return ref_; }
  Result<ObjectBlob> ReadAll() override { return blob_; }

 private:
  SnapshotRef ref_;
  ObjectBlob blob_;  // Shares the stored buffer; no payload copy.
};

}  // namespace

Result<SnapshotRef> FlatSnapshotStore::PutSnapshot(std::string_view key,
                                                   ObjectBlob blob) {
  SnapshotRef ref;
  ref.key = std::string(key);
  ref.logical_size = blob.logical_size;
  ref.encoded_size = blob.bytes().size();
  ref.chunk_count = blob.bytes().empty() ? 0 : 1;
  ref.unique_bytes_added = ref.encoded_size;
  PRONGHORN_RETURN_IF_ERROR(inner_.Put(key, std::move(blob)));
  return ref;
}

Result<std::unique_ptr<SnapshotReader>> FlatSnapshotStore::OpenSnapshot(
    std::string_view key) {
  PRONGHORN_ASSIGN_OR_RETURN(ObjectBlob blob, inner_.Get(key));
  SnapshotRef ref;
  ref.key = std::string(key);
  ref.logical_size = blob.logical_size;
  ref.encoded_size = blob.bytes().size();
  ref.chunk_count = blob.bytes().empty() ? 0 : 1;
  return std::unique_ptr<SnapshotReader>(
      new FlatReader(std::move(ref), std::move(blob)));
}

Status FlatSnapshotStore::DeleteSnapshot(std::string_view key) {
  return inner_.Delete(key);
}

bool FlatSnapshotStore::ContainsSnapshot(std::string_view key) const {
  return inner_.Contains(key);
}

std::vector<std::string> FlatSnapshotStore::ListSnapshots(
    std::string_view prefix) const {
  return inner_.ListKeys(prefix);
}

// --- DedupSnapshotStore ------------------------------------------------------

class DedupSnapshotStore::Reader final : public SnapshotReader {
 public:
  Reader(DedupSnapshotStore* store, std::shared_ptr<ManifestEntry> manifest,
         SnapshotRef ref, std::vector<ChunkKey> chunks, std::vector<uint32_t> sizes,
         std::string key)
      : store_(store),
        manifest_(std::move(manifest)),
        ref_(std::move(ref)),
        chunks_(std::move(chunks)),
        sizes_(std::move(sizes)),
        key_(std::move(key)) {}

  ~Reader() override { store_->CloseReader(manifest_); }

  const SnapshotRef& ref() const override { return ref_; }

  Result<ObjectBlob> ReadAll() override {
    std::lock_guard<std::mutex> lock(store_->mutex_);
    return store_->ReadAllLocked(manifest_, chunks_, sizes_, key_);
  }

 private:
  DedupSnapshotStore* store_;
  std::shared_ptr<ManifestEntry> manifest_;
  SnapshotRef ref_;
  std::vector<ChunkKey> chunks_;
  std::vector<uint32_t> sizes_;
  std::string key_;
};

DedupSnapshotStore::DedupSnapshotStore(SnapshotStoreOptions options, SimClock* clock)
    : options_(std::move(options)), clock_(clock) {}

void DedupSnapshotStore::set_obs(ObsSink* obs, ObsTrack track) {
  obs_ = obs;
  obs_track_ = track;
}

std::shared_ptr<DedupSnapshotStore::ManifestEntry> DedupSnapshotStore::FindLocked(
    std::string_view key) const {
  const auto it = manifests_.find(key);
  return it == manifests_.end() ? nullptr : it->second;
}

void DedupSnapshotStore::SerializeManifestLocked(ManifestEntry& manifest) {
  ByteWriter writer;
  writer.Reserve(manifest.chunks.size() * 20 + 64);
  writer.WriteUint32(kManifestMagic);
  writer.WriteUint8(kManifestVersion);
  writer.WriteVarint(manifest.logical_size);
  writer.WriteVarint(manifest.encoded_size);
  writer.WriteVarint(manifest.chunks.size());
  for (size_t i = 0; i < manifest.chunks.size(); ++i) {
    writer.WriteUint64(manifest.chunks[i].hi);
    writer.WriteUint64(manifest.chunks[i].lo);
    writer.WriteVarint(manifest.sizes[i]);
  }
  // REAP working set: the chunk indexes the first restore transferred,
  // persisted into the snapshot's metadata so later restores prefetch them.
  writer.WriteUint8(manifest.ws_recorded ? 1 : 0);
  writer.WriteVarint(manifest.working_set.size());
  for (const uint32_t index : manifest.working_set) {
    writer.WriteVarint(index);
  }
  const uint32_t crc = Crc32(writer.data());
  writer.WriteUint32(crc);
  manifest.serialized = writer.TakeData();
}

Status DedupSnapshotStore::ParseManifestLocked(const ManifestEntry& manifest,
                                               std::vector<ChunkKey>& chunks,
                                               std::vector<uint32_t>& sizes) const {
  const std::span<const uint8_t> bytes(manifest.serialized);
  if (bytes.size() < 4) {
    return DataLossError("snapshot manifest truncated");
  }
  const std::span<const uint8_t> body = bytes.first(bytes.size() - 4);
  ByteReader crc_reader(bytes.subspan(bytes.size() - 4));
  PRONGHORN_ASSIGN_OR_RETURN(const uint32_t stored_crc, crc_reader.ReadUint32());
  if (Crc32(body) != stored_crc) {
    return DataLossError("snapshot manifest CRC mismatch");
  }
  ByteReader reader(body);
  PRONGHORN_ASSIGN_OR_RETURN(const uint32_t magic, reader.ReadUint32());
  if (magic != kManifestMagic) {
    return DataLossError("bad snapshot manifest magic");
  }
  PRONGHORN_ASSIGN_OR_RETURN(const uint8_t version, reader.ReadUint8());
  if (version != kManifestVersion) {
    return DataLossError("unsupported snapshot manifest version");
  }
  PRONGHORN_ASSIGN_OR_RETURN(uint64_t logical, reader.ReadVarint());
  PRONGHORN_ASSIGN_OR_RETURN(uint64_t encoded, reader.ReadVarint());
  (void)logical;
  (void)encoded;
  PRONGHORN_ASSIGN_OR_RETURN(const uint64_t count, reader.ReadVarint());
  chunks.clear();
  sizes.clear();
  chunks.reserve(count);
  sizes.reserve(count);
  for (uint64_t i = 0; i < count; ++i) {
    ChunkKey key;
    PRONGHORN_ASSIGN_OR_RETURN(key.hi, reader.ReadUint64());
    PRONGHORN_ASSIGN_OR_RETURN(key.lo, reader.ReadUint64());
    PRONGHORN_ASSIGN_OR_RETURN(const uint64_t size, reader.ReadVarint());
    chunks.push_back(key);
    sizes.push_back(static_cast<uint32_t>(size));
  }
  return OkStatus();
}

uint64_t DedupSnapshotStore::RefChunkLocked(const ChunkKey& key,
                                            std::span<const uint8_t> bytes) {
  auto it = chunks_.find(key);
  if (it != chunks_.end()) {
    if (it->second.refs == 0) {
      // Resurrected from the GC backlog before collection reclaimed it.
      garbage_bytes_ -= it->second.bytes.size();
      garbage_chunks_ -= 1;
    }
    it->second.refs += 1;
    return 0;
  }
  ChunkEntry entry;
  entry.bytes.assign(bytes.begin(), bytes.end());
  entry.refs = 1;
  chunks_.emplace(key, std::move(entry));
  accounting_.physical.bytes_stored += bytes.size();
  accounting_.physical.chunks_stored += 1;
  return bytes.size();
}

void DedupSnapshotStore::ReleaseManifestLocked(ManifestEntry& manifest) {
  for (const ChunkKey& key : manifest.chunks) {
    auto it = chunks_.find(key);
    if (it == chunks_.end() || it->second.refs == 0) {
      continue;  // CheckInvariants() surfaces ledger damage; never underflow.
    }
    it->second.refs -= 1;
    if (it->second.refs == 0) {
      garbage_bytes_ += it->second.bytes.size();
      garbage_chunks_ += 1;
    }
  }
  accounting_.physical.chunk_refs -= manifest.chunks.size();
  accounting_.physical.bytes_stored -= manifest.serialized.size();
  manifest.chunks.clear();
  manifest.sizes.clear();
  manifest.serialized.clear();
  if (garbage_bytes_ > kAutoCollectBytes) {
    (void)CollectLocked();
  }
}

uint64_t DedupSnapshotStore::CollectLocked() {
  uint64_t collected = 0;
  for (auto it = chunks_.begin(); it != chunks_.end();) {
    if (it->second.refs != 0) {
      ++it;
      continue;
    }
    const uint64_t size = it->second.bytes.size();
    accounting_.physical.bytes_stored -= size;
    accounting_.physical.chunks_stored -= 1;
    accounting_.physical.chunks_collected += 1;
    accounting_.physical.bytes_collected += size;
    it = chunks_.erase(it);
    collected += 1;
  }
  garbage_bytes_ = 0;
  garbage_chunks_ = 0;
  return collected;
}

void DedupSnapshotStore::TouchCacheLocked(const ChunkKey& key, uint32_t size) {
  auto it = cache_.find(key);
  if (it != cache_.end()) {
    cache_lru_.splice(cache_lru_.begin(), cache_lru_, it->second.first);
    return;
  }
  cache_lru_.push_front(key);
  cache_.emplace(key, std::make_pair(cache_lru_.begin(), size));
  cache_bytes_ += size;
  while (cache_bytes_ > options_.chunk_cache_bytes && cache_lru_.size() > 1) {
    const ChunkKey victim = cache_lru_.back();
    cache_lru_.pop_back();
    const auto victim_it = cache_.find(victim);
    cache_bytes_ -= victim_it->second.second;
    cache_.erase(victim_it);
  }
}

bool DedupSnapshotStore::CachedLocked(const ChunkKey& key) const {
  return cache_.find(key) != cache_.end();
}

void DedupSnapshotStore::CloseReader(const std::shared_ptr<ManifestEntry>& manifest) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (manifest->pins > 0) {
    manifest->pins -= 1;
  }
  if (manifest->pins == 0 && manifest->zombie) {
    ReleaseManifestLocked(*manifest);
    std::erase(zombies_, manifest);
  }
}

Result<ObjectBlob> DedupSnapshotStore::ReadAllLocked(
    const std::shared_ptr<ManifestEntry>& manifest,
    const std::vector<ChunkKey>& chunks, const std::vector<uint32_t>& sizes,
    const std::string& key) {
  PhysicalAccounting& phys = accounting_.physical;
  const uint64_t fetched_before = phys.bytes_fetched;
  const bool lazy = options_.lazy_restore;
  const bool recording = lazy && !manifest->ws_recorded;

  // REAP prefetch: the recorded working set is transferred up front (one
  // batched fetch), so a warm later restore pays only for what the first
  // restore actually touched.
  if (lazy && manifest->ws_recorded) {
    for (const uint32_t index : manifest->working_set) {
      if (index >= chunks.size() || CachedLocked(chunks[index])) {
        continue;
      }
      phys.chunks_fetched += 1;
      phys.chunks_prefetched += 1;
      phys.bytes_fetched += sizes[index];
      TouchCacheLocked(chunks[index], sizes[index]);
    }
  }

  std::vector<uint8_t> assembled;
  std::vector<uint32_t> transferred;
  uint64_t total = 0;
  for (const uint32_t size : sizes) {
    total += size;
  }
  assembled.reserve(total);
  for (size_t i = 0; i < chunks.size(); ++i) {
    const auto it = chunks_.find(chunks[i]);
    if (it == chunks_.end()) {
      return DataLossError("snapshot chunk missing from index");
    }
    if (!lazy) {
      phys.chunks_fetched += 1;
      phys.bytes_fetched += it->second.bytes.size();
    } else if (CachedLocked(chunks[i])) {
      phys.cache_hits += 1;
      TouchCacheLocked(chunks[i], sizes[i]);
    } else {
      phys.chunks_fetched += 1;
      phys.bytes_fetched += it->second.bytes.size();
      TouchCacheLocked(chunks[i], sizes[i]);
      if (recording) {
        transferred.push_back(static_cast<uint32_t>(i));
      } else {
        phys.demand_faults += 1;
      }
    }
    assembled.insert(assembled.end(), it->second.bytes.begin(),
                     it->second.bytes.end());
  }

  if (recording) {
    // First restore: persist the transferred set into the snapshot's
    // metadata so later restores prefetch exactly this set.
    manifest->working_set = std::move(transferred);
    manifest->ws_recorded = true;
    phys.bytes_stored -= manifest->serialized.size();
    SerializeManifestLocked(*manifest);
    phys.bytes_stored += manifest->serialized.size();
    phys.peak_bytes = std::max(phys.peak_bytes, phys.bytes_stored);
  }

  const uint64_t fetched = phys.bytes_fetched - fetched_before;
  if (obs_ != nullptr) {
    obs_->Counter("store.chunk_fetches", 1);
    obs_->Counter("store.chunk_bytes_fetched", fetched);
    // Span duration is a visualization aid (1us per KiB ~ 1 GiB/s), not
    // simulated time: the store never advances the clock.
    obs_->Span(obs_track_, "chunk_fetch", "store",
               clock_ != nullptr ? clock_->now() : TimePoint(),
               Duration::Micros(static_cast<int64_t>(fetched / 1024)));
    (void)key;
  }
  return ObjectBlob(std::move(assembled), manifest->logical_size);
}

Result<SnapshotRef> DedupSnapshotStore::PutSnapshot(std::string_view key,
                                                    ObjectBlob blob) {
  if (key.empty()) {
    return InvalidArgumentError("object key must be non-empty");
  }
  std::lock_guard<std::mutex> lock(mutex_);
  PhysicalAccounting& phys = accounting_.physical;

  const auto existing = manifests_.find(key);
  const uint64_t old_logical =
      existing == manifests_.end() ? 0 : existing->second->logical_size;
  const uint64_t old_encoded =
      existing == manifests_.end() ? 0 : existing->second->encoded_size;
  // Digest-covered logical arithmetic: byte-for-byte the same rules as
  // InMemoryObjectStore::Put, so flat and dedup runs report identical
  // logical accounting.
  accounting_.logical_bytes_stored -= old_logical;
  accounting_.logical_bytes_stored += blob.logical_size;
  accounting_.peak_logical_bytes =
      std::max(accounting_.peak_logical_bytes, accounting_.logical_bytes_stored);
  accounting_.network_bytes_uploaded += blob.logical_size;
  accounting_.put_count += 1;

  if (existing != manifests_.end()) {
    std::shared_ptr<ManifestEntry> old = existing->second;
    manifests_.erase(existing);
    if (old->pins > 0) {
      old->zombie = true;
      zombies_.push_back(std::move(old));
    } else {
      ReleaseManifestLocked(*old);
    }
  }

  const std::vector<ChunkSpan> spans = SplitChunks(blob.bytes(), options_.chunker);
  auto manifest = std::make_shared<ManifestEntry>();
  manifest->logical_size = blob.logical_size;
  manifest->encoded_size = blob.bytes().size();
  manifest->chunks.reserve(spans.size());
  manifest->sizes.reserve(spans.size());

  // Adjacent-delta attribution: chunks shared with the previous snapshot of
  // this prefix are the delta-encoding savings between pool neighbors.
  std::set<ChunkKey> previous_chunks;
  const std::string prefix(KeyPrefix(key));
  if (const auto last = last_put_by_prefix_.find(prefix);
      last != last_put_by_prefix_.end()) {
    if (const auto prev = FindLocked(last->second); prev != nullptr) {
      previous_chunks.insert(prev->chunks.begin(), prev->chunks.end());
    }
  }

  uint64_t unique_added = 0;
  const std::span<const uint8_t> payload(blob.bytes());
  for (const ChunkSpan& span : spans) {
    manifest->chunks.push_back(span.key);
    manifest->sizes.push_back(span.size);
    const uint64_t stored =
        RefChunkLocked(span.key, payload.subspan(span.offset, span.size));
    if (stored == 0) {
      phys.dedup_hits += 1;
      phys.dedup_bytes_saved += span.size;
      if (previous_chunks.count(span.key) > 0) {
        phys.delta_bytes_shared += span.size;
      }
    } else {
      unique_added += stored;
    }
  }
  phys.chunk_refs += spans.size();
  last_put_by_prefix_[prefix] = std::string(key);

  SerializeManifestLocked(*manifest);
  phys.bytes_stored += manifest->serialized.size();
  phys.peak_bytes = std::max(phys.peak_bytes, phys.bytes_stored);
  phys.flat_bytes_stored -= old_encoded;
  phys.flat_bytes_stored += manifest->encoded_size;
  phys.peak_flat_bytes = std::max(phys.peak_flat_bytes, phys.flat_bytes_stored);

  SnapshotRef ref;
  ref.key = std::string(key);
  ref.logical_size = manifest->logical_size;
  ref.encoded_size = manifest->encoded_size;
  ref.chunk_count = static_cast<uint32_t>(spans.size());
  ref.unique_bytes_added = unique_added;
  manifests_[ref.key] = std::move(manifest);
  return ref;
}

Result<std::unique_ptr<SnapshotReader>> DedupSnapshotStore::OpenSnapshot(
    std::string_view key) {
  std::lock_guard<std::mutex> lock(mutex_);
  const std::shared_ptr<ManifestEntry> manifest = FindLocked(key);
  if (manifest == nullptr) {
    return NotFoundError("no object with key '" + std::string(key) + "'");
  }
  // Digest-covered logical transfer accounting, mirroring the flat Get.
  accounting_.network_bytes_downloaded += manifest->logical_size;
  accounting_.get_count += 1;

  std::vector<ChunkKey> chunks;
  std::vector<uint32_t> sizes;
  PRONGHORN_RETURN_IF_ERROR(ParseManifestLocked(*manifest, chunks, sizes));

  manifest->pins += 1;  // Released by the reader's destructor.
  SnapshotRef ref;
  ref.key = std::string(key);
  ref.logical_size = manifest->logical_size;
  ref.encoded_size = manifest->encoded_size;
  ref.chunk_count = static_cast<uint32_t>(chunks.size());
  return std::unique_ptr<SnapshotReader>(
      new Reader(this, manifest, std::move(ref), std::move(chunks),
                 std::move(sizes), std::string(key)));
}

Status DedupSnapshotStore::DeleteSnapshot(std::string_view key) {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = manifests_.find(key);
  if (it == manifests_.end()) {
    return NotFoundError("no object with key '" + std::string(key) + "'");
  }
  std::shared_ptr<ManifestEntry> manifest = it->second;
  accounting_.logical_bytes_stored -= manifest->logical_size;
  accounting_.delete_count += 1;
  accounting_.physical.flat_bytes_stored -= manifest->encoded_size;
  manifests_.erase(it);
  if (manifest->pins > 0) {
    manifest->zombie = true;
    zombies_.push_back(std::move(manifest));
  } else {
    ReleaseManifestLocked(*manifest);
  }
  return OkStatus();
}

bool DedupSnapshotStore::ContainsSnapshot(std::string_view key) const {
  std::lock_guard<std::mutex> lock(mutex_);
  return manifests_.find(key) != manifests_.end();
}

std::vector<std::string> DedupSnapshotStore::ListSnapshots(
    std::string_view prefix) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::string> keys;
  for (const auto& [key, manifest] : manifests_) {
    if (key.size() >= prefix.size() && key.compare(0, prefix.size(), prefix) == 0) {
      keys.push_back(key);
    }
  }
  return keys;
}

Status DedupSnapshotStore::Pin(std::string_view key) {
  std::lock_guard<std::mutex> lock(mutex_);
  const std::shared_ptr<ManifestEntry> manifest = FindLocked(key);
  if (manifest == nullptr) {
    return NotFoundError("no object with key '" + std::string(key) + "'");
  }
  manifest->pins += 1;
  return OkStatus();
}

Status DedupSnapshotStore::Unpin(std::string_view key) {
  std::lock_guard<std::mutex> lock(mutex_);
  const std::shared_ptr<ManifestEntry> manifest = FindLocked(key);
  if (manifest == nullptr) {
    return NotFoundError("no object with key '" + std::string(key) + "'");
  }
  if (manifest->pins == 0) {
    return FailedPreconditionError("snapshot '" + std::string(key) +
                                   "' is not pinned");
  }
  manifest->pins -= 1;
  return OkStatus();
}

uint64_t DedupSnapshotStore::CollectGarbage() {
  std::lock_guard<std::mutex> lock(mutex_);
  return CollectLocked();
}

StoreAccounting DedupSnapshotStore::accounting() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return accounting_;
}

Status DedupSnapshotStore::CorruptChunk(std::string_view key, Rng& rng) {
  std::lock_guard<std::mutex> lock(mutex_);
  const std::shared_ptr<ManifestEntry> manifest = FindLocked(key);
  if (manifest == nullptr) {
    return NotFoundError("no object with key '" + std::string(key) + "'");
  }
  if (manifest->chunks.empty()) {
    return FailedPreconditionError("snapshot has no chunks to corrupt");
  }
  const size_t index =
      static_cast<size_t>(rng.UniformUint64(manifest->chunks.size()));
  const ChunkKey old_key = manifest->chunks[index];
  const auto it = chunks_.find(old_key);
  if (it == chunks_.end()) {
    return DataLossError("chunk index entry missing");
  }
  // Copy-on-write: the corrupted bytes become a *new* content address, so
  // sibling snapshots sharing the original chunk stay healthy.
  std::vector<uint8_t> corrupted = it->second.bytes;
  if (corrupted.empty()) {
    return FailedPreconditionError("cannot corrupt an empty chunk");
  }
  const uint64_t bit = rng.UniformUint64(corrupted.size() * 8);
  corrupted[bit / 8] ^= static_cast<uint8_t>(1u << (bit % 8));
  const ChunkKey new_key = HashChunk(corrupted);

  if (it->second.refs > 0) {
    it->second.refs -= 1;
    if (it->second.refs == 0) {
      garbage_bytes_ += it->second.bytes.size();
      garbage_chunks_ += 1;
    }
  }
  (void)RefChunkLocked(new_key, corrupted);
  manifest->chunks[index] = new_key;
  accounting_.physical.bytes_stored -= manifest->serialized.size();
  SerializeManifestLocked(*manifest);
  accounting_.physical.bytes_stored += manifest->serialized.size();
  accounting_.physical.peak_bytes =
      std::max(accounting_.physical.peak_bytes, accounting_.physical.bytes_stored);
  return OkStatus();
}

Status DedupSnapshotStore::CorruptManifest(std::string_view key, Rng& rng) {
  std::lock_guard<std::mutex> lock(mutex_);
  const std::shared_ptr<ManifestEntry> manifest = FindLocked(key);
  if (manifest == nullptr) {
    return NotFoundError("no object with key '" + std::string(key) + "'");
  }
  if (manifest->serialized.empty()) {
    return FailedPreconditionError("snapshot manifest is empty");
  }
  // One flipped bit anywhere in the frame; the manifest CRC catches it at
  // the next open, which surfaces as kDataLoss and feeds the quarantine
  // ledger exactly like a corrupt image would.
  const uint64_t bit = rng.UniformUint64(manifest->serialized.size() * 8);
  manifest->serialized[bit / 8] ^= static_cast<uint8_t>(1u << (bit % 8));
  return OkStatus();
}

Status DedupSnapshotStore::CheckInvariants() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::map<ChunkKey, uint64_t> expected;
  uint64_t total_refs = 0;
  uint64_t manifest_bytes = 0;
  const auto fold = [&](const std::shared_ptr<ManifestEntry>& manifest) {
    for (const ChunkKey& key : manifest->chunks) {
      expected[key] += 1;
      total_refs += 1;
    }
    manifest_bytes += manifest->serialized.size();
  };
  for (const auto& [key, manifest] : manifests_) {
    fold(manifest);
  }
  for (const auto& manifest : zombies_) {
    fold(manifest);
  }
  for (const auto& [key, count] : expected) {
    const auto it = chunks_.find(key);
    if (it == chunks_.end()) {
      return InternalError("referenced chunk missing from index");
    }
    if (it->second.refs != count) {
      return InternalError("chunk refcount does not match manifest references");
    }
  }
  uint64_t chunk_bytes = 0;
  uint64_t garbage_chunks = 0;
  for (const auto& [key, entry] : chunks_) {
    chunk_bytes += entry.bytes.size();
    if (entry.refs == 0) {
      garbage_chunks += 1;
    } else if (expected.find(key) == expected.end()) {
      return InternalError("chunk holds references no manifest accounts for");
    }
  }
  if (garbage_chunks != garbage_chunks_) {
    return InternalError("garbage chunk counter out of sync");
  }
  if (accounting_.physical.chunk_refs != total_refs) {
    return InternalError("chunk_refs accounting out of sync");
  }
  if (accounting_.physical.bytes_stored != chunk_bytes + manifest_bytes) {
    return InternalError("physical byte ledger out of sync");
  }
  if (accounting_.physical.chunks_stored != chunks_.size()) {
    return InternalError("chunks_stored accounting out of sync");
  }
  return OkStatus();
}

uint64_t DedupSnapshotStore::resident_chunks() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return chunks_.size();
}

uint64_t DedupSnapshotStore::unreferenced_chunks() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return garbage_chunks_;
}

}  // namespace pronghorn
