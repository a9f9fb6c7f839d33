#include "src/store/snapshot_store.h"

#include <algorithm>
#include <span>
#include <utility>

#include "src/common/bytes.h"
#include "src/common/crc32.h"

namespace pronghorn {

namespace {

constexpr uint32_t kManifestMagic = 0x504d414e;  // "NAMP"
constexpr uint8_t kManifestVersion = 1;
// Smallest encoding of one chunk-table row: two fixed 64-bit words and a
// one-byte varint size.
constexpr size_t kMinChunkRowBytes = 17;

// The prefix under which adjacent pool snapshots share content: everything
// up to and including the last '/' ("snapshots/<function>/").
std::string_view KeyPrefix(std::string_view key) {
  const size_t slash = key.rfind('/');
  return slash == std::string_view::npos ? std::string_view{} : key.substr(0, slash + 1);
}

// Decodes a CRC-checked manifest body. A read past its end comes back as
// the reader's kOutOfRange; DecodeSnapshotManifest reports it as kDataLoss.
Status DecodeManifestBody(std::span<const uint8_t> body, SnapshotManifest& out) {
  ByteReader reader(body);
  PRONGHORN_ASSIGN_OR_RETURN(const uint32_t magic, reader.ReadUint32());
  if (magic != kManifestMagic) {
    return DataLossError("bad snapshot manifest magic");
  }
  PRONGHORN_ASSIGN_OR_RETURN(const uint8_t version, reader.ReadUint8());
  if (version != kManifestVersion) {
    return DataLossError("unsupported snapshot manifest version");
  }
  PRONGHORN_ASSIGN_OR_RETURN(out.logical_size, reader.ReadVarint());
  PRONGHORN_ASSIGN_OR_RETURN(out.encoded_size, reader.ReadVarint());
  PRONGHORN_ASSIGN_OR_RETURN(const uint64_t count, reader.ReadVarint());
  // Bound every count by the bytes left before reserving for it.
  if (count > reader.remaining() / kMinChunkRowBytes) {
    return DataLossError("snapshot manifest chunk count exceeds its frame");
  }
  out.chunks.clear();
  out.chunks.reserve(count);
  uint64_t total = 0;
  for (uint64_t i = 0; i < count; ++i) {
    ManifestChunk& row = out.chunks.emplace_back();
    PRONGHORN_ASSIGN_OR_RETURN(row.key.hi, reader.ReadUint64());
    PRONGHORN_ASSIGN_OR_RETURN(row.key.lo, reader.ReadUint64());
    PRONGHORN_ASSIGN_OR_RETURN(const uint64_t size, reader.ReadVarint());
    if (size > UINT32_MAX) {
      return DataLossError("snapshot manifest chunk size exceeds 32 bits");
    }
    if (size > out.encoded_size - total) {
      return DataLossError("snapshot manifest chunk sizes exceed its size");
    }
    row.size = static_cast<uint32_t>(size);
    total += size;
  }
  if (total != out.encoded_size) {
    return DataLossError("snapshot manifest chunk sizes do not sum to its size");
  }
  PRONGHORN_ASSIGN_OR_RETURN(const uint8_t recorded, reader.ReadUint8());
  if (recorded > 1) {
    return DataLossError("bad snapshot manifest working-set flag");
  }
  out.ws_recorded = recorded == 1;
  PRONGHORN_ASSIGN_OR_RETURN(const uint64_t ws_count, reader.ReadVarint());
  if (ws_count > reader.remaining()) {
    return DataLossError("snapshot manifest working set exceeds its frame");
  }
  out.working_set.clear();
  out.working_set.reserve(ws_count);
  for (uint64_t i = 0; i < ws_count; ++i) {
    PRONGHORN_ASSIGN_OR_RETURN(const uint64_t index, reader.ReadVarint());
    if (index >= count) {
      return DataLossError("snapshot manifest working-set index out of range");
    }
    out.working_set.push_back(static_cast<uint32_t>(index));
  }
  if (!reader.AtEnd()) {
    return DataLossError("trailing bytes after snapshot manifest");
  }
  return OkStatus();
}

}  // namespace

// --- Manifest codec ----------------------------------------------------------

std::vector<uint8_t> EncodeSnapshotManifest(const SnapshotManifest& manifest) {
  ByteWriter writer;
  writer.Reserve(manifest.chunks.size() * 20 + manifest.working_set.size() * 2 + 40);
  writer.WriteUint32(kManifestMagic);
  writer.WriteUint8(kManifestVersion);
  writer.WriteVarint(manifest.logical_size);
  writer.WriteVarint(manifest.encoded_size);
  writer.WriteVarint(manifest.chunks.size());
  for (const ManifestChunk& row : manifest.chunks) {
    writer.WriteUint64(row.key.hi);
    writer.WriteUint64(row.key.lo);
    writer.WriteVarint(row.size);
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
  return writer.TakeData();
}

Status DecodeSnapshotManifest(std::span<const uint8_t> frame, SnapshotManifest& out) {
  if (frame.size() < 4) {
    return DataLossError("snapshot manifest truncated");
  }
  const std::span<const uint8_t> body = frame.first(frame.size() - 4);
  ByteReader crc_reader(frame.subspan(frame.size() - 4));
  PRONGHORN_ASSIGN_OR_RETURN(const uint32_t stored_crc, crc_reader.ReadUint32());
  if (Crc32(body) != stored_crc) {
    return DataLossError("snapshot manifest CRC mismatch");
  }
  const Status status = DecodeManifestBody(body, out);
  if (!status.ok() && status.code() != StatusCode::kDataLoss) {
    // A read past the end of the body: a truncated frame.
    return DataLossError("snapshot manifest truncated: " + status.message());
  }
  return status;
}

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
  Reader(DedupSnapshotStore* store, std::shared_ptr<ManifestEntry> entry,
         SnapshotRef ref, SnapshotManifest parsed)
      : store_(store),
        entry_(std::move(entry)),
        ref_(std::move(ref)),
        parsed_(std::move(parsed)) {}

  ~Reader() override {
    std::lock_guard<std::mutex> lock(store_->mutex_);
    store_->UnpinLocked(entry_);
  }

  const SnapshotRef& ref() const override { return ref_; }

  Result<ObjectBlob> ReadAll() override {
    std::lock_guard<std::mutex> lock(store_->mutex_);
    return store_->ReadAllLocked(*entry_, parsed_);
  }

 private:
  DedupSnapshotStore* store_;
  std::shared_ptr<ManifestEntry> entry_;  // Pinned until destruction.
  SnapshotRef ref_;
  SnapshotManifest parsed_;  // Decoded from the manifest frame at open.
};

DedupSnapshotStore::DedupSnapshotStore(SnapshotStoreOptions options, SimClock* clock)
    : options_(std::move(options)), clock_(clock) {}

void DedupSnapshotStore::set_obs(ObsSink* obs, ObsTrack track) {
  obs_ = obs;
  obs_track_ = track;
}

DedupSnapshotStore::ManifestEntry* DedupSnapshotStore::FindLocked(
    std::string_view key) const {
  const auto it = manifests_.find(key);
  return it == manifests_.end() ? nullptr : it->second.get();
}

void DedupSnapshotStore::UnrefChunkLocked(ChunkIndex::iterator it) {
  if (it == chunks_.end() || it->second.refs == 0) {
    return;  // CheckInvariants() surfaces ledger damage; never underflow.
  }
  ChunkEntry& chunk = it->second;
  chunk.refs -= 1;
  if (chunk.refs > 0) {
    return;
  }
  // Last reference: reclaim now. Readers that already hold the bytes keep
  // them through their own share of the buffer.
  if (chunk.cached) {
    UnlinkCacheLocked(chunk);
  }
  const uint64_t size = chunk.bytes->size();
  PhysicalAccounting& phys = accounting_.physical;
  phys.bytes_stored -= size;
  phys.chunks_stored -= 1;
  phys.chunks_collected += 1;
  phys.bytes_collected += size;
  chunks_.erase(it);
}

void DedupSnapshotStore::UnrefChunkLocked(const ChunkKey& key) {
  UnrefChunkLocked(chunks_.find(key));
}

void DedupSnapshotStore::ReleaseManifestLocked(ManifestEntry& entry) {
  for (const ManifestChunk& row : entry.manifest.chunks) {
    UnrefChunkLocked(row.key);
  }
  for (const ChunkKey& key : entry.retained) {
    UnrefChunkLocked(key);
  }
  accounting_.physical.chunk_refs -= entry.manifest.chunks.size() + entry.retained.size();
  accounting_.physical.bytes_stored -= entry.serialized.size();
  entry.manifest.chunks.clear();
  entry.retained.clear();
  entry.serialized.clear();
}

void DedupSnapshotStore::RetireLocked(std::shared_ptr<ManifestEntry> entry) {
  if (entry->pins > 0) {
    entry->zombie = true;
    zombies_.push_back(std::move(entry));
  } else {
    ReleaseManifestLocked(*entry);
  }
}

void DedupSnapshotStore::UnpinLocked(const std::shared_ptr<ManifestEntry>& entry) {
  if (entry->pins > 0) {
    entry->pins -= 1;
  }
  if (entry->pins > 0) {
    return;
  }
  if (entry->zombie) {
    ReleaseManifestLocked(*entry);
    std::erase(zombies_, entry);
    return;
  }
  for (const ChunkKey& key : entry->retained) {
    UnrefChunkLocked(key);
  }
  accounting_.physical.chunk_refs -= entry->retained.size();
  entry->retained.clear();
}

void DedupSnapshotStore::UnlinkCacheLocked(ChunkEntry& chunk) {
  if (chunk.lru_prev != nullptr) {
    chunk.lru_prev->lru_next = chunk.lru_next;
  } else {
    lru_head_ = chunk.lru_next;
  }
  if (chunk.lru_next != nullptr) {
    chunk.lru_next->lru_prev = chunk.lru_prev;
  } else {
    lru_tail_ = chunk.lru_prev;
  }
  chunk.lru_prev = nullptr;
  chunk.lru_next = nullptr;
  chunk.cached = false;
  cache_chunks_ -= 1;
  cache_bytes_ -= chunk.bytes->size();
}

void DedupSnapshotStore::TouchCacheLocked(ChunkEntry& chunk) {
  if (lru_head_ == &chunk) {
    return;
  }
  if (chunk.cached) {
    UnlinkCacheLocked(chunk);  // Relinked at the head below.
  }
  chunk.lru_next = lru_head_;
  if (lru_head_ != nullptr) {
    lru_head_->lru_prev = &chunk;
  } else {
    lru_tail_ = &chunk;
  }
  lru_head_ = &chunk;
  chunk.cached = true;
  cache_chunks_ += 1;
  cache_bytes_ += chunk.bytes->size();
  // A move to the head leaves the totals as they were, within budget, so
  // only an insertion evicts.
  while (cache_bytes_ > options_.chunk_cache_bytes && cache_chunks_ > 1) {
    UnlinkCacheLocked(*lru_tail_);
  }
}

Result<ObjectBlob> DedupSnapshotStore::ReadAllLocked(ManifestEntry& entry,
                                                     const SnapshotManifest& parsed) {
  // One index probe per chunk: resolve them all before touching any books.
  const size_t count = parsed.chunks.size();
  SmallVector<ChunkEntry*, 4> resident;
  resident.reserve(count);
  for (const ManifestChunk& row : parsed.chunks) {
    const auto it = chunks_.find(row.key);
    if (it == chunks_.end()) {
      return DataLossError("snapshot chunk missing from index");
    }
    resident.push_back(&it->second);
  }

  PhysicalAccounting& phys = accounting_.physical;
  const uint64_t fetched_before = phys.bytes_fetched;
  const bool lazy = options_.lazy_restore;
  const bool recording = lazy && !entry.manifest.ws_recorded;

  // REAP prefetch: the recorded working set is transferred up front (one
  // batched fetch), so a warm later restore pays only for what the first
  // restore actually touched.
  if (lazy && entry.manifest.ws_recorded) {
    for (const uint32_t index : entry.manifest.working_set) {
      if (index >= count || resident[index]->cached) {
        continue;
      }
      phys.chunks_fetched += 1;
      phys.chunks_prefetched += 1;
      phys.bytes_fetched += resident[index]->bytes->size();
      TouchCacheLocked(*resident[index]);
    }
  }

  SmallVector<uint32_t, 4> transferred;
  for (size_t i = 0; i < count; ++i) {
    ChunkEntry& chunk = *resident[i];
    if (!lazy) {
      phys.chunks_fetched += 1;
      phys.bytes_fetched += chunk.bytes->size();
    } else if (chunk.cached) {
      phys.cache_hits += 1;
      TouchCacheLocked(chunk);
    } else {
      phys.chunks_fetched += 1;
      phys.bytes_fetched += chunk.bytes->size();
      TouchCacheLocked(chunk);
      if (recording) {
        transferred.push_back(static_cast<uint32_t>(i));
      } else {
        phys.demand_faults += 1;
      }
    }
  }

  ObjectBlob blob;
  blob.logical_size = entry.manifest.logical_size;
  if (count == 1) {
    blob.data = resident[0]->bytes;  // The stored buffer itself; no copy.
  } else {
    std::vector<uint8_t> assembled;
    assembled.reserve(parsed.encoded_size);
    for (const ChunkEntry* chunk : resident) {
      assembled.insert(assembled.end(), chunk->bytes->begin(), chunk->bytes->end());
    }
    blob.data = std::make_shared<const std::vector<uint8_t>>(std::move(assembled));
  }

  if (recording) {
    // First restore: persist the transferred set into the snapshot's
    // metadata so later restores prefetch exactly this set.
    entry.manifest.working_set = std::move(transferred);
    entry.manifest.ws_recorded = true;
    phys.bytes_stored -= entry.serialized.size();
    entry.serialized = EncodeSnapshotManifest(entry.manifest);
    phys.bytes_stored += entry.serialized.size();
    phys.peak_bytes = std::max(phys.peak_bytes, phys.bytes_stored);
  }

  if (obs_ != nullptr) {
    const uint64_t fetched = phys.bytes_fetched - fetched_before;
    obs_->Counter("store.chunk_fetches", 1);
    obs_->Counter("store.chunk_bytes_fetched", fetched);
    // Span duration is a visualization aid (1us per KiB ~ 1 GiB/s), not
    // simulated time: the store never advances the clock.
    obs_->Span(obs_track_, "chunk_fetch", "store",
               clock_ != nullptr ? clock_->now() : TimePoint(),
               Duration::Micros(static_cast<int64_t>(fetched / 1024)));
  }
  return blob;
}

Result<SnapshotRef> DedupSnapshotStore::PutSnapshot(std::string_view key,
                                                    ObjectBlob blob) {
  if (key.empty()) {
    return InvalidArgumentError("object key must be non-empty");
  }
  // Chunking, hashing and the manifest frame depend only on the bytes, so
  // they are built before the lock is taken.
  const std::span<const uint8_t> payload(blob.bytes());
  const std::vector<ChunkSpan> spans = SplitChunks(payload, options_.chunker);
  auto entry = std::make_shared<ManifestEntry>();
  SnapshotManifest& manifest = entry->manifest;
  manifest.logical_size = blob.logical_size;
  manifest.encoded_size = payload.size();
  manifest.chunks.reserve(spans.size());
  for (const ChunkSpan& span : spans) {
    manifest.chunks.push_back(ManifestChunk{span.key, span.size});
  }
  entry->serialized = EncodeSnapshotManifest(manifest);

  std::lock_guard<std::mutex> lock(mutex_);
  PhysicalAccounting& phys = accounting_.physical;
  const auto existing = manifests_.find(key);
  const ManifestEntry* replaced =
      existing == manifests_.end() ? nullptr : existing->second.get();
  const uint64_t old_logical = replaced == nullptr ? 0 : replaced->manifest.logical_size;
  const uint64_t old_encoded = replaced == nullptr ? 0 : replaced->manifest.encoded_size;
  // Digest-covered logical arithmetic: byte-for-byte the same rules as
  // InMemoryObjectStore::Put, so flat and dedup runs report identical
  // logical accounting.
  accounting_.logical_bytes_stored -= old_logical;
  accounting_.logical_bytes_stored += blob.logical_size;
  accounting_.peak_logical_bytes =
      std::max(accounting_.peak_logical_bytes, accounting_.logical_bytes_stored);
  accounting_.network_bytes_uploaded += blob.logical_size;
  accounting_.put_count += 1;

  // Adjacent-delta attribution: chunks shared with the previous snapshot of
  // this prefix are the delta-encoding savings between pool neighbors. A
  // re-put of the same key has no neighbor (its old manifest is replaced).
  const std::string_view prefix = KeyPrefix(key);
  const auto last = last_put_by_prefix_.find(prefix);
  const ManifestEntry* previous =
      last == last_put_by_prefix_.end() ? nullptr : FindLocked(last->second);
  if (previous == replaced) {
    previous = nullptr;
  }
  // The neighbor's keys, sorted on the first dedup hit that needs them.
  SmallVector<ChunkKey, 4> previous_keys;
  const auto shared_with_previous = [&](const ChunkKey& chunk_key) {
    if (previous_keys.empty()) {
      for (const ManifestChunk& row : previous->manifest.chunks) {
        previous_keys.push_back(row.key);
      }
      std::sort(previous_keys.begin(), previous_keys.end());
    }
    return std::binary_search(previous_keys.begin(), previous_keys.end(), chunk_key);
  };

  // Reference the new chunks before the replaced manifest releases its own,
  // so a re-put of identical content dedups against itself.
  uint64_t unique_added = 0;
  for (const ChunkSpan& span : spans) {
    const auto [it, inserted] = chunks_.try_emplace(span.key);
    ChunkEntry& chunk = it->second;
    chunk.refs += 1;
    if (inserted) {
      // A one-chunk snapshot adopts the caller's buffer whole.
      chunk.bytes = spans.size() == 1
                        ? blob.data
                        : std::make_shared<const std::vector<uint8_t>>(
                              payload.begin() + static_cast<ptrdiff_t>(span.offset),
                              payload.begin() +
                                  static_cast<ptrdiff_t>(span.offset + span.size));
      phys.bytes_stored += span.size;
      phys.chunks_stored += 1;
      unique_added += span.size;
    } else {
      phys.dedup_hits += 1;
      phys.dedup_bytes_saved += span.size;
      if (previous != nullptr && shared_with_previous(span.key)) {
        phys.delta_bytes_shared += span.size;
      }
    }
  }
  phys.chunk_refs += spans.size();
  phys.bytes_stored += entry->serialized.size();

  if (existing != manifests_.end()) {
    std::shared_ptr<ManifestEntry> old = std::move(existing->second);
    existing->second = std::move(entry);
    RetireLocked(std::move(old));
  } else {
    manifests_.emplace(std::string(key), std::move(entry));
  }
  if (last != last_put_by_prefix_.end()) {
    last->second.assign(key);
  } else {
    last_put_by_prefix_.emplace(std::string(prefix), std::string(key));
  }

  phys.peak_bytes = std::max(phys.peak_bytes, phys.bytes_stored);
  phys.flat_bytes_stored -= old_encoded;
  phys.flat_bytes_stored += payload.size();
  phys.peak_flat_bytes = std::max(phys.peak_flat_bytes, phys.flat_bytes_stored);

  SnapshotRef ref;
  ref.key = std::string(key);
  ref.logical_size = blob.logical_size;
  ref.encoded_size = payload.size();
  ref.chunk_count = static_cast<uint32_t>(spans.size());
  ref.unique_bytes_added = unique_added;
  return ref;
}

Result<std::unique_ptr<SnapshotReader>> DedupSnapshotStore::OpenSnapshot(
    std::string_view key) {
  std::shared_ptr<ManifestEntry> entry;
  SnapshotManifest parsed;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = manifests_.find(key);
    if (it == manifests_.end()) {
      return NotFoundError("no object with key '" + std::string(key) + "'");
    }
    // Digest-covered logical transfer accounting, mirroring the flat Get.
    accounting_.network_bytes_downloaded += it->second->manifest.logical_size;
    accounting_.get_count += 1;
    // Every open checks the frame's CRC and decodes it, so a corrupted
    // manifest surfaces here as kDataLoss.
    PRONGHORN_RETURN_IF_ERROR(DecodeSnapshotManifest(it->second->serialized, parsed));
    entry = it->second;
    entry->pins += 1;  // Released by the reader's destructor.
  }
  SnapshotRef ref;
  ref.key = std::string(key);
  ref.logical_size = parsed.logical_size;
  ref.encoded_size = parsed.encoded_size;
  ref.chunk_count = static_cast<uint32_t>(parsed.chunks.size());
  return std::unique_ptr<SnapshotReader>(
      new Reader(this, std::move(entry), std::move(ref), std::move(parsed)));
}

Status DedupSnapshotStore::DeleteSnapshot(std::string_view key) {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = manifests_.find(key);
  if (it == manifests_.end()) {
    return NotFoundError("no object with key '" + std::string(key) + "'");
  }
  std::shared_ptr<ManifestEntry> entry = std::move(it->second);
  manifests_.erase(it);
  accounting_.logical_bytes_stored -= entry->manifest.logical_size;
  accounting_.delete_count += 1;
  accounting_.physical.flat_bytes_stored -= entry->manifest.encoded_size;
  RetireLocked(std::move(entry));
  return OkStatus();
}

bool DedupSnapshotStore::ContainsSnapshot(std::string_view key) const {
  std::lock_guard<std::mutex> lock(mutex_);
  return manifests_.find(key) != manifests_.end();
}

std::vector<std::string> DedupSnapshotStore::ListSnapshots(
    std::string_view prefix) const {
  std::vector<std::string> keys;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (const auto& [key, entry] : manifests_) {
      if (key.starts_with(prefix)) {
        keys.push_back(key);
      }
    }
  }
  std::sort(keys.begin(), keys.end());
  return keys;
}

Status DedupSnapshotStore::Pin(std::string_view key) {
  std::lock_guard<std::mutex> lock(mutex_);
  ManifestEntry* entry = FindLocked(key);
  if (entry == nullptr) {
    return NotFoundError("no object with key '" + std::string(key) + "'");
  }
  entry->pins += 1;
  return OkStatus();
}

Status DedupSnapshotStore::Unpin(std::string_view key) {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = manifests_.find(key);
  if (it == manifests_.end()) {
    return NotFoundError("no object with key '" + std::string(key) + "'");
  }
  if (it->second->pins == 0) {
    return FailedPreconditionError("snapshot '" + std::string(key) +
                                   "' is not pinned");
  }
  UnpinLocked(it->second);
  return OkStatus();
}

StoreAccounting DedupSnapshotStore::accounting() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return accounting_;
}

Status DedupSnapshotStore::CorruptChunk(std::string_view key, Rng& rng) {
  std::lock_guard<std::mutex> lock(mutex_);
  ManifestEntry* entry = FindLocked(key);
  if (entry == nullptr) {
    return NotFoundError("no object with key '" + std::string(key) + "'");
  }
  SnapshotManifest& manifest = entry->manifest;
  if (manifest.chunks.empty()) {
    return FailedPreconditionError("snapshot has no chunks to corrupt");
  }
  const size_t index = static_cast<size_t>(rng.UniformUint64(manifest.chunks.size()));
  const ChunkKey old_key = manifest.chunks[index].key;
  const auto old_it = chunks_.find(old_key);
  if (old_it == chunks_.end()) {
    return DataLossError("chunk index entry missing");
  }
  // Copy-on-write: the corrupted bytes become a *new* content address, so
  // sibling snapshots sharing the original chunk stay healthy.
  std::vector<uint8_t> corrupted = *old_it->second.bytes;
  if (corrupted.empty()) {
    return FailedPreconditionError("cannot corrupt an empty chunk");
  }
  const uint64_t bit = rng.UniformUint64(corrupted.size() * 8);
  corrupted[bit / 8] ^= static_cast<uint8_t>(1u << (bit % 8));
  const ChunkKey new_key = HashChunk(corrupted);

  PhysicalAccounting& phys = accounting_.physical;
  if (entry->pins > 0) {
    // Open readers decoded the old chunk table; keep its chunk until the
    // last of them closes.
    entry->retained.push_back(old_key);
    phys.chunk_refs += 1;
  } else {
    UnrefChunkLocked(old_it);
  }
  const auto [new_it, inserted] = chunks_.try_emplace(new_key);
  new_it->second.refs += 1;
  if (inserted) {
    phys.bytes_stored += corrupted.size();
    phys.chunks_stored += 1;
    new_it->second.bytes =
        std::make_shared<const std::vector<uint8_t>>(std::move(corrupted));
  }
  manifest.chunks[index].key = new_key;
  phys.bytes_stored -= entry->serialized.size();
  entry->serialized = EncodeSnapshotManifest(manifest);
  phys.bytes_stored += entry->serialized.size();
  phys.peak_bytes = std::max(phys.peak_bytes, phys.bytes_stored);
  return OkStatus();
}

Status DedupSnapshotStore::CorruptManifest(std::string_view key, Rng& rng) {
  std::lock_guard<std::mutex> lock(mutex_);
  ManifestEntry* entry = FindLocked(key);
  if (entry == nullptr) {
    return NotFoundError("no object with key '" + std::string(key) + "'");
  }
  if (entry->serialized.empty()) {
    return FailedPreconditionError("snapshot manifest is empty");
  }
  // One flipped bit anywhere in the frame; the manifest CRC catches it at
  // the next open, which surfaces as kDataLoss and feeds the quarantine
  // ledger exactly like a corrupt image would.
  const uint64_t bit = rng.UniformUint64(entry->serialized.size() * 8);
  entry->serialized[bit / 8] ^= static_cast<uint8_t>(1u << (bit % 8));
  return OkStatus();
}

Status DedupSnapshotStore::CheckInvariants() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::unordered_map<ChunkKey, uint64_t, ChunkKeyHash> expected;
  uint64_t total_refs = 0;
  uint64_t manifest_bytes = 0;
  const auto fold = [&](const ManifestEntry& entry) {
    for (const ManifestChunk& row : entry.manifest.chunks) {
      expected[row.key] += 1;
    }
    for (const ChunkKey& key : entry.retained) {
      expected[key] += 1;
    }
    total_refs += entry.manifest.chunks.size() + entry.retained.size();
    manifest_bytes += entry.serialized.size();
  };
  for (const auto& [key, entry] : manifests_) {
    fold(*entry);
  }
  for (const auto& entry : zombies_) {
    fold(*entry);
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
  uint64_t cached_chunks = 0;
  for (const auto& [key, chunk] : chunks_) {
    chunk_bytes += chunk.bytes->size();
    cached_chunks += chunk.cached ? 1 : 0;
    if (chunk.refs == 0) {
      return InternalError("resident chunk has no references");
    }
    if (expected.find(key) == expected.end()) {
      return InternalError("chunk holds references no manifest accounts for");
    }
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
  uint64_t listed_chunks = 0;
  uint64_t listed_bytes = 0;
  const ChunkEntry* prev = nullptr;
  for (const ChunkEntry* chunk = lru_head_; chunk != nullptr; chunk = chunk->lru_next) {
    if (!chunk->cached || chunk->lru_prev != prev) {
      return InternalError("restore cache list is malformed");
    }
    listed_chunks += 1;
    listed_bytes += chunk->bytes->size();
    prev = chunk;
  }
  if (prev != lru_tail_ || listed_chunks != cached_chunks ||
      listed_chunks != cache_chunks_ || listed_bytes != cache_bytes_) {
    return InternalError("restore cache books out of sync");
  }
  return OkStatus();
}

uint64_t DedupSnapshotStore::resident_chunks() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return chunks_.size();
}

}  // namespace pronghorn
