// The dedup snapshot store battery: legacy-accounting parity with the flat
// store, chunk refcounts with reclaim at the last reference, lazy-vs-eager
// byte identity, pin/zombie semantics, chunk-granular chaos (copy-on-write
// corruption, manifest CRC), the manifest decoder against malformed frames,
// a multi-threaded stress run, orchestrator-level recovery under chunk
// faults, and fleet
// digest bit-identity with the store swapped flat <-> dedup under chaos at
// several thread counts, pinned to absolute digests.

#include "src/store/snapshot_store.h"

#include <array>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/bytes.h"
#include "src/common/crc32.h"
#include "src/common/rng.h"
#include "src/core/request_centric_policy.h"
#include "src/platform/simulate.h"
#include "src/store/fault_injection.h"
#include "src/store/object_store.h"

namespace pronghorn {
namespace {

std::vector<uint8_t> RandomBytes(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<uint8_t> bytes(n);
  for (uint8_t& b : bytes) {
    b = static_cast<uint8_t>(rng.NextUint64());
  }
  return bytes;
}

ObjectBlob Blob(std::vector<uint8_t> payload) {
  const uint64_t logical = payload.size();
  return ObjectBlob(std::move(payload), logical);
}

SnapshotStoreOptions DedupOptions() {
  SnapshotStoreOptions options;
  options.kind = SnapshotStoreOptions::Kind::kDedup;
  options.chunker.chunk_size = 1024;
  return options;
}

Result<ObjectBlob> ReadBack(SnapshotStore& store, std::string_view key) {
  PRONGHORN_ASSIGN_OR_RETURN(std::unique_ptr<SnapshotReader> reader,
                             store.OpenSnapshot(key));
  return reader->ReadAll();
}

// --- Legacy accounting parity ------------------------------------------

// The seven digest-covered accounting fields must be identical whichever
// implementation backs the store, for the same operation sequence.
TEST(SnapshotStoreTest, LegacyAccountingMatchesFlatAdapterExactly) {
  InMemoryObjectStore object_store;
  FlatSnapshotStore flat(object_store);
  DedupSnapshotStore dedup(DedupOptions());

  for (SnapshotStore* store : {static_cast<SnapshotStore*>(&flat),
                               static_cast<SnapshotStore*>(&dedup)}) {
    ASSERT_TRUE(store->PutSnapshot("fn/a", Blob(RandomBytes(5000, 1))).ok());
    ASSERT_TRUE(store->PutSnapshot("fn/b", Blob(RandomBytes(3000, 2))).ok());
    // Replace a; the store subtracts the old logical size first.
    ASSERT_TRUE(store->PutSnapshot("fn/a", Blob(RandomBytes(7000, 3))).ok());
    ASSERT_TRUE(ReadBack(*store, "fn/a").ok());
    ASSERT_TRUE(ReadBack(*store, "fn/b").ok());
    ASSERT_TRUE(store->DeleteSnapshot("fn/b").ok());
    // Error paths must not perturb the books.
    EXPECT_EQ(store->PutSnapshot("", Blob(RandomBytes(10, 4))).status().code(),
              StatusCode::kInvalidArgument);
    EXPECT_EQ(ReadBack(*store, "missing").status().code(), StatusCode::kNotFound);
    EXPECT_EQ(store->DeleteSnapshot("missing").code(), StatusCode::kNotFound);
  }

  const StoreAccounting f = flat.accounting();
  const StoreAccounting d = dedup.accounting();
  EXPECT_EQ(f.logical_bytes_stored, d.logical_bytes_stored);
  EXPECT_EQ(f.peak_logical_bytes, d.peak_logical_bytes);
  EXPECT_EQ(f.network_bytes_uploaded, d.network_bytes_uploaded);
  EXPECT_EQ(f.network_bytes_downloaded, d.network_bytes_downloaded);
  EXPECT_EQ(f.put_count, d.put_count);
  EXPECT_EQ(f.get_count, d.get_count);
  EXPECT_EQ(f.delete_count, d.delete_count);

  EXPECT_EQ(flat.ListSnapshots(""), dedup.ListSnapshots(""));
  EXPECT_EQ(flat.ContainsSnapshot("fn/a"), dedup.ContainsSnapshot("fn/a"));
  EXPECT_EQ(flat.ContainsSnapshot("fn/b"), dedup.ContainsSnapshot("fn/b"));
}

// --- Dedup + physical accounting identities ----------------------------

TEST(SnapshotStoreTest, SharedContentDedupsAndIdentitiesHold) {
  DedupSnapshotStore store(DedupOptions());
  // Two snapshots sharing their first 8 KiB exactly (chunk-aligned).
  auto shared = RandomBytes(8192, 1);
  auto a = shared;
  auto a_tail = RandomBytes(4096, 2);
  a.insert(a.end(), a_tail.begin(), a_tail.end());
  auto b = shared;
  auto b_tail = RandomBytes(4096, 3);
  b.insert(b.end(), b_tail.begin(), b_tail.end());

  auto ref_a = store.PutSnapshot("fn/a", Blob(a));
  auto ref_b = store.PutSnapshot("fn/b", Blob(b));
  ASSERT_TRUE(ref_a.ok());
  ASSERT_TRUE(ref_b.ok());
  EXPECT_EQ(ref_a->chunk_count, 12u);
  EXPECT_EQ(ref_a->unique_bytes_added, 12288u);
  // b added only its unique tail: the 8 shared chunks were dedup hits.
  EXPECT_EQ(ref_b->unique_bytes_added, 4096u);

  const PhysicalAccounting phys = store.accounting().physical;
  EXPECT_EQ(phys.chunks_stored, 16u);  // 12 unique of a + 4 of b.
  EXPECT_EQ(phys.chunk_refs, 24u);     // 12 + 12 manifest references.
  EXPECT_EQ(phys.dedup_hits, 8u);
  EXPECT_EQ(phys.dedup_bytes_saved, 8192u);
  // Flat view counts both snapshots in full.
  EXPECT_EQ(phys.flat_bytes_stored, 24576u);
  // Physical = unique chunk bytes + the two serialized manifests.
  EXPECT_GE(phys.bytes_stored, 16384u);
  EXPECT_LT(phys.bytes_stored, 16384u + 2048u);
  // Identity: flat == unique chunk bytes + dedup savings.
  EXPECT_EQ(phys.flat_bytes_stored, 16384u + phys.dedup_bytes_saved);
  EXPECT_TRUE(store.CheckInvariants().ok()) << store.CheckInvariants().ToString();

  // Both snapshots read back byte-identical.
  auto read_a = ReadBack(store, "fn/a");
  auto read_b = ReadBack(store, "fn/b");
  ASSERT_TRUE(read_a.ok());
  ASSERT_TRUE(read_b.ok());
  EXPECT_EQ(read_a->bytes(), a);
  EXPECT_EQ(read_b->bytes(), b);
}

TEST(SnapshotStoreTest, AdjacentSnapshotsOfOnePrefixCountDeltaSharing) {
  DedupSnapshotStore store(DedupOptions());
  auto v1 = RandomBytes(16384, 1);
  auto v2 = v1;
  // Dirty one aligned chunk; everything else is shared with v1. Adjacent
  // pool snapshots live at distinct keys under one "<function>/" prefix.
  for (size_t i = 4096; i < 5120; ++i) {
    v2[i] ^= 0xff;
  }
  ASSERT_TRUE(store.PutSnapshot("fn/v1", Blob(v1)).ok());
  ASSERT_TRUE(store.PutSnapshot("fn/v2", Blob(v2)).ok());
  const PhysicalAccounting phys = store.accounting().physical;
  EXPECT_EQ(phys.delta_bytes_shared, 15360u);  // 15 of 16 chunks shared.
  EXPECT_TRUE(store.CheckInvariants().ok());
}

// --- Refcounts, GC, and churn ------------------------------------------

TEST(SnapshotStoreTest, DeleteReclaimsExactlyUnreferencedChunks) {
  DedupSnapshotStore store(DedupOptions());
  auto shared = RandomBytes(4096, 1);
  auto a = shared;
  auto a_tail = RandomBytes(2048, 2);
  a.insert(a.end(), a_tail.begin(), a_tail.end());
  ASSERT_TRUE(store.PutSnapshot("fn/a", Blob(a)).ok());
  ASSERT_TRUE(store.PutSnapshot("fn/b", Blob(shared)).ok());
  EXPECT_EQ(store.resident_chunks(), 6u);  // 4 shared + 2 unique to a.

  // The delete itself reclaims a's two unique chunks: their last reference
  // went with a's manifest. No collection pass is involved.
  ASSERT_TRUE(store.DeleteSnapshot("fn/a").ok());
  EXPECT_EQ(store.resident_chunks(), 4u);
  PhysicalAccounting phys = store.accounting().physical;
  EXPECT_EQ(phys.chunks_collected, 2u);
  EXPECT_EQ(phys.bytes_collected, 2048u);
  EXPECT_TRUE(store.CheckInvariants().ok());
  EXPECT_EQ(store.CollectGarbage(), 0u);

  // The surviving snapshot is untouched.
  auto read_b = ReadBack(store, "fn/b");
  ASSERT_TRUE(read_b.ok());
  EXPECT_EQ(read_b->bytes(), shared);
  phys = store.accounting().physical;
  EXPECT_EQ(phys.chunks_collected, 2u);
  EXPECT_EQ(phys.bytes_collected, 2048u);
}

// A re-put of a key refs its new chunks before releasing the old manifest,
// so identical content is a dedup hit, not a reclaim and a fresh store.
TEST(SnapshotStoreTest, SameKeyIdenticalReputIsADedupHit) {
  for (const size_t size : {size_t{700}, size_t{5000}}) {  // One chunk, five.
    DedupSnapshotStore store(DedupOptions());
    const auto payload = RandomBytes(size, 3);
    auto first = store.PutSnapshot("fn/a", Blob(payload));
    ASSERT_TRUE(first.ok());
    EXPECT_EQ(first->unique_bytes_added, size);
    auto again = store.PutSnapshot("fn/a", Blob(payload));
    ASSERT_TRUE(again.ok());
    EXPECT_EQ(again->unique_bytes_added, 0u) << size;
    const PhysicalAccounting phys = store.accounting().physical;
    EXPECT_EQ(phys.dedup_bytes_saved, size);
    EXPECT_EQ(phys.chunks_collected, 0u);
    EXPECT_EQ(phys.delta_bytes_shared, 0u);  // A re-put has no neighbor.
    EXPECT_TRUE(store.CheckInvariants().ok()) << store.CheckInvariants().ToString();
    auto read = ReadBack(store, "fn/a");
    ASSERT_TRUE(read.ok());
    EXPECT_EQ(read->bytes(), payload);
  }
}

// One churn loop over a store whose every mutation is audited. The lazy
// build runs a restore cache smaller than the corpus, so eviction, reclaim
// out of the cache and the working-set path all run.
void ChurnWithInvariants(SnapshotStoreOptions options) {
  DedupSnapshotStore store(options);
  Rng rng(42);
  std::vector<std::string> keys;
  for (int op = 0; op < 400; ++op) {
    const uint64_t draw = rng.UniformUint64(10);
    if (draw < 5 || keys.empty()) {
      const std::string key =
          "fn" + std::to_string(rng.UniformUint64(4)) + "/w" +
          std::to_string(rng.UniformUint64(3));
      ASSERT_TRUE(store
                      .PutSnapshot(key,
                                   Blob(RandomBytes(1 + rng.UniformUint64(20000),
                                                    static_cast<uint64_t>(op))))
                      .ok());
      keys.push_back(key);
    } else if (draw < 7) {
      const std::string& key = keys[rng.UniformUint64(keys.size())];
      if (store.ContainsSnapshot(key)) {
        ASSERT_TRUE(store.DeleteSnapshot(key).ok());
      }
    } else if (draw < 9) {
      const std::string& key = keys[rng.UniformUint64(keys.size())];
      if (store.ContainsSnapshot(key)) {
        ASSERT_TRUE(ReadBack(store, key).ok());
      }
    } else {
      const std::string& key = keys[rng.UniformUint64(keys.size())];
      if (store.ContainsSnapshot(key)) {
        ASSERT_TRUE(store.CorruptChunk(key, rng).ok());
      }
    }
    ASSERT_TRUE(store.CheckInvariants().ok())
        << "op " << op << ": " << store.CheckInvariants().ToString();
  }
  for (const std::string& key : store.ListSnapshots("")) {
    ASSERT_TRUE(store.DeleteSnapshot(key).ok());
  }
  EXPECT_EQ(store.resident_chunks(), 0u);
  EXPECT_EQ(store.accounting().physical.bytes_stored, 0u);
  EXPECT_TRUE(store.CheckInvariants().ok());
}

TEST(SnapshotStoreTest, InvariantsHoldUnderRandomChurn) {
  SnapshotStoreOptions options = DedupOptions();
  options.chunker.cdc = true;
  options.chunker.chunk_size = 512;
  options.chunker.min_size = 128;
  options.chunker.max_size = 2048;
  ChurnWithInvariants(options);
  options.lazy_restore = true;
  options.chunk_cache_bytes = 16 << 10;
  ChurnWithInvariants(options);
}

// --- Lazy restore -------------------------------------------------------

TEST(SnapshotStoreTest, LazyAndEagerRestoresAreByteIdentical) {
  const auto payload = RandomBytes(50000, 7);
  SnapshotStoreOptions eager_options = DedupOptions();
  SnapshotStoreOptions lazy_options = DedupOptions();
  lazy_options.lazy_restore = true;
  DedupSnapshotStore eager(eager_options);
  DedupSnapshotStore lazy(lazy_options);
  ASSERT_TRUE(eager.PutSnapshot("fn/a", Blob(payload)).ok());
  ASSERT_TRUE(lazy.PutSnapshot("fn/a", Blob(payload)).ok());

  // First restore records the working set; later restores prefetch it.
  // Every materialization must equal the original bytes.
  for (int i = 0; i < 3; ++i) {
    auto from_eager = ReadBack(eager, "fn/a");
    auto from_lazy = ReadBack(lazy, "fn/a");
    ASSERT_TRUE(from_eager.ok());
    ASSERT_TRUE(from_lazy.ok());
    EXPECT_EQ(from_eager->bytes(), payload);
    EXPECT_EQ(from_lazy->bytes(), payload);
    EXPECT_EQ(from_lazy->logical_size, payload.size());
  }

  // Eager refetches everything every time; lazy paid once and then hit the
  // host cache.
  const PhysicalAccounting ep = eager.accounting().physical;
  const PhysicalAccounting lp = lazy.accounting().physical;
  EXPECT_EQ(ep.bytes_fetched, 3u * 50000u);
  EXPECT_EQ(lp.bytes_fetched, 50000u);
  EXPECT_GT(lp.cache_hits, 0u);
  EXPECT_TRUE(lazy.CheckInvariants().ok());
}

// The host cache is an LRU by bytes. Three 1 KiB chunks fit; the fourth
// evicts the least recently touched, and a reclaimed chunk leaves it.
TEST(SnapshotStoreTest, LazyCacheEvictsLeastRecentAndDropsReclaimedChunks) {
  SnapshotStoreOptions options = DedupOptions();
  options.lazy_restore = true;
  options.chunk_cache_bytes = 3 * 1024;
  DedupSnapshotStore store(options);
  for (const char* key : {"fn/a", "fn/b", "fn/c", "fn/d"}) {
    ASSERT_TRUE(store.PutSnapshot(key, Blob(RandomBytes(1024, static_cast<uint8_t>(key[3])))).ok());
  }
  const auto read = [&](const char* key) { ASSERT_TRUE(ReadBack(store, key).ok()); };
  read("fn/a");  // Records; cache (most recent first): a.
  read("fn/b");  // b a
  read("fn/c");  // c b a
  read("fn/a");  // Hit: a c b
  read("fn/d");  // Records, evicts b: d a c
  read("fn/b");  // Prefetches b, evicts c, then hits it: b d a
  read("fn/c");  // Prefetches c, evicts a, then hits it: c b d
  PhysicalAccounting phys = store.accounting().physical;
  EXPECT_EQ(phys.chunks_fetched, 6u);
  EXPECT_EQ(phys.chunks_prefetched, 2u);
  EXPECT_EQ(phys.cache_hits, 3u);
  EXPECT_EQ(phys.demand_faults, 0u);

  ASSERT_TRUE(store.DeleteSnapshot("fn/d").ok());  // d leaves: c b
  EXPECT_TRUE(store.CheckInvariants().ok()) << store.CheckInvariants().ToString();
  read("fn/a");  // Prefetches a with room to spare: a c b
  read("fn/b");  // Hit.
  phys = store.accounting().physical;
  EXPECT_EQ(phys.chunks_fetched, 7u);
  EXPECT_EQ(phys.cache_hits, 5u);
  EXPECT_TRUE(store.CheckInvariants().ok()) << store.CheckInvariants().ToString();
}

// --- Pins, readers, zombies --------------------------------------------

TEST(SnapshotStoreTest, OpenReaderKeepsDeletedSnapshotReadable) {
  DedupSnapshotStore store(DedupOptions());
  const auto payload = RandomBytes(10000, 1);
  ASSERT_TRUE(store.PutSnapshot("fn/a", Blob(payload)).ok());
  const uint64_t resident = store.resident_chunks();

  auto reader = store.OpenSnapshot("fn/a");
  ASSERT_TRUE(reader.ok());
  ASSERT_TRUE(store.DeleteSnapshot("fn/a").ok());
  EXPECT_FALSE(store.ContainsSnapshot("fn/a"));

  // The pinned manifest still holds every chunk.
  EXPECT_EQ(store.resident_chunks(), resident);
  auto blob = (*reader)->ReadAll();
  ASSERT_TRUE(blob.ok());
  EXPECT_EQ(blob->bytes(), payload);
  EXPECT_TRUE(store.CheckInvariants().ok());

  // Closing the last reader releases the zombie and reclaims its chunks.
  reader.value().reset();
  EXPECT_EQ(store.resident_chunks(), 0u);
  EXPECT_EQ(store.accounting().physical.chunks_collected, resident);
  EXPECT_TRUE(store.CheckInvariants().ok());
}

// A blob handed out by ReadAll owns its bytes: the single-chunk zero-copy
// path shares the stored buffer, and that share outlives the chunk.
TEST(SnapshotStoreTest, ReturnedBlobOutlivesReclaimedSnapshot) {
  for (const size_t size : {size_t{700}, size_t{5000}}) {  // One chunk, five.
    DedupSnapshotStore store(DedupOptions());
    const auto payload = RandomBytes(size, 5);
    ASSERT_TRUE(store.PutSnapshot("fn/a", Blob(payload)).ok());
    auto blob = ReadBack(store, "fn/a");
    ASSERT_TRUE(blob.ok());
    ASSERT_TRUE(store.DeleteSnapshot("fn/a").ok());
    EXPECT_EQ(store.resident_chunks(), 0u);
    EXPECT_EQ(blob->bytes(), payload) << size;
    EXPECT_EQ(blob->logical_size, size);
  }
}

// Chunk corruption is copy-on-write for readers too: one opened before the
// corruption decoded the old chunk table and keeps reading the original.
TEST(SnapshotStoreTest, ReaderOpenedBeforeCorruptChunkReadsOriginalBytes) {
  for (const size_t size : {size_t{700}, size_t{5000}}) {  // One chunk, five.
    DedupSnapshotStore store(DedupOptions());
    const auto payload = RandomBytes(size, 6);
    ASSERT_TRUE(store.PutSnapshot("fn/a", Blob(payload)).ok());
    auto reader = store.OpenSnapshot("fn/a");
    ASSERT_TRUE(reader.ok());
    Rng rng(17);
    ASSERT_TRUE(store.CorruptChunk("fn/a", rng).ok());
    EXPECT_TRUE(store.CheckInvariants().ok()) << store.CheckInvariants().ToString();

    auto original = (*reader)->ReadAll();
    ASSERT_TRUE(original.ok());
    EXPECT_EQ(original->bytes(), payload) << size;
    auto corrupted = ReadBack(store, "fn/a");
    ASSERT_TRUE(corrupted.ok());
    EXPECT_NE(corrupted->bytes(), payload);

    // The old chunk goes with the last reader that could read it.
    const uint64_t resident = store.resident_chunks();
    reader.value().reset();
    EXPECT_EQ(store.resident_chunks(), resident - 1);
    EXPECT_TRUE(store.CheckInvariants().ok()) << store.CheckInvariants().ToString();
  }
}

TEST(SnapshotStoreTest, ExplicitPinsNestAndGateRelease) {
  DedupSnapshotStore store(DedupOptions());
  ASSERT_TRUE(store.PutSnapshot("fn/a", Blob(RandomBytes(5000, 1))).ok());

  // Pins nest on a live snapshot, and the count is balance-checked.
  EXPECT_EQ(store.Unpin("fn/a").code(), StatusCode::kFailedPrecondition);
  ASSERT_TRUE(store.Pin("fn/a").ok());
  ASSERT_TRUE(store.Pin("fn/a").ok());
  ASSERT_TRUE(store.Unpin("fn/a").ok());
  ASSERT_TRUE(store.Unpin("fn/a").ok());
  EXPECT_EQ(store.Unpin("fn/a").code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(store.Pin("missing").code(), StatusCode::kNotFound);
  EXPECT_EQ(store.Unpin("missing").code(), StatusCode::kNotFound);

  // A pin held at deletion time turns the snapshot into a zombie that GC
  // must not reclaim. (Key-addressed Pin/Unpin only sees live snapshots;
  // zombie pins drain through reader handles.)
  ASSERT_TRUE(store.Pin("fn/a").ok());
  ASSERT_TRUE(store.DeleteSnapshot("fn/a").ok());
  EXPECT_EQ(store.Unpin("fn/a").code(), StatusCode::kNotFound);
  EXPECT_GT(store.resident_chunks(), 0u);
  EXPECT_TRUE(store.CheckInvariants().ok());
}

// --- Chunk-granular chaos ----------------------------------------------

TEST(SnapshotStoreTest, ChunkCorruptionIsCopyOnWrite) {
  DedupSnapshotStore store(DedupOptions());
  const auto payload = RandomBytes(8192, 1);
  // Two keys sharing every chunk.
  ASSERT_TRUE(store.PutSnapshot("fn/a", Blob(payload)).ok());
  ASSERT_TRUE(store.PutSnapshot("fn/b", Blob(payload)).ok());

  Rng rng(99);
  ASSERT_TRUE(store.CorruptChunk("fn/a", rng).ok());

  auto read_a = ReadBack(store, "fn/a");
  auto read_b = ReadBack(store, "fn/b");
  ASSERT_TRUE(read_a.ok());
  ASSERT_TRUE(read_b.ok());
  // The victim sees exactly one flipped bit; the sibling sharing the
  // original chunk is untouched.
  EXPECT_NE(read_a->bytes(), payload);
  EXPECT_EQ(read_b->bytes(), payload);
  size_t diff_bits = 0;
  for (size_t i = 0; i < payload.size(); ++i) {
    diff_bits += static_cast<size_t>(
        __builtin_popcount(read_a->bytes()[i] ^ payload[i]));
  }
  EXPECT_EQ(diff_bits, 1u);
  EXPECT_TRUE(store.CheckInvariants().ok()) << store.CheckInvariants().ToString();
}

TEST(SnapshotStoreTest, ManifestCorruptionFailsOpenWithDataLoss) {
  DedupSnapshotStore store(DedupOptions());
  ASSERT_TRUE(store.PutSnapshot("fn/a", Blob(RandomBytes(4096, 1))).ok());
  Rng rng(7);
  ASSERT_TRUE(store.CorruptManifest("fn/a", rng).ok());
  EXPECT_EQ(store.OpenSnapshot("fn/a").status().code(), StatusCode::kDataLoss);
  // The store itself stays sound; deleting the snapshot reclaims its chunks.
  ASSERT_TRUE(store.DeleteSnapshot("fn/a").ok());
  EXPECT_EQ(store.resident_chunks(), 0u);
  EXPECT_TRUE(store.CheckInvariants().ok());
}

TEST(SnapshotStoreTest, FaultDecoratorInjectsChunkAndManifestFaults) {
  DedupSnapshotStore inner(DedupOptions());
  FaultPlan plan;
  plan.chunk_corruption_rate = 1.0;
  FaultySnapshotStore faulty(inner, plan);
  ASSERT_TRUE(faulty.PutSnapshot("fn/a", Blob(RandomBytes(4096, 1))).ok());
  EXPECT_EQ(faulty.stats().corrupted_chunks, 1u);
  EXPECT_EQ(faulty.stats().corrupted_manifests, 0u);

  FaultPlan manifest_plan;
  manifest_plan.manifest_corruption_rate = 1.0;
  DedupSnapshotStore inner2(DedupOptions());
  FaultySnapshotStore faulty2(inner2, manifest_plan);
  ASSERT_TRUE(faulty2.PutSnapshot("fn/a", Blob(RandomBytes(4096, 1))).ok());
  EXPECT_EQ(faulty2.stats().corrupted_manifests, 1u);
  EXPECT_EQ(faulty2.OpenSnapshot("fn/a").status().code(), StatusCode::kDataLoss);
  EXPECT_TRUE(inner2.CheckInvariants().ok());
}

// --- Manifest decoder ---------------------------------------------------

SnapshotManifest SampleManifest() {
  SnapshotManifest manifest;
  manifest.logical_size = 1 << 20;
  for (uint32_t i = 0; i < 5; ++i) {
    manifest.chunks.push_back(ManifestChunk{ChunkKey{0x1111 * (i + 1), 0x2222 * i}, 1000 + i});
    manifest.encoded_size += 1000 + i;
  }
  manifest.ws_recorded = true;
  manifest.working_set = {0, 2, 4};
  return manifest;
}

// Frames the encoder never writes, but with a valid CRC, so the structural
// checks rather than the checksum must reject them.
std::vector<uint8_t> RawFrame(uint64_t count, uint64_t encoded, uint64_t chunk_size,
                              uint64_t ws_index, bool trailing) {
  ByteWriter writer;
  writer.WriteUint32(0x504d414e);
  writer.WriteUint8(1);
  writer.WriteVarint(4096);  // Logical size.
  writer.WriteVarint(encoded);
  writer.WriteVarint(count);
  writer.WriteUint64(7);  // One chunk row, whatever `count` claims.
  writer.WriteUint64(9);
  writer.WriteVarint(chunk_size);
  writer.WriteUint8(1);
  writer.WriteVarint(1);
  writer.WriteVarint(ws_index);
  if (trailing) {
    writer.WriteUint8(0);
  }
  const uint32_t crc = Crc32(writer.data());
  writer.WriteUint32(crc);
  return writer.TakeData();
}

TEST(SnapshotStoreTest, ManifestRoundTripsThroughItsCodec) {
  const SnapshotManifest manifest = SampleManifest();
  const std::vector<uint8_t> frame = EncodeSnapshotManifest(manifest);
  SnapshotManifest decoded;
  ASSERT_TRUE(DecodeSnapshotManifest(frame, decoded).ok());
  EXPECT_EQ(decoded.logical_size, manifest.logical_size);
  EXPECT_EQ(decoded.encoded_size, manifest.encoded_size);
  ASSERT_EQ(decoded.chunks.size(), manifest.chunks.size());
  for (size_t i = 0; i < manifest.chunks.size(); ++i) {
    EXPECT_EQ(decoded.chunks[i].key, manifest.chunks[i].key);
    EXPECT_EQ(decoded.chunks[i].size, manifest.chunks[i].size);
  }
  EXPECT_TRUE(decoded.ws_recorded);
  EXPECT_EQ(decoded.working_set, manifest.working_set);
  EXPECT_EQ(EncodeSnapshotManifest(decoded), frame);
  // The well-formed raw frame is accepted, so the rejections below are
  // each down to the one field they change.
  EXPECT_TRUE(DecodeSnapshotManifest(RawFrame(1, 100, 100, 0, false), decoded).ok());
}

TEST(SnapshotStoreTest, ManifestDecodeRejectsEveryTruncation) {
  const std::vector<uint8_t> frame = EncodeSnapshotManifest(SampleManifest());
  for (size_t length = 0; length < frame.size(); ++length) {
    // Cut frames, with the CRC recomputed over what is left so that the
    // structure rather than the checksum is what fails.
    std::vector<uint8_t> cut(frame.begin(), frame.begin() + static_cast<ptrdiff_t>(length));
    SnapshotManifest out;
    EXPECT_EQ(DecodeSnapshotManifest(cut, out).code(), StatusCode::kDataLoss) << length;
    if (length < 4) {
      continue;
    }
    cut.resize(length - 4);
    const uint32_t crc = Crc32(cut);
    ByteWriter trailer(std::move(cut));
    trailer.WriteUint32(crc);
    EXPECT_EQ(DecodeSnapshotManifest(trailer.data(), out).code(), StatusCode::kDataLoss)
        << length;
  }
}

TEST(SnapshotStoreTest, ManifestDecodeRejectsInconsistentFrames) {
  SnapshotManifest out;
  // A chunk count the frame cannot hold fails before anything is reserved.
  for (const uint64_t count : {uint64_t{2}, uint64_t{1} << 40, ~uint64_t{0}}) {
    EXPECT_EQ(DecodeSnapshotManifest(RawFrame(count, 100, 100, 0, false), out).code(),
              StatusCode::kDataLoss)
        << count;
  }
  const uint64_t big = uint64_t{UINT32_MAX} + 1;
  EXPECT_EQ(DecodeSnapshotManifest(RawFrame(1, big, big, 0, false), out).code(),
            StatusCode::kDataLoss);
  EXPECT_EQ(DecodeSnapshotManifest(RawFrame(1, 101, 100, 0, false), out).code(),
            StatusCode::kDataLoss);
  EXPECT_EQ(DecodeSnapshotManifest(RawFrame(1, 99, 100, 0, false), out).code(),
            StatusCode::kDataLoss);
  EXPECT_EQ(DecodeSnapshotManifest(RawFrame(1, 100, 100, 1, false), out).code(),
            StatusCode::kDataLoss);
  EXPECT_EQ(DecodeSnapshotManifest(RawFrame(1, 100, 100, 0, true), out).code(),
            StatusCode::kDataLoss);
  // Any single flipped bit fails the CRC.
  const std::vector<uint8_t> frame = EncodeSnapshotManifest(SampleManifest());
  for (size_t bit = 0; bit < frame.size() * 8; bit += 7) {
    std::vector<uint8_t> flipped = frame;
    flipped[bit / 8] ^= static_cast<uint8_t>(1u << (bit % 8));
    EXPECT_EQ(DecodeSnapshotManifest(flipped, out).code(), StatusCode::kDataLoss) << bit;
  }
}

// --- Concurrency ---------------------------------------------------------

// Four threads put, open, read, delete and corrupt overlapping keys of one
// lazy store. Every read returns what some put wrote, bit-exact or (after
// a chunk corruption) one bit off, and the books balance at the end.
TEST(SnapshotStoreTest, ConcurrentOperationsOnOverlappingKeys) {
  SnapshotStoreOptions options = DedupOptions();
  options.chunker.cdc = true;
  options.chunker.chunk_size = 512;
  options.chunker.min_size = 128;
  options.chunker.max_size = 2048;
  options.lazy_restore = true;
  options.chunk_cache_bytes = 32 << 10;
  DedupSnapshotStore store(options);

  // Payload p of every key: shared prefix plus a per-version tail, so
  // versions dedup against each other. The first byte names the version.
  constexpr size_t kVersions = 6;
  std::vector<std::vector<uint8_t>> versions;
  const auto base = RandomBytes(6000, 1);
  for (size_t v = 0; v < kVersions; ++v) {
    auto payload = base;
    payload.resize(300 + v * 1100);  // One chunk up to several.
    const auto tail = RandomBytes(400, 10 + v);
    payload.insert(payload.end(), tail.begin(), tail.end());
    payload[0] = static_cast<uint8_t>(v);
    versions.push_back(std::move(payload));
  }
  const auto bit_distance = [](const std::vector<uint8_t>& a,
                               const std::vector<uint8_t>& b) {
    if (a.size() != b.size()) {
      return size_t{1000};
    }
    size_t bits = 0;
    for (size_t i = 0; i < a.size(); ++i) {
      bits += static_cast<size_t>(__builtin_popcount(a[i] ^ b[i]));
    }
    return bits;
  };

  // Puts and corruptions of one key take its writer lock, so a key is
  // corrupted at most once per put; opens, reads and deletes take no lock
  // and race with them freely.
  struct KeyState {
    std::mutex writer;
    bool corrupted = false;
  };
  constexpr uint64_t kKeys = 6;
  std::array<KeyState, kKeys> key_states;
  const auto key_name = [](uint64_t k) {
    return "fn" + std::to_string(k % 2) + "/w" + std::to_string(k / 2);
  };
  const auto corrupt = [&](uint64_t k, Rng& rng) {
    std::lock_guard<std::mutex> lock(key_states[k].writer);
    if (!key_states[k].corrupted && store.CorruptChunk(key_name(k), rng).ok()) {
      key_states[k].corrupted = true;
    }
  };

  std::atomic<size_t> bad_reads{0};
  std::atomic<size_t> reads{0};
  std::vector<std::thread> threads;
  for (uint64_t t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(100 + t);
      for (int op = 0; op < 600; ++op) {
        const uint64_t k = rng.UniformUint64(kKeys);
        const std::string key = key_name(k);
        const uint64_t draw = rng.UniformUint64(10);
        if (draw < 4) {
          const auto& payload = versions[rng.UniformUint64(kVersions)];
          std::lock_guard<std::mutex> lock(key_states[k].writer);
          if (store.PutSnapshot(key, Blob(payload)).ok()) {
            key_states[k].corrupted = false;
          }
        } else if (draw < 8) {
          auto reader = store.OpenSnapshot(key);
          if (!reader.ok()) {
            continue;  // Not there (never put, or deleted).
          }
          if (draw == 7) {
            // Race a delete or a corruption against the open reader.
            if (rng.Bernoulli(0.5)) {
              (void)store.DeleteSnapshot(key);
            } else {
              corrupt(k, rng);
            }
          }
          auto blob = (*reader)->ReadAll();
          if (!blob.ok() || blob->bytes().empty()) {
            bad_reads += 1;
            continue;
          }
          reads += 1;
          // Pick the version by size: the sizes are all distinct.
          bool matched = false;
          for (const auto& payload : versions) {
            if (payload.size() == blob->bytes().size()) {
              matched = bit_distance(payload, blob->bytes()) <= 1;
            }
          }
          if (!matched) {
            bad_reads += 1;
          }
        } else if (draw == 8) {
          (void)store.DeleteSnapshot(key);
        } else {
          corrupt(k, rng);
        }
      }
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  EXPECT_EQ(bad_reads.load(), 0u);
  EXPECT_GT(reads.load(), 0u);
  EXPECT_TRUE(store.CheckInvariants().ok()) << store.CheckInvariants().ToString();
  for (const std::string& key : store.ListSnapshots("")) {
    ASSERT_TRUE(store.DeleteSnapshot(key).ok());
  }
  EXPECT_EQ(store.resident_chunks(), 0u);
  EXPECT_TRUE(store.CheckInvariants().ok()) << store.CheckInvariants().ToString();
}

// --- Orchestrator recovery under chunk faults ---------------------------

PolicyConfig RecoveryConfig() {
  PolicyConfig config;
  config.beta = 1;
  config.pool_capacity = 12;
  config.max_checkpoint_request = 100;
  return config;
}

// Chunk and manifest corruption must surface as ranked-fallback restores
// and quarantines in a full simulated run — not as hard failures.
TEST(SnapshotStoreTest, OrchestratorRecoversFromChunkFaults) {
  const auto profile = WorkloadRegistry::Default().Find("DynamicHTML");
  ASSERT_TRUE(profile.ok());
  const auto policy = RequestCentricPolicy::Create(RecoveryConfig());
  ASSERT_TRUE(policy.ok());

  SimOptions options;
  options.seed = 11;
  options.worker_slots = 1;
  options.exploring_slots = 1;
  options.eviction.kind = FleetEvictionSpec::Kind::kEveryK;
  options.eviction.k = 1;
  options.store.kind = SnapshotStoreOptions::Kind::kDedup;
  options.faults.chunk_corruption_rate = 0.25;
  options.faults.manifest_corruption_rate = 0.05;

  SimFunctionSpec spec;
  spec.name = (*profile)->name;
  spec.profile = *profile;
  spec.policy = &*policy;
  spec.requests = 500;
  auto report = Simulate(WorkloadRegistry::Default(), SimTopology::kSingle,
                         std::span<const SimFunctionSpec>(&spec, 1), options);
  ASSERT_TRUE(report.ok()) << report.status().ToString();

  // Every request was served despite the at-rest corruption...
  EXPECT_EQ(report->flat().records.size(), 500u);
  // ...because the recovery machinery absorbed it.
  EXPECT_GT(report->faults.restore_failures, 0u);
  EXPECT_GT(report->faults.restore_fallbacks + report->faults.snapshots_quarantined,
            0u);
}

// --- Digest bit-identity across store builds ----------------------------

// The fault flags of a pronghorn_sim run: `--fault-rate 0.1 --fault-corrupt
// 0.02`, plus `--fault-torn 0.05 --fault-outage 1:3 --fault-latency
// 4:6:250` when `full`.
FaultPlan CliFaultPlan(bool full) {
  FaultPlan plan;
  plan.get_failure_rate = 0.1;
  plan.put_failure_rate = 0.1;
  plan.delete_failure_rate = 0.1;
  plan.metadata_failure_rate = 0.1;
  plan.corruption_rate = 0.02;
  if (full) {
    plan.torn_write_rate = 0.05;
    FaultWindow outage;
    outage.kind = FaultWindow::Kind::kOutage;
    outage.start = TimePoint() + Duration::Seconds(1);
    outage.end = TimePoint() + Duration::Seconds(3);
    FaultWindow latency;
    latency.kind = FaultWindow::Kind::kLatency;
    latency.start = TimePoint() + Duration::Seconds(4);
    latency.end = TimePoint() + Duration::Seconds(6);
    latency.extra_latency = Duration::Millis(250);
    plan.windows = {outage, latency};
  }
  return plan;
}

// The digest pronghorn_sim prints for `--fleet <count> --slots 2` (kFleet)
// or `--platform=<count>` (kPlatform) at the default seed and policy with
// `--eviction 4`, so the constants below can be re-derived from the CLI.
uint32_t CliDigest(SimTopology topology, size_t count, uint64_t requests,
                   uint32_t threads, SnapshotStoreOptions::Kind store,
                   const FaultPlan& faults) {
  const auto evaluation = WorkloadRegistry::Default().EvaluationSet();
  std::vector<RequestCentricPolicy> policies;
  policies.reserve(count);  // The specs point into it: no reallocation.
  std::vector<SimFunctionSpec> specs;
  for (size_t i = 0; i < count; ++i) {
    const WorkloadProfile& profile = *evaluation[i % evaluation.size()];
    PolicyConfig config;
    config.beta = 4;
    config.pool_capacity = 12;
    config.max_checkpoint_request = profile.family == RuntimeFamily::kJvm ? 200 : 100;
    auto policy = RequestCentricPolicy::Create(config);
    EXPECT_TRUE(policy.ok());
    policies.push_back(*std::move(policy));
    SimFunctionSpec spec;
    if (topology == SimTopology::kFleet) {
      char name[64];
      std::snprintf(name, sizeof(name), "f%04zu-%s", i, profile.name.c_str());
      spec.name = name;
    } else {
      spec.name = profile.name;
    }
    spec.profile = &profile;
    spec.policy = &policies.back();
    spec.requests = requests;
    specs.push_back(std::move(spec));
  }
  SimOptions options;
  options.seed = 42;
  options.eviction.kind = FleetEvictionSpec::Kind::kEveryK;
  options.eviction.k = 4;
  options.faults = faults;
  options.store.kind = store;
  if (topology == SimTopology::kFleet) {
    options.threads = threads;
    options.worker_slots = 2;
    options.exploring_slots = 1;
  }
  auto report = Simulate(WorkloadRegistry::Default(), topology, specs, options);
  EXPECT_TRUE(report.ok()) << report.status().ToString();
  return report.ok() ? report->Digest() : 0u;
}

// The tentpole contract: a fleet run under chaos produces the same digest
// whichever store build backs it, at any thread count — and that digest is
// pinned to an absolute value, so a drift moving both builds together fails.
TEST(SnapshotStoreTest, FleetDigestsBitIdenticalFlatVsDedupUnderChaos) {
  constexpr SnapshotStoreOptions::Kind kFlat = SnapshotStoreOptions::Kind::kFlat;
  constexpr SnapshotStoreOptions::Kind kDedup = SnapshotStoreOptions::Kind::kDedup;
  for (const SnapshotStoreOptions::Kind kind : {kFlat, kDedup}) {
    const char* label = kind == kFlat ? "flat" : "dedup";
    for (const uint32_t threads : {1u, 8u}) {
      EXPECT_EQ(CliDigest(SimTopology::kFleet, 6, 150, threads, kind, CliFaultPlan(false)),
                0xa277a863u)
          << label << ", threads=" << threads;
      EXPECT_EQ(CliDigest(SimTopology::kFleet, 6, 150, threads, kind, CliFaultPlan(true)),
                0xd274d652u)
          << label << " full faults, threads=" << threads;
    }
    EXPECT_EQ(CliDigest(SimTopology::kPlatform, 4, 400, 0, kind, CliFaultPlan(true)),
              0x10a5938du)
        << label << " platform";
  }

  const auto profile = WorkloadRegistry::Default().Find("DynamicHTML");
  ASSERT_TRUE(profile.ok());
  const auto policy = RequestCentricPolicy::Create(RecoveryConfig());
  ASSERT_TRUE(policy.ok());

  std::vector<SimFunctionSpec> specs;
  for (int f = 0; f < 4; ++f) {
    SimFunctionSpec spec;
    spec.name = "fn" + std::to_string(f);
    spec.profile = *profile;
    spec.policy = &*policy;
    spec.requests = 80;
    specs.push_back(std::move(spec));
  }

  const auto run = [&](uint32_t threads, SnapshotStoreOptions store) {
    SimOptions options;
    options.seed = 21;
    options.threads = threads;
    options.worker_slots = 2;
    options.exploring_slots = 1;
    options.eviction.kind = FleetEvictionSpec::Kind::kEveryK;
    options.eviction.k = 4;
    options.store = store;
    options.faults.get_failure_rate = 0.08;
    options.faults.put_failure_rate = 0.08;
    options.faults.delete_failure_rate = 0.08;
    options.faults.metadata_failure_rate = 0.08;
    options.faults.corruption_rate = 0.02;
    options.faults.torn_write_rate = 0.02;
    auto report =
        Simulate(WorkloadRegistry::Default(), SimTopology::kFleet, specs, options);
    EXPECT_TRUE(report.ok()) << report.status().ToString();
    return report.ok() ? report->Digest() : 0u;
  };

  SnapshotStoreOptions flat;
  SnapshotStoreOptions dedup = DedupOptions();
  SnapshotStoreOptions dedup_lazy_cdc = DedupOptions();
  dedup_lazy_cdc.chunker.cdc = true;
  dedup_lazy_cdc.lazy_restore = true;

  const uint32_t golden = run(1, flat);
  ASSERT_NE(golden, 0u);
  for (const uint32_t threads : {1u, 2u, 8u}) {
    EXPECT_EQ(run(threads, flat), golden) << "flat, threads=" << threads;
    EXPECT_EQ(run(threads, dedup), golden) << "dedup, threads=" << threads;
    EXPECT_EQ(run(threads, dedup_lazy_cdc), golden)
        << "dedup+cdc+lazy, threads=" << threads;
  }
}

}  // namespace
}  // namespace pronghorn
