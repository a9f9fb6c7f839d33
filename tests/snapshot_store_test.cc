// The dedup snapshot store battery: legacy-accounting parity with the flat
// store, chunk refcount/GC invariants, lazy-vs-eager byte identity,
// pin/zombie semantics, chunk-granular chaos (copy-on-write corruption,
// manifest CRC), orchestrator-level recovery under chunk faults, and fleet
// digest bit-identity with the store swapped flat <-> dedup under chaos at
// several thread counts, pinned to absolute digests.

#include "src/store/snapshot_store.h"

#include <cstdint>
#include <cstdio>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

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

TEST(SnapshotStoreTest, GcCollectsExactlyUnreferencedChunks) {
  DedupSnapshotStore store(DedupOptions());
  auto shared = RandomBytes(4096, 1);
  auto a = shared;
  auto a_tail = RandomBytes(2048, 2);
  a.insert(a.end(), a_tail.begin(), a_tail.end());
  ASSERT_TRUE(store.PutSnapshot("fn/a", Blob(a)).ok());
  ASSERT_TRUE(store.PutSnapshot("fn/b", Blob(shared)).ok());
  EXPECT_EQ(store.resident_chunks(), 6u);  // 4 shared + 2 unique to a.

  ASSERT_TRUE(store.DeleteSnapshot("fn/a").ok());
  // Deletion defers reclaim: a's unique chunks are garbage but resident.
  EXPECT_EQ(store.resident_chunks(), 6u);
  EXPECT_EQ(store.unreferenced_chunks(), 2u);
  EXPECT_TRUE(store.CheckInvariants().ok());

  EXPECT_EQ(store.CollectGarbage(), 2u);
  EXPECT_EQ(store.resident_chunks(), 4u);
  EXPECT_EQ(store.unreferenced_chunks(), 0u);
  EXPECT_TRUE(store.CheckInvariants().ok());

  // The surviving snapshot is untouched.
  auto read_b = ReadBack(store, "fn/b");
  ASSERT_TRUE(read_b.ok());
  EXPECT_EQ(read_b->bytes(), shared);
  const PhysicalAccounting phys = store.accounting().physical;
  EXPECT_EQ(phys.chunks_collected, 2u);
  EXPECT_EQ(phys.bytes_collected, 2048u);
}

TEST(SnapshotStoreTest, InvariantsHoldUnderRandomChurn) {
  SnapshotStoreOptions options = DedupOptions();
  options.chunker.cdc = true;
  options.chunker.chunk_size = 512;
  options.chunker.min_size = 128;
  options.chunker.max_size = 2048;
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
      store.CollectGarbage();
    }
    ASSERT_TRUE(store.CheckInvariants().ok())
        << "op " << op << ": " << store.CheckInvariants().ToString();
  }
  store.CollectGarbage();
  EXPECT_EQ(store.unreferenced_chunks(), 0u);
  EXPECT_TRUE(store.CheckInvariants().ok());
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

// --- Pins, readers, zombies --------------------------------------------

TEST(SnapshotStoreTest, OpenReaderKeepsDeletedSnapshotReadable) {
  DedupSnapshotStore store(DedupOptions());
  const auto payload = RandomBytes(10000, 1);
  ASSERT_TRUE(store.PutSnapshot("fn/a", Blob(payload)).ok());

  auto reader = store.OpenSnapshot("fn/a");
  ASSERT_TRUE(reader.ok());
  ASSERT_TRUE(store.DeleteSnapshot("fn/a").ok());
  EXPECT_FALSE(store.ContainsSnapshot("fn/a"));

  // The pinned manifest holds its chunks against GC.
  store.CollectGarbage();
  auto blob = (*reader)->ReadAll();
  ASSERT_TRUE(blob.ok());
  EXPECT_EQ(blob->bytes(), payload);
  EXPECT_TRUE(store.CheckInvariants().ok());

  // Dropping the reader releases the zombie; GC can now reclaim.
  reader->reset();
  store.CollectGarbage();
  EXPECT_EQ(store.resident_chunks(), 0u);
  EXPECT_TRUE(store.CheckInvariants().ok());
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
  store.CollectGarbage();
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
  // The store itself stays sound; the snapshot can be deleted and GC'd.
  ASSERT_TRUE(store.DeleteSnapshot("fn/a").ok());
  store.CollectGarbage();
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
