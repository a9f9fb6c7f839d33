// Storage dedup exhibit: the content-addressed snapshot store against the
// flat baseline on a pool-shaped checkpoint workload (DESIGN.md §14).
//
// Workload: a few functions, each keeping a pool of worker snapshots that
// are re-checkpointed across generations. Adjacent generations of one worker
// share almost all of their pages (the engines re-encode the same layout and
// mutate a small working set), and workers of one function share the base
// image — exactly the redundancy the chunk index collapses. The exhibit
// reports logical vs physical bytes and the dedup ratio, then times an
// eager vs lazy (record-then-prefetch) restore storm over the same pool,
// and finishes by dropping half the pool (the store reclaims each chunk at
// its last reference) plus a full invariant check.
//
// Written to BENCH_storage_dedup.json so CI archives the trajectory. The
// binary exits non-zero when a gate fails:
//   - physical resident bytes must be <= 50% of the logical bytes put
//   - the lazy restore storm must fetch fewer bytes than the eager one
//   - after the drop the refcount invariants must hold, which includes that
//     no resident chunk is left without a reference

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench/exhibit_common.h"
#include "src/common/clock.h"
#include "src/common/rng.h"
#include "src/store/snapshot_store.h"

namespace pronghorn::bench {
namespace {

constexpr size_t kFunctions = 4;
constexpr size_t kWorkersPerFunction = 8;
constexpr size_t kGenerations = 6;
constexpr size_t kImageBytes = 1 << 20;  // 1 MiB per snapshot image.
constexpr size_t kPageBytes = 4096;
constexpr size_t kMutatedPagesPerGeneration = 12;
constexpr size_t kRestoreRounds = 4;
constexpr uint64_t kSeed = 42;
constexpr const char* kJsonPath = "BENCH_storage_dedup.json";

struct RestoreRun {
  uint64_t bytes_fetched = 0;
  uint64_t chunks_fetched = 0;
  uint64_t chunks_prefetched = 0;
  uint64_t demand_faults = 0;
  uint64_t cache_hits = 0;
  double wall_seconds = 0.0;
};

std::string SnapshotKey(size_t function, size_t worker) {
  char key[64];
  std::snprintf(key, sizeof(key), "fn%02zu/worker%02zu", function, worker);
  return key;
}

// The pool of images the workload checkpoints: per function one random base
// image; per worker/generation a copy with a small set of mutated pages (the
// per-generation working set) plus one worker-unique page so no two workers
// are bit-identical.
std::vector<uint8_t> MakeImage(const std::vector<uint8_t>& base, size_t worker,
                               size_t generation, Rng& rng) {
  std::vector<uint8_t> image = base;
  // Worker-unique page: stable across generations, so it dedups against the
  // worker's own previous snapshot but not against its siblings.
  const size_t worker_page = worker % (kImageBytes / kPageBytes);
  Rng worker_rng(HashCombine(kSeed, HashCombine(0x50a6eULL, worker)));
  for (size_t i = 0; i < kPageBytes; ++i) {
    image[worker_page * kPageBytes + i] = static_cast<uint8_t>(worker_rng.NextUint64());
  }
  // Generation working set: freshly dirtied pages.
  for (size_t m = 0; m < kMutatedPagesPerGeneration * generation; ++m) {
    const size_t page = rng.UniformUint64(kImageBytes / kPageBytes);
    for (size_t i = 0; i < kPageBytes; ++i) {
      image[page * kPageBytes + i] = static_cast<uint8_t>(rng.NextUint64());
    }
  }
  return image;
}

// Puts every pool snapshot (each worker key is replaced once per
// generation, like the orchestrator's checkpoint path).
void FillStore(SnapshotStore& store, uint64_t* logical_bytes_put) {
  for (size_t f = 0; f < kFunctions; ++f) {
    Rng base_rng(HashCombine(kSeed, f));
    std::vector<uint8_t> base(kImageBytes);
    for (uint8_t& b : base) {
      b = static_cast<uint8_t>(base_rng.NextUint64());
    }
    for (size_t g = 0; g < kGenerations; ++g) {
      for (size_t w = 0; w < kWorkersPerFunction; ++w) {
        Rng mut_rng(HashCombine(kSeed, HashCombine(f, HashCombine(g, w))));
        std::vector<uint8_t> image = MakeImage(base, w, g, mut_rng);
        const uint64_t logical = image.size();
        auto ref = store.PutSnapshot(SnapshotKey(f, w),
                                     ObjectBlob(std::move(image), logical));
        if (!ref.ok()) {
          std::fprintf(stderr, "put failed: %s\n", ref.status().ToString().c_str());
          std::exit(1);
        }
        *logical_bytes_put += logical;
      }
    }
  }
}

// Restore storm: every pool snapshot opened and fully materialized,
// kRestoreRounds times — the hot-start path under load. Returns the fetch
// counters accumulated by the storm alone.
RestoreRun RestoreStorm(SnapshotStore& store) {
  const PhysicalAccounting before = store.accounting().physical;
  const auto start = std::chrono::steady_clock::now();
  for (size_t round = 0; round < kRestoreRounds; ++round) {
    for (size_t f = 0; f < kFunctions; ++f) {
      for (size_t w = 0; w < kWorkersPerFunction; ++w) {
        auto reader = store.OpenSnapshot(SnapshotKey(f, w));
        if (!reader.ok()) {
          std::fprintf(stderr, "open failed: %s\n",
                       reader.status().ToString().c_str());
          std::exit(1);
        }
        auto blob = (*reader)->ReadAll();
        if (!blob.ok() || blob->bytes().size() != kImageBytes) {
          std::fprintf(stderr, "restore failed or short\n");
          std::exit(1);
        }
      }
    }
  }
  const auto end = std::chrono::steady_clock::now();
  const PhysicalAccounting after = store.accounting().physical;
  RestoreRun run;
  run.bytes_fetched = after.bytes_fetched - before.bytes_fetched;
  run.chunks_fetched = after.chunks_fetched - before.chunks_fetched;
  run.chunks_prefetched = after.chunks_prefetched - before.chunks_prefetched;
  run.demand_faults = after.demand_faults - before.demand_faults;
  run.cache_hits = after.cache_hits - before.cache_hits;
  run.wall_seconds = std::chrono::duration<double>(end - start).count();
  return run;
}

bool WriteJson(uint64_t logical, const PhysicalAccounting& phys,
               const RestoreRun& eager, const RestoreRun& lazy,
               uint64_t collected_chunks, uint64_t collected_bytes) {
  std::FILE* out = std::fopen(kJsonPath, "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot open %s for writing\n", kJsonPath);
    return false;
  }
  const auto u = [](uint64_t v) { return static_cast<unsigned long long>(v); };
  std::fprintf(out, "{\n");
  std::fprintf(out, "  \"benchmark\": \"storage_dedup\",\n");
  std::fprintf(out, "  \"schema_version\": 2,\n");
  EmitMachineJson(out, "  ");
  std::fprintf(out, "  \"functions\": %zu,\n", kFunctions);
  std::fprintf(out, "  \"workers_per_function\": %zu,\n", kWorkersPerFunction);
  std::fprintf(out, "  \"generations\": %zu,\n", kGenerations);
  std::fprintf(out, "  \"image_bytes\": %zu,\n", kImageBytes);
  std::fprintf(out, "  \"chunk_bytes\": %zu,\n", kPageBytes);
  std::fprintf(out, "  \"seed\": %llu,\n", u(kSeed));
  std::fprintf(out, "  \"logical_bytes_put\": %llu,\n", u(logical));
  std::fprintf(out, "  \"physical_bytes_resident\": %llu,\n", u(phys.bytes_stored));
  std::fprintf(out, "  \"flat_bytes_resident\": %llu,\n", u(phys.flat_bytes_stored));
  std::fprintf(out, "  \"dedup_ratio\": %.3f,\n", phys.DedupRatio());
  std::fprintf(out, "  \"chunks_stored\": %llu,\n", u(phys.chunks_stored));
  std::fprintf(out, "  \"dedup_hits\": %llu,\n", u(phys.dedup_hits));
  std::fprintf(out, "  \"dedup_bytes_saved\": %llu,\n", u(phys.dedup_bytes_saved));
  std::fprintf(out, "  \"delta_bytes_shared\": %llu,\n", u(phys.delta_bytes_shared));
  std::fprintf(out, "  \"gc_chunks_collected\": %llu,\n", u(collected_chunks));
  std::fprintf(out, "  \"gc_bytes_collected\": %llu,\n", u(collected_bytes));
  std::fprintf(out,
               "  \"eager_restore\": {\"bytes_fetched\": %llu, "
               "\"chunks_fetched\": %llu, \"wall_seconds\": %.6f},\n",
               u(eager.bytes_fetched), u(eager.chunks_fetched), eager.wall_seconds);
  std::fprintf(out,
               "  \"lazy_restore\": {\"bytes_fetched\": %llu, "
               "\"chunks_fetched\": %llu, \"chunks_prefetched\": %llu, "
               "\"demand_faults\": %llu, \"cache_hits\": %llu, "
               "\"wall_seconds\": %.6f}\n",
               u(lazy.bytes_fetched), u(lazy.chunks_fetched),
               u(lazy.chunks_prefetched), u(lazy.demand_faults), u(lazy.cache_hits),
               lazy.wall_seconds);
  std::fprintf(out, "}\n");
  std::fclose(out);
  return true;
}

}  // namespace
}  // namespace pronghorn::bench

int main() {
  using namespace pronghorn;
  using namespace pronghorn::bench;
  std::printf("=== Exhibit: content-addressed snapshot storage ===\n");
  std::printf("%zu functions x %zu workers x %zu generations, %zu KiB images, "
              "%zu-byte chunks\n\n",
              kFunctions, kWorkersPerFunction, kGenerations, kImageBytes / 1024,
              kPageBytes);

  SimClock clock;
  SnapshotStoreOptions options;
  options.kind = SnapshotStoreOptions::Kind::kDedup;
  options.chunker.chunk_size = kPageBytes;

  // Pool fill + dedup footprint.
  DedupSnapshotStore store(options, &clock);
  uint64_t logical_bytes_put = 0;
  FillStore(store, &logical_bytes_put);
  const PhysicalAccounting phys = store.accounting().physical;
  std::printf("logical bytes put      %12llu\n",
              static_cast<unsigned long long>(logical_bytes_put));
  std::printf("physical resident      %12llu  (dedup ratio %.1fx, %llu chunks, "
              "%llu dedup hits)\n",
              static_cast<unsigned long long>(phys.bytes_stored), phys.DedupRatio(),
              static_cast<unsigned long long>(phys.chunks_stored),
              static_cast<unsigned long long>(phys.dedup_hits));
  std::printf("delta bytes shared     %12llu  (vs previous snapshot of the "
              "same function)\n\n",
              static_cast<unsigned long long>(phys.delta_bytes_shared));

  // Eager restore storm on the filled store.
  const RestoreRun eager = RestoreStorm(store);

  // Lazy restore storm on an identically-filled lazy store.
  SnapshotStoreOptions lazy_options = options;
  lazy_options.lazy_restore = true;
  // A cache smaller than the pool's unique bytes, so the storm actually
  // exercises eviction, prefetch, and demand faults rather than pure hits.
  lazy_options.chunk_cache_bytes = 4ull << 20;
  DedupSnapshotStore lazy_store(lazy_options, &clock);
  uint64_t lazy_logical = 0;
  FillStore(lazy_store, &lazy_logical);
  const RestoreRun lazy = RestoreStorm(lazy_store);

  std::printf("eager restore storm    %12llu bytes fetched  (%.3fs)\n",
              static_cast<unsigned long long>(eager.bytes_fetched),
              eager.wall_seconds);
  std::printf("lazy restore storm     %12llu bytes fetched  (%.3fs, "
              "%llu prefetched, %llu cache hits, %llu demand faults)\n\n",
              static_cast<unsigned long long>(lazy.bytes_fetched), lazy.wall_seconds,
              static_cast<unsigned long long>(lazy.chunks_prefetched),
              static_cast<unsigned long long>(lazy.cache_hits),
              static_cast<unsigned long long>(lazy.demand_faults));

  // Drop half the pool; each delete reclaims the chunks it held last.
  const PhysicalAccounting before_drop = store.accounting().physical;
  for (size_t f = 0; f < kFunctions; ++f) {
    for (size_t w = 0; w < kWorkersPerFunction; w += 2) {
      if (Status s = store.DeleteSnapshot(SnapshotKey(f, w)); !s.ok()) {
        std::fprintf(stderr, "delete failed: %s\n", s.ToString().c_str());
        return 1;
      }
    }
  }
  const PhysicalAccounting after_drop = store.accounting().physical;
  const uint64_t collected_chunks =
      after_drop.chunks_collected - before_drop.chunks_collected;
  const uint64_t collected_bytes = after_drop.bytes_collected - before_drop.bytes_collected;
  std::printf("dropping half reclaimed %11llu bytes (%llu chunks)\n\n",
              static_cast<unsigned long long>(collected_bytes),
              static_cast<unsigned long long>(collected_chunks));

  bool ok = true;
  if (Status s = store.CheckInvariants(); !s.ok()) {
    std::fprintf(stderr, "GATE: invariants violated after the drop: %s\n",
                 s.ToString().c_str());
    ok = false;
  }
  if (phys.bytes_stored * 2 > logical_bytes_put) {
    std::fprintf(stderr, "GATE: physical %llu > 50%% of logical %llu\n",
                 static_cast<unsigned long long>(phys.bytes_stored),
                 static_cast<unsigned long long>(logical_bytes_put));
    ok = false;
  }
  if (lazy.bytes_fetched >= eager.bytes_fetched) {
    std::fprintf(stderr, "GATE: lazy storm fetched %llu bytes >= eager %llu\n",
                 static_cast<unsigned long long>(lazy.bytes_fetched),
                 static_cast<unsigned long long>(eager.bytes_fetched));
    ok = false;
  }
  if (!WriteJson(logical_bytes_put, phys, eager, lazy, collected_chunks,
                 collected_bytes)) {
    ok = false;
  }
  if (ok) {
    std::printf("all storage gates hold; wrote %s\n", kJsonPath);
  }
  return ok ? 0 : 1;
}
