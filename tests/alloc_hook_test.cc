// Proves the steady-state decision path performs zero heap allocations.
//
// This TU replaces the global operator new/delete with counting wrappers (a
// replaceable-function override, standard-sanctioned) and asserts that once
// the policy's caches are warm, OnWorkerStart, OnRequestComplete, and
// OnSnapshotAdded-without-eviction allocate nothing.
// A regression here silently re-introduces malloc into the per-decision hot
// loop. It also pins the exact allocation counts of a warm knowledge write and
// a warm checkpoint write through PolicyStateStore, and of a warm
// Orchestrator::StartWorker, none of which depend on the machine.
//
// Under sanitizers the runtime interposes its own allocator and the
// replacement functions below may not see every allocation (or may see the
// sanitizer's own), so the zero-allocation assertions are skipped there; the
// functional assertions still run.

#include <atomic>
#include <cstdlib>
#include <functional>
#include <new>
#include <string>

#include <gtest/gtest.h>

#include "src/checkpoint/criu_like_engine.h"
#include "src/common/clock.h"
#include "src/common/rng.h"
#include "src/core/orchestrator.h"
#include "src/core/policy_state_store.h"
#include "src/core/request_centric_policy.h"
#include "src/store/kv_database.h"
#include "src/store/object_store.h"
#include "src/store/snapshot_store.h"

namespace {

std::atomic<long> g_live_counting{0};
std::atomic<unsigned long> g_allocation_count{0};

struct CountingScope {
  CountingScope() { g_live_counting.fetch_add(1, std::memory_order_relaxed); }
  ~CountingScope() { g_live_counting.fetch_sub(1, std::memory_order_relaxed); }
};

void NoteAllocation() {
  if (g_live_counting.load(std::memory_order_relaxed) > 0) {
    g_allocation_count.fetch_add(1, std::memory_order_relaxed);
  }
}

unsigned long TakeAllocationCount() {
  return g_allocation_count.exchange(0, std::memory_order_relaxed);
}

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
constexpr bool kCountingReliable = false;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(memory_sanitizer)
constexpr bool kCountingReliable = false;
#else
constexpr bool kCountingReliable = true;
#endif
#else
constexpr bool kCountingReliable = true;
#endif

}  // namespace

// Replaceable global allocation functions (all eight forms funnel here).
void* operator new(std::size_t size) {
  NoteAllocation();
  void* p = std::malloc(size == 0 ? 1 : size);
  if (p == nullptr) {
    throw std::bad_alloc();
  }
  return p;
}

void* operator new(std::size_t size, std::align_val_t alignment) {
  NoteAllocation();
  void* p = std::aligned_alloc(static_cast<std::size_t>(alignment),
                               (size + static_cast<std::size_t>(alignment) - 1) /
                                   static_cast<std::size_t>(alignment) *
                                   static_cast<std::size_t>(alignment));
  if (p == nullptr) {
    throw std::bad_alloc();
  }
  return p;
}

void* operator new[](std::size_t size) { return ::operator new(size); }
void* operator new[](std::size_t size, std::align_val_t alignment) {
  return ::operator new(size, alignment);
}

// Every delete form funnels into one out-of-line free(): inlined into the
// cleanup of a `new T`, a free() would draw GCC's -Wmismatched-new-delete
// against the (replaced, malloc-backed) operator new it pairs with.
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { ::operator delete(p); }
void operator delete(void* p, std::align_val_t) noexcept { ::operator delete(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  ::operator delete(p);
}
void operator delete[](void* p) noexcept { ::operator delete(p); }
void operator delete[](void* p, std::size_t) noexcept { ::operator delete(p); }
void operator delete[](void* p, std::align_val_t) noexcept { ::operator delete(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  ::operator delete(p);
}

namespace pronghorn {
namespace {

PolicyConfig TestConfig() {
  PolicyConfig config;
  config.beta = 10;
  config.pool_capacity = 6;
  config.max_checkpoint_request = 50;
  config.alpha = 0.3;
  config.retain_top_percent = 40.0;
  config.retain_random_percent = 10.0;
  return config;
}

PoolEntry Entry(uint64_t id, uint64_t request_number) {
  PoolEntry entry;
  entry.metadata.id = SnapshotId{id};
  entry.metadata.function = "f";
  entry.metadata.request_number = request_number;
  entry.object_key = "snapshots/f/" + std::to_string(id);
  return entry;
}

TEST(AllocHookTest, SteadyStateDecisionPathIsAllocationFree) {
  auto policy_or = RequestCentricPolicy::Create(TestConfig());
  ASSERT_TRUE(policy_or.ok());
  const RequestCentricPolicy policy = *std::move(policy_or);

  PolicyState state(policy.config());
  Rng rng(42);

  // Populate a realistic warm state: learned latencies plus a part-full pool
  // (so OnSnapshotAdded stays under capacity and must not evict).
  for (uint64_t request = 0; request < 50; ++request) {
    state.theta.Update(request, 0.002 + 0.0001 * static_cast<double>(request),
                       0.3);
  }
  for (uint64_t id = 1; id <= 4; ++id) {
    ASSERT_TRUE(state.pool.Add(Entry(id, id * 7)).ok());
  }

  // Warm every lazily-built structure: the WeightVector inverse/lifetime
  // caches, pool scratch.
  for (int i = 0; i < 16; ++i) {
    const StartDecision decision = policy.OnWorkerStart(state, rng);
    (void)decision;
    policy.OnRequestComplete(state, static_cast<uint64_t>(i % 50),
                             Duration::Micros(1500));
  }

  // Steady state: every decision call must be allocation-free.
  unsigned long start_allocs = 0;
  unsigned long complete_allocs = 0;
  {
    CountingScope scope;
    TakeAllocationCount();
    for (int i = 0; i < 64; ++i) {
      const StartDecision decision = policy.OnWorkerStart(state, rng);
      ASSERT_TRUE(decision.checkpoint_at_request.has_value());
    }
    start_allocs = TakeAllocationCount();
    for (int i = 0; i < 64; ++i) {
      policy.OnRequestComplete(state, static_cast<uint64_t>(i % 50),
                               Duration::Micros(1200 + i));
    }
    complete_allocs = TakeAllocationCount();
  }

  if (kCountingReliable) {
    EXPECT_EQ(start_allocs, 0u)
        << "OnWorkerStart allocated on the steady-state path";
    EXPECT_EQ(complete_allocs, 0u)
        << "OnRequestComplete allocated on the steady-state path";
  } else {
    GTEST_LOG_(INFO) << "sanitizer build: allocation counts not asserted "
                     << "(start=" << start_allocs
                     << " complete=" << complete_allocs << ")";
  }
}

// Heap allocations of one warm, cache-hit PolicyStateStore::Update with a
// learn-only mutation, over a pool of `pool_size` entries.
unsigned long WarmLearnUpdateAllocations(size_t pool_size) {
  PolicyConfig config = TestConfig();
  config.pool_capacity = 16;
  InMemoryKvDatabase db;
  PolicyStateStore store(db, "f", config);
  const Status seeded = store.Update([&](PolicyState& state) {
    for (uint64_t id = 1; id <= pool_size; ++id) {
      (void)state.pool.Add(Entry(id, id * 3));
    }
  });
  EXPECT_TRUE(seeded.ok());
  uint64_t request = 0;
  const std::function<void(PolicyState&)> learn = [&request](PolicyState& state) {
    state.theta.Update(request % 50, 0.002 + 1e-5 * static_cast<double>(request), 0.3);
  };
  // Warm-up: the first update decodes nothing (cache holds the seeded state)
  // but builds the pool memo; later ones are steady state.
  for (; request < 8; ++request) {
    EXPECT_TRUE(store.Update(learn).ok());
  }
  unsigned long allocations = 0;
  {
    CountingScope scope;
    TakeAllocationCount();
    EXPECT_TRUE(store.Update(learn).ok());
    allocations = TakeAllocationCount();
  }
  EXPECT_EQ(store.cache_stats().misses, 0u);
  return allocations;
}

TEST(AllocHookTest, WarmStateUpdateAllocatesOnlyTheCasBuffer) {
  // Probe (version only, no blob copy) -> mutate in place -> encode into one
  // exact-size buffer (theta in bulk, pool section spliced from the memo) ->
  // CAS moves that buffer into the database. The buffer is the one
  // allocation, whatever the pool size.
  const unsigned long small_pool = WarmLearnUpdateAllocations(1);
  const unsigned long full_pool = WarmLearnUpdateAllocations(12);
  if (kCountingReliable) {
    EXPECT_EQ(small_pool, 1u);
    EXPECT_EQ(full_pool, 1u);
  } else {
    GTEST_LOG_(INFO) << "sanitizer build: allocation counts not asserted (pool 1: "
                     << small_pool << ", pool 12: " << full_pool << ")";
  }
}

// Heap allocations of one warm, cache-hit checkpoint write: the mutator has
// the shape of Orchestrator::TakeCheckpoint's (five captures by reference, so
// a std::function would heap-allocate the closure), records one new snapshot
// and runs the capacity rule without evicting.
unsigned long WarmCheckpointUpdateAllocations() {
  PolicyConfig config = TestConfig();
  config.pool_capacity = 16;
  auto policy = RequestCentricPolicy::Create(config);
  EXPECT_TRUE(policy.ok());
  InMemoryKvDatabase db;
  PolicyStateStore store(db, "f", config);
  // The pool's entry vector has room for every snapshot added below, so the
  // counted write measures the store, not vector growth.
  EXPECT_TRUE(store
                  .Update([](PolicyState& state) {
                    for (uint64_t id = 1; id <= 16; ++id) {
                      (void)state.pool.Add(Entry(id, id));
                    }
                    for (uint64_t id = 1; id <= 16; ++id) {
                      state.pool.Remove(SnapshotId{id});
                    }
                  })
                  .ok());
  Rng rng(11);
  PoolEntry entry;
  std::vector<PoolEntry> evicted;
  size_t pool_size_after = 0;
  const auto checkpoint = [&evicted, &entry, &policy, &rng,
                           &pool_size_after](PolicyState& state) {
    evicted.clear();
    if (!state.pool.Contains(entry.metadata.id)) {
      (void)state.pool.Add(entry);
    }
    evicted = (*policy).OnSnapshotAdded(state, rng);
    pool_size_after = state.pool.size();
  };
  static_assert(sizeof(checkpoint) > 16, "closure must exceed std::function's buffer");
  uint64_t id = 1;
  for (; id <= 6; ++id) {
    entry = Entry(id, id * 3);
    EXPECT_TRUE(store.Update(checkpoint).ok());
  }
  entry = Entry(id, id * 3);
  unsigned long allocations = 0;
  {
    CountingScope scope;
    TakeAllocationCount();
    EXPECT_TRUE(store.Update(checkpoint).ok());
    allocations = TakeAllocationCount();
  }
  EXPECT_TRUE(evicted.empty());
  EXPECT_EQ(pool_size_after, 7u);
  EXPECT_EQ(store.cache_stats().misses, 0u);
  return allocations;
}

TEST(AllocHookTest, WarmCheckpointUpdateAllocatesOnlyTheCasBuffer) {
  // The one allocation is the CAS buffer. The mutator is borrowed, not
  // type-erased onto the heap: with a std::function parameter this was 2.
  const unsigned long allocations = WarmCheckpointUpdateAllocations();
  if (kCountingReliable) {
    EXPECT_EQ(allocations, 1u);
  } else {
    GTEST_LOG_(INFO) << "sanitizer build: allocation count not asserted ("
                     << allocations << ")";
  }
}

// Heap allocations of one warm Orchestrator::StartWorker that restores: flat
// store, CriuLikeEngine, a full pool of 12, decoded-state cache hot.
unsigned long WarmStartWorkerAllocations() {
  const WorkloadProfile& profile = **WorkloadRegistry::Default().Find("DynamicHTML");
  PolicyConfig config;
  config.beta = 4;
  config.pool_capacity = 12;
  config.max_checkpoint_request = 100;
  auto policy = RequestCentricPolicy::Create(config);
  EXPECT_TRUE(policy.ok());
  SimClock clock;
  InMemoryKvDatabase db;
  InMemoryObjectStore objects;
  FlatSnapshotStore snapshots(objects);
  CriuLikeEngine engine(1);
  PolicyStateStore state_store(db, profile.name, config);
  Orchestrator orchestrator(profile, WorkloadRegistry::Default(), *policy, engine,
                            snapshots, state_store, clock, /*seed=*/5);
  // Worker lifetimes of four requests warm every cache and fill the pool
  // (the capacity rule trims a full pool, so stop when it is full).
  size_t pool_size = 0;
  for (int lifetime = 0; lifetime < 1000 && (lifetime < 200 || pool_size < 12);
       ++lifetime) {
    auto session = orchestrator.StartWorker();
    EXPECT_TRUE(session.ok());
    for (uint64_t i = 0; i < 4; ++i) {
      EXPECT_TRUE(orchestrator.ServeRequest(*session, {i, 1.0}).ok());
    }
    pool_size = state_store.Load()->pool.size();
  }
  EXPECT_EQ(pool_size, 12u);
  unsigned long allocations = 0;
  bool restored = false;
  {
    CountingScope scope;
    TakeAllocationCount();
    auto session = orchestrator.StartWorker();
    allocations = TakeAllocationCount();
    EXPECT_TRUE(session.ok());
    restored = session.ok() && session->restored;
  }
  EXPECT_TRUE(restored);
  return allocations;
}

TEST(AllocHookTest, WarmStartWorkerAllocationsArePinned) {
  // What remains is the restore itself: the snapshot reader, the decoded
  // image and the restored process. The decision reads the cached policy
  // state in place; when Load returned a copy of it, this count was 22.
  const unsigned long allocations = WarmStartWorkerAllocations();
  if (kCountingReliable) {
    EXPECT_EQ(allocations, 4u);
  } else {
    GTEST_LOG_(INFO) << "sanitizer build: allocation count not asserted ("
                     << allocations << ")";
  }
}

TEST(AllocHookTest, CountingHooksObserveOrdinaryAllocations) {
  // Sanity-check the instrument itself: an std::vector growth must register
  // (otherwise the zero assertions above would be vacuous).
  if (!kCountingReliable) {
    GTEST_SKIP() << "sanitizer build interposes the allocator";
  }
  CountingScope scope;
  TakeAllocationCount();
  std::vector<int>* v = new std::vector<int>();
  v->resize(1000);
  const unsigned long count = TakeAllocationCount();
  delete v;
  EXPECT_GE(count, 2u);  // the vector object + its buffer
}

}  // namespace
}  // namespace pronghorn
