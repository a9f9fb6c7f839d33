#include "src/store/fault_injection.h"
#include "src/store/snapshot_store.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "src/checkpoint/criu_like_engine.h"
#include "src/core/orchestrator.h"
#include "src/core/request_centric_policy.h"

namespace pronghorn {
namespace {

ObjectBlob Blob(std::string_view text) {
  return ObjectBlob(std::vector<uint8_t>(text.begin(), text.end()), text.size());
}

// What a flat build puts under the store fault decorator.
struct FlatStack {
  InMemoryObjectStore objects;
  FlatSnapshotStore flat{objects};
};

Result<ObjectBlob> ReadBack(SnapshotStore& store, std::string_view key) {
  PRONGHORN_ASSIGN_OR_RETURN(std::unique_ptr<SnapshotReader> reader,
                             store.OpenSnapshot(key));
  return reader->ReadAll();
}

TEST(FaultySnapshotStoreTest, ZeroRateIsTransparent) {
  FlatStack inner;
  FaultySnapshotStore store(inner.flat, FaultPlan{});
  ASSERT_TRUE(store.PutSnapshot("k", Blob("v")).ok());
  ASSERT_TRUE(ReadBack(store, "k").ok());
  ASSERT_TRUE(store.DeleteSnapshot("k").ok());
  EXPECT_EQ(store.faults_injected(), 0u);
}

TEST(FaultySnapshotStoreTest, InjectsAtConfiguredRate) {
  FlatStack inner;
  ASSERT_TRUE(inner.flat.PutSnapshot("k", Blob("v")).ok());
  FaultPlan plan;
  plan.get_failure_rate = 0.5;
  plan.seed = 1;
  FaultySnapshotStore store(inner.flat, plan);
  int failures = 0;
  const int trials = 2000;
  for (int i = 0; i < trials; ++i) {
    auto got = store.OpenSnapshot("k");
    if (!got.ok()) {
      EXPECT_EQ(got.status().code(), StatusCode::kUnavailable);
      ++failures;
    }
  }
  EXPECT_NEAR(static_cast<double>(failures) / trials, 0.5, 0.05);
  EXPECT_EQ(store.faults_injected(), static_cast<uint64_t>(failures));
}

TEST(FaultySnapshotStoreTest, AlwaysFailMode) {
  FlatStack inner;
  FaultPlan plan;
  plan.put_failure_rate = 1.0;
  FaultySnapshotStore store(inner.flat, plan);
  EXPECT_EQ(store.PutSnapshot("k", Blob("v")).status().code(),
            StatusCode::kUnavailable);
  EXPECT_FALSE(inner.objects.Contains("k"));  // Nothing reached the inner store.
  EXPECT_EQ(inner.objects.accounting().put_count, 0u);
}

TEST(FaultySnapshotStoreTest, MetadataFaultsHideKeys) {
  FlatStack inner;
  ASSERT_TRUE(inner.flat.PutSnapshot("snapshots/a", Blob("v")).ok());
  FaultPlan plan;
  plan.metadata_failure_rate = 1.0;
  FaultySnapshotStore store(inner.flat, plan);
  EXPECT_FALSE(store.ContainsSnapshot("snapshots/a"));
  EXPECT_TRUE(store.ListSnapshots("snapshots/").empty());
  EXPECT_EQ(store.stats().metadata_faults, 2u);
  // The data path is untouched: the blob is still readable.
  EXPECT_TRUE(ReadBack(store, "snapshots/a").ok());
}

TEST(FaultySnapshotStoreTest, TornWriteStoresTruncatedPrefixAndFails) {
  FlatStack inner;
  FaultPlan plan;
  plan.torn_write_rate = 1.0;
  FaultySnapshotStore store(inner.flat, plan);
  EXPECT_EQ(store.PutSnapshot("k", Blob("0123456789")).status().code(),
            StatusCode::kUnavailable);
  // Half the payload landed anyway — the partial-upload garbage GC must clean.
  auto stored = inner.objects.Get("k");
  ASSERT_TRUE(stored.ok());
  EXPECT_EQ(stored->bytes().size(), 5u);
  EXPECT_EQ(stored->logical_size, 5u);
  EXPECT_EQ(store.stats().torn_puts, 1u);
}

TEST(FaultySnapshotStoreTest, CorruptionFlipsOneBitAndReportsSuccess) {
  FlatStack inner;
  FaultPlan plan;
  plan.corruption_rate = 1.0;
  plan.seed = 3;
  FaultySnapshotStore store(inner.flat, plan);
  const ObjectBlob original = Blob("snapshot-image-payload");
  ASSERT_TRUE(store.PutSnapshot("k", original).ok());  // The write "succeeds".
  auto stored = inner.objects.Get("k");
  ASSERT_TRUE(stored.ok());
  ASSERT_EQ(stored->bytes().size(), original.bytes().size());
  size_t flipped_bits = 0;
  for (size_t i = 0; i < stored->bytes().size(); ++i) {
    uint8_t diff = static_cast<uint8_t>(stored->bytes()[i] ^ original.bytes()[i]);
    while (diff != 0) {
      flipped_bits += diff & 1u;
      diff = static_cast<uint8_t>(diff >> 1);
    }
  }
  EXPECT_EQ(flipped_bits, 1u);
  EXPECT_EQ(store.stats().corrupted_puts, 1u);
  // The caller's buffer is never mutated: corruption copies first.
  EXPECT_EQ(std::string(original.bytes().begin(), original.bytes().end()),
            "snapshot-image-payload");
}

TEST(FaultySnapshotStoreTest, OutageWindowFailsEveryOpWhileOpen) {
  SimClock clock;
  FlatStack inner;
  ASSERT_TRUE(inner.flat.PutSnapshot("k", Blob("v")).ok());
  FaultPlan plan;
  FaultWindow window;
  window.kind = FaultWindow::Kind::kOutage;
  window.domain = FaultDomain::kObjectStore;
  window.start = TimePoint() + Duration::Seconds(10);
  window.end = TimePoint() + Duration::Seconds(20);
  plan.windows.push_back(window);
  FaultySnapshotStore store(inner.flat, plan, &clock);

  EXPECT_TRUE(store.OpenSnapshot("k").ok());  // Before the window.
  clock.Advance(Duration::Seconds(15));
  EXPECT_EQ(store.OpenSnapshot("k").status().code(), StatusCode::kUnavailable);
  EXPECT_EQ(store.PutSnapshot("k2", Blob("v")).status().code(),
            StatusCode::kUnavailable);
  clock.Advance(Duration::Seconds(10));
  EXPECT_TRUE(store.OpenSnapshot("k").ok());  // After the window.
  EXPECT_EQ(store.stats().outage_faults, 2u);
}

TEST(FaultySnapshotStoreTest, OutageWindowScopedToOtherDomainIsIgnored) {
  SimClock clock;
  FlatStack inner;
  ASSERT_TRUE(inner.flat.PutSnapshot("k", Blob("v")).ok());
  FaultPlan plan;
  FaultWindow window;
  window.domain = FaultDomain::kDatabase;  // Database-only outage.
  window.start = TimePoint();
  window.end = TimePoint() + Duration::Seconds(100);
  plan.windows.push_back(window);
  FaultySnapshotStore store(inner.flat, plan, &clock);
  clock.Advance(Duration::Seconds(5));
  EXPECT_TRUE(store.OpenSnapshot("k").ok());
  EXPECT_EQ(store.faults_injected(), 0u);
}

TEST(FaultySnapshotStoreTest, LatencyWindowAdvancesClock) {
  SimClock clock;
  FlatStack inner;
  ASSERT_TRUE(inner.flat.PutSnapshot("k", Blob("v")).ok());
  FaultPlan plan;
  FaultWindow window;
  window.kind = FaultWindow::Kind::kLatency;
  window.start = TimePoint();
  window.end = TimePoint() + Duration::Seconds(10);
  window.extra_latency = Duration::Millis(250);
  plan.windows.push_back(window);
  FaultySnapshotStore store(inner.flat, plan, &clock);

  const TimePoint before = clock.now();
  EXPECT_TRUE(store.OpenSnapshot("k").ok());
  EXPECT_EQ(clock.now() - before, Duration::Millis(250));
  EXPECT_EQ(store.stats().latency_injections, 1u);
  // Outside the window the op is full speed again.
  clock.AdvanceTo(TimePoint() + Duration::Seconds(11));
  const TimePoint after = clock.now();
  EXPECT_TRUE(store.OpenSnapshot("k").ok());
  EXPECT_EQ(clock.now(), after);
}

TEST(FaultyKvDatabaseTest, MetadataFaultsHideKeys) {
  InMemoryKvDatabase inner;
  ASSERT_TRUE(inner.Put("state/fn", {1}).ok());
  FaultPlan plan;
  plan.metadata_failure_rate = 1.0;
  FaultyKvDatabase db(inner, plan);
  EXPECT_TRUE(db.ListKeys("state/").empty());
  EXPECT_EQ(db.stats().metadata_faults, 1u);
}

TEST(FaultyKvDatabaseTest, OutageWindowCoversDatabaseDomain) {
  SimClock clock;
  InMemoryKvDatabase inner;
  ASSERT_TRUE(inner.Put("k", {1}).ok());
  FaultPlan plan;
  FaultWindow window;
  window.domain = FaultDomain::kDatabase;
  window.start = TimePoint();
  window.end = TimePoint() + Duration::Seconds(2);
  plan.windows.push_back(window);
  FaultyKvDatabase db(inner, plan, &clock);
  EXPECT_EQ(db.Get("k").status().code(), StatusCode::kUnavailable);
  clock.Advance(Duration::Seconds(3));
  EXPECT_TRUE(db.Get("k").ok());
}

TEST(FaultPlanTest, ActiveDetectsAnyFaultSource) {
  EXPECT_FALSE(FaultPlan{}.Active());
  FaultPlan rates;
  rates.torn_write_rate = 0.01;
  EXPECT_TRUE(rates.Active());
  FaultPlan windows;
  windows.windows.push_back(FaultWindow{});
  EXPECT_TRUE(windows.Active());
}

TEST(FaultyKvDatabaseTest, ReadsAndWritesFailIndependently) {
  InMemoryKvDatabase inner;
  FaultPlan plan;
  plan.get_failure_rate = 1.0;
  plan.put_failure_rate = 0.0;
  FaultyKvDatabase db(inner, plan);
  ASSERT_TRUE(db.Put("k", {1}).ok());
  EXPECT_EQ(db.Get("k").status().code(), StatusCode::kUnavailable);
  EXPECT_EQ(db.GetVersioned("k").status().code(), StatusCode::kUnavailable);
  // Increment counts as a write.
  EXPECT_TRUE(db.Increment("counter").ok());
}

TEST(FaultyKvDatabaseTest, VersionProbeDrawsFaultsLikeGetVersioned) {
  // Same plan, same inner contents: a GetVersionedIfChanged sequence fails on
  // exactly the calls a GetVersioned sequence fails on, and leaves both the
  // decorator's and the inner database's counters equal.
  FaultPlan plan;
  plan.get_failure_rate = 0.3;
  plan.seed = 99;
  InMemoryKvDatabase inner_probed;
  InMemoryKvDatabase inner_plain;
  FaultyKvDatabase probed(inner_probed, plan);
  FaultyKvDatabase plain(inner_plain, plan);
  ASSERT_TRUE(probed.Put("k", {1, 2, 3}).ok());
  ASSERT_TRUE(plain.Put("k", {1, 2, 3}).ok());
  int failures = 0;
  for (uint64_t i = 0; i < 200; ++i) {
    auto a = probed.GetVersionedIfChanged("k", i % 2);  // Alternate hit and miss.
    auto b = plain.GetVersioned("k");
    ASSERT_EQ(a.status().code(), b.status().code()) << "call " << i;
    if (!a.ok()) {
      ++failures;
      continue;
    }
    EXPECT_EQ(a->version, b->version);
    EXPECT_EQ(a->value.empty(), i % 2 == 1);
  }
  EXPECT_GT(failures, 0);
  EXPECT_EQ(probed.stats().faults_injected, plain.stats().faults_injected);
  EXPECT_EQ(inner_probed.accounting().reads, inner_plain.accounting().reads);
}

TEST(FaultyKvDatabaseTest, CasCountsAsWrite) {
  InMemoryKvDatabase inner;
  FaultPlan plan;
  plan.put_failure_rate = 1.0;
  FaultyKvDatabase db(inner, plan);
  EXPECT_EQ(db.CompareAndSwap("k", 0, {1}).code(), StatusCode::kUnavailable);
  EXPECT_EQ(db.Increment("k").status().code(), StatusCode::kUnavailable);
}

TEST(PolicyStateStoreResilienceTest, RetriesTransientDatabaseFailures) {
  InMemoryKvDatabase inner;
  FaultPlan plan;
  plan.get_failure_rate = 0.3;
  plan.put_failure_rate = 0.3;
  plan.seed = 2;
  FaultyKvDatabase db(inner, plan);
  PolicyStateStore store(db, "fn", PolicyConfig{});

  // With 30% fault rates and bounded retries, updates still succeed reliably.
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(store
                    .Update([i](PolicyState& state) {
                      state.theta.Update(static_cast<uint64_t>(i % 20) + 1, 0.1, 0.3);
                    })
                    .ok())
        << "update " << i;
    ASSERT_TRUE(store.AllocateSnapshotId().ok());
  }
  auto state = store.Load();
  ASSERT_TRUE(state.ok());
  EXPECT_EQ(state->theta.ExploredCount(), 20u);
  EXPECT_GT(db.faults_injected(), 0u);  // Faults actually fired.
}

TEST(PolicyStateStoreResilienceTest, PersistentOutageSurfaces) {
  InMemoryKvDatabase inner;
  FaultPlan plan;
  plan.get_failure_rate = 1.0;
  plan.put_failure_rate = 1.0;
  FaultyKvDatabase db(inner, plan);
  PolicyStateStore store(db, "fn", PolicyConfig{});
  EXPECT_EQ(store.Load().status().code(), StatusCode::kUnavailable);
  EXPECT_EQ(store.Update([](PolicyState&) {}).code(), StatusCode::kUnavailable);
  EXPECT_EQ(store.AllocateSnapshotId().status().code(), StatusCode::kUnavailable);
}

TEST(OrchestratorResilienceTest, RestoreFaultsFallBackToColdStart) {
  // An orchestrator whose snapshot store drops every read must still launch
  // workers: restore failures degrade to cold starts, never to errors.
  const auto profile = WorkloadRegistry::Default().Find("DynamicHTML");
  ASSERT_TRUE(profile.ok());
  PolicyConfig config;
  config.beta = 2;
  config.pool_capacity = 4;
  config.max_checkpoint_request = 20;
  const auto policy = RequestCentricPolicy::Create(config);
  ASSERT_TRUE(policy.ok());

  SimClock clock;
  InMemoryKvDatabase db;
  FlatStack inner;
  FaultPlan plan;
  plan.get_failure_rate = 1.0;  // Every snapshot download fails.
  FaultySnapshotStore snapshot_store(inner.flat, plan);
  CriuLikeEngine engine(3);
  PolicyStateStore state_store(db, (*profile)->name, config);
  Orchestrator orchestrator(**profile, WorkloadRegistry::Default(), *policy, engine,
                            snapshot_store, state_store, clock, /*seed=*/9);

  for (int lifetime = 0; lifetime < 5; ++lifetime) {
    auto session = orchestrator.StartWorker();
    ASSERT_TRUE(session.ok()) << session.status().ToString();
    EXPECT_FALSE(session->restored);  // Downloads always fail -> cold.
    for (uint64_t i = 0; i < 2; ++i) {
      ASSERT_TRUE(orchestrator.ServeRequest(*session, {i, 1.0}).ok());
    }
  }
  EXPECT_GT(snapshot_store.faults_injected(), 0u);
}

}  // namespace
}  // namespace pronghorn
