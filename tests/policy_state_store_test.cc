#include "src/core/policy_state_store.h"

#include <gtest/gtest.h>

#include "src/common/rng.h"
#include "src/store/fault_injection.h"

namespace pronghorn {
namespace {

PolicyConfig TestConfig() {
  PolicyConfig config;
  config.beta = 5;
  config.max_checkpoint_request = 20;
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

TEST(PolicyStateCodecTest, RoundTrip) {
  PolicyState state(TestConfig());
  state.theta.Update(3, 0.05, 0.3);
  ASSERT_TRUE(state.pool.Add(Entry(1, 3)).ok());

  const auto encoded = EncodePolicyState(state);
  auto decoded = DecodePolicyState(encoded);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(*decoded, state);
}

TEST(PolicyStateCodecTest, RejectsBadVersion) {
  PolicyState state(TestConfig());
  auto encoded = EncodePolicyState(state);
  encoded[0] = 0xfe;  // Clobber the format version.
  EXPECT_EQ(DecodePolicyState(encoded).status().code(), StatusCode::kDataLoss);
}

TEST(PolicyStateCodecTest, RejectsTrailingBytes) {
  PolicyState state(TestConfig());
  auto encoded = EncodePolicyState(state);
  encoded.push_back(0x00);
  EXPECT_FALSE(DecodePolicyState(encoded).ok());
}

// The per-element encoder EncodePolicyState replaced, kept verbatim: one
// WriteDouble per theta entry and every pool field re-encoded on each call.
std::vector<uint8_t> ReferenceEncode(const PolicyState& state) {
  ByteWriter writer;
  writer.WriteUint32(3);
  writer.WriteVarint(state.theta.length());
  for (uint32_t i = 0; i < state.theta.length(); ++i) {
    writer.WriteDouble(state.theta.At(i));
  }
  writer.WriteVarint(state.pool.entries().size());
  for (const PoolEntry& entry : state.pool.entries()) {
    writer.WriteUint64(entry.metadata.id.value);
    writer.WriteString(entry.metadata.function);
    writer.WriteVarint(entry.metadata.request_number);
    writer.WriteVarint(entry.metadata.logical_size_bytes);
    writer.WriteInt64(entry.metadata.created_at.ToMicros());
    writer.WriteString(entry.object_key);
  }
  writer.WriteVarint(state.restore_failures.size());
  for (const auto& [id, count] : state.restore_failures) {
    writer.WriteVarint(id);
    writer.WriteVarint(count);
  }
  writer.WriteVarint(state.commit_marks.size());
  for (const auto& [scope, mark] : state.commit_marks) {
    writer.WriteVarint(scope);
    writer.WriteVarint(mark);
  }
  return writer.TakeData();
}

PolicyState RandomState(Rng& rng) {
  PolicyState state(TestConfig());
  if (rng.Bernoulli(0.75)) {  // Otherwise theta stays all zero.
    for (uint64_t i = 0; i < state.theta.length(); ++i) {
      if (rng.Bernoulli(0.6)) {
        state.theta.Update(i, 1e-4 + rng.UniformDouble(), 0.3);
      }
    }
  }
  const uint64_t pool_size = rng.UniformUint64(17);
  for (uint64_t n = 0; n < pool_size; ++n) {
    PoolEntry entry = Entry(rng.NextUint64(), rng.UniformUint64(1ULL << 40));
    entry.metadata.function = std::string(rng.UniformUint64(200), 'f');
    entry.metadata.logical_size_bytes = rng.NextUint64() >> rng.UniformUint64(64);
    entry.metadata.created_at =
        TimePoint::FromMicros(static_cast<int64_t>(rng.NextUint64() >> 1) * -1);
    (void)state.pool.Add(std::move(entry));
  }
  const uint64_t failures = rng.UniformUint64(5);
  for (uint64_t n = 0; n < failures; ++n) {
    state.restore_failures[rng.NextUint64() >> rng.UniformUint64(64)] =
        static_cast<uint32_t>(rng.NextUint64());
  }
  const uint64_t marks = rng.UniformUint64(5);
  for (uint64_t n = 0; n < marks; ++n) {
    state.commit_marks[static_cast<uint32_t>(rng.NextUint64())] = rng.NextUint64();
  }
  return state;
}

TEST(PolicyStateCodecTest, EncodingIsByteIdenticalToPerElementReference) {
  Rng rng(77);
  for (int trial = 0; trial < 300; ++trial) {
    PolicyState state = RandomState(rng);
    const std::vector<uint8_t> reference = ReferenceEncode(state);
    ASSERT_EQ(EncodePolicyState(state), reference) << "trial " << trial;
    // Second encode splices the memoized pool section.
    ASSERT_EQ(EncodePolicyState(state), reference) << "trial " << trial;
    // A copy shares the memo and encodes the same bytes.
    const PolicyState copy = state;
    ASSERT_EQ(EncodePolicyState(copy), reference) << "trial " << trial;
    // A learn-only update keeps the memo; the theta bytes must still move.
    state.theta.Update(rng.UniformUint64(state.theta.length()), 0.5, 0.3);
    ASSERT_EQ(EncodePolicyState(state), ReferenceEncode(state)) << "trial " << trial;
    // Round trip through the decoder.
    auto decoded = DecodePolicyState(reference);
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    ASSERT_EQ(*decoded, copy);
  }
}

TEST(PolicyStateCodecTest, DecodeRejectsNegativeLatency) {
  PolicyState state(TestConfig());
  state.theta.Update(2, 0.25, 0.3);
  std::vector<uint8_t> encoded = EncodePolicyState(state);
  // Version (4 bytes) + theta length varint (1 byte) precede theta[0]; set
  // the sign bit of theta[2].
  encoded[4 + 1 + 2 * 8 + 7] |= 0x80;
  EXPECT_EQ(DecodePolicyState(encoded).status().code(), StatusCode::kDataLoss);
}

TEST(PolicyStateStoreTest, CacheHitReadsVersionWithoutCopyingTheBlob) {
  // The cached store probes with GetVersionedIfChanged: one read per Load or
  // Update exactly like GetVersioned, and the trajectory matches a store
  // with the cache off.
  InMemoryKvDatabase db_cached;
  InMemoryKvDatabase db_plain;
  PolicyStateStore cached(db_cached, "fn", TestConfig());
  PolicyStateStore plain(db_plain, "fn", TestConfig(), nullptr, StateStoreRetryPolicy{},
                         /*enable_cache=*/false);
  for (int i = 0; i < 12; ++i) {
    const auto learn = [i](PolicyState& state) {
      state.theta.Update(static_cast<uint64_t>(i % 7), 0.01 * (i + 1), 0.3);
      if (i % 4 == 0) {
        (void)state.pool.Add(Entry(static_cast<uint64_t>(i + 1), 3));
      }
    };
    ASSERT_TRUE(cached.Update(learn).ok());
    ASSERT_TRUE(plain.Update(learn).ok());
    ASSERT_EQ(**cached.Load(), **plain.Load());
  }
  EXPECT_GT(cached.cache_stats().hits, 0u);
  EXPECT_EQ(db_cached.accounting().reads, db_plain.accounting().reads);
  EXPECT_EQ(db_cached.GetVersioned("policy/fn/state")->value,
            db_plain.GetVersioned("policy/fn/state")->value);
}

TEST(PolicyStateStoreTest, LoadFreshStateWhenAbsent) {
  InMemoryKvDatabase db;
  PolicyStateStore store(db, "fn", TestConfig());
  auto state = store.Load();
  ASSERT_TRUE(state.ok());
  EXPECT_EQ(state->theta.length(), TestConfig().WeightVectorLength());
  EXPECT_TRUE(state->pool.empty());
}

TEST(PolicyStateStoreTest, UpdatePersistsMutation) {
  InMemoryKvDatabase db;
  PolicyStateStore store(db, "fn", TestConfig());
  ASSERT_TRUE(store
                  .Update([](PolicyState& state) {
                    state.theta.Update(2, 0.5, 0.3);
                  })
                  .ok());
  auto state = store.Load();
  ASSERT_TRUE(state.ok());
  EXPECT_DOUBLE_EQ(state->theta.At(2), 0.5);
}

TEST(PolicyStateStoreTest, UpdatesAccumulate) {
  InMemoryKvDatabase db;
  PolicyStateStore store(db, "fn", TestConfig());
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(store
                    .Update([i](PolicyState& state) {
                      state.theta.Update(static_cast<uint64_t>(i), 0.1, 0.3);
                    })
                    .ok());
  }
  auto state = store.Load();
  ASSERT_TRUE(state.ok());
  EXPECT_EQ(state->theta.ExploredCount(), 10u);
}

TEST(PolicyStateStoreTest, FunctionsAreIsolated) {
  InMemoryKvDatabase db;
  PolicyStateStore store_a(db, "fn-a", TestConfig());
  PolicyStateStore store_b(db, "fn-b", TestConfig());
  ASSERT_TRUE(
      store_a.Update([](PolicyState& state) { state.theta.Update(1, 0.7, 0.3); }).ok());
  auto state_b = store_b.Load();
  ASSERT_TRUE(state_b.ok());
  EXPECT_EQ(state_b->theta.ExploredCount(), 0u);
}

TEST(PolicyStateStoreTest, CasRetryHandlesConcurrentWriter) {
  // Two stores over one database: each applies many increments to disjoint
  // theta entries; interleaved CAS retries must not lose updates.
  InMemoryKvDatabase db;
  PolicyStateStore store_a(db, "fn", TestConfig());
  PolicyStateStore store_b(db, "fn", TestConfig());
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(
        store_a.Update([](PolicyState& state) { state.theta.Update(1, 0.1, 1.0); })
            .ok());
    ASSERT_TRUE(
        store_b.Update([](PolicyState& state) { state.theta.Update(2, 0.2, 1.0); })
            .ok());
  }
  auto state = store_a.Load();
  ASSERT_TRUE(state.ok());
  EXPECT_DOUBLE_EQ(state->theta.At(1), 0.1);
  EXPECT_DOUBLE_EQ(state->theta.At(2), 0.2);
}

TEST(PolicyStateStoreTest, MutatorRerunsAgainstFreshStateOnConflict) {
  // Simulate a conflicting write landing between a reader's Load and CAS by
  // mutating through a second store inside the first mutation's first run.
  InMemoryKvDatabase db;
  PolicyStateStore store(db, "fn", TestConfig());
  PolicyStateStore rival(db, "fn", TestConfig());
  int runs = 0;
  ASSERT_TRUE(store
                  .Update([&](PolicyState& state) {
                    ++runs;
                    if (runs == 1) {
                      // Interleave a rival write -> our CAS must conflict.
                      ASSERT_TRUE(rival
                                      .Update([](PolicyState& s) {
                                        s.theta.Update(5, 0.9, 1.0);
                                      })
                                      .ok());
                    }
                    state.theta.Update(6, 0.4, 1.0);
                  })
                  .ok());
  EXPECT_EQ(runs, 2);  // First run conflicted, second committed.
  auto state = store.Load();
  ASSERT_TRUE(state.ok());
  EXPECT_DOUBLE_EQ(state->theta.At(5), 0.9);  // Rival update survived.
  EXPECT_DOUBLE_EQ(state->theta.At(6), 0.4);
  EXPECT_GE(db.accounting().cas_conflicts, 1u);
}

TEST(PolicyStateStoreTest, SnapshotIdsAreUniqueAndMonotonic) {
  InMemoryKvDatabase db;
  PolicyStateStore store(db, "fn", TestConfig());
  uint64_t previous = 0;
  for (int i = 0; i < 25; ++i) {
    auto id = store.AllocateSnapshotId();
    ASSERT_TRUE(id.ok());
    EXPECT_GT(id->value, previous);
    previous = id->value;
  }
}

TEST(PolicyStateStoreTest, IdSequencesArePerFunction) {
  InMemoryKvDatabase db;
  PolicyStateStore store_a(db, "fn-a", TestConfig());
  PolicyStateStore store_b(db, "fn-b", TestConfig());
  EXPECT_EQ(store_a.AllocateSnapshotId()->value, 1u);
  EXPECT_EQ(store_a.AllocateSnapshotId()->value, 2u);
  EXPECT_EQ(store_b.AllocateSnapshotId()->value, 1u);
}

TEST(PolicyStateStoreTest, CorruptBlobSurfacesDataLoss) {
  InMemoryKvDatabase db;
  ASSERT_TRUE(db.Put("policy/fn/state", {0x01, 0x02}).ok());
  PolicyStateStore store(db, "fn", TestConfig());
  EXPECT_FALSE(store.Load().ok());
}

TEST(PolicyStateCodecTest, RoundTripsRestoreFailureLedger) {
  // v2 of the blob format appends the restore-failure strike ledger.
  PolicyState state(TestConfig());
  state.theta.Update(3, 0.05, 0.3);
  ASSERT_TRUE(state.pool.Add(Entry(1, 3)).ok());
  state.restore_failures[1] = 2;
  state.restore_failures[9] = 1;

  const auto encoded = EncodePolicyState(state);
  auto decoded = DecodePolicyState(encoded);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(*decoded, state);
  EXPECT_EQ(decoded->restore_failures.size(), 2u);
  EXPECT_EQ(decoded->restore_failures.at(1), 2u);
  EXPECT_EQ(decoded->restore_failures.at(9), 1u);
}

TEST(PolicyStateStoreTest, HeldSnapshotKeepsItsContentsAcrossUpdate) {
  InMemoryKvDatabase db;
  PolicyStateStore store(db, "fn", TestConfig());
  ASSERT_TRUE(store
                  .Update([](PolicyState& state) {
                    state.theta.Update(2, 0.5, 1.0);
                    (void)state.pool.Add(Entry(1, 3));
                  })
                  .ok());
  auto held = store.Load();
  ASSERT_TRUE(held.ok());
  const PolicyState before = **held;
  const uint64_t misses = store.cache_stats().misses;
  const uint64_t cas_attempts = store.stats().cas_attempts;

  // Copy-on-write: the update works on a copy of the cached state, so the
  // held snapshot is untouched, and it still commits with one CAS and no
  // decode.
  ASSERT_TRUE(store
                  .Update([](PolicyState& state) {
                    state.theta.Update(2, 0.9, 1.0);
                    state.pool.Remove(SnapshotId{1});
                  })
                  .ok());
  EXPECT_EQ(**held, before);
  EXPECT_DOUBLE_EQ(held->theta.At(2), 0.5);
  EXPECT_EQ(held->pool.size(), 1u);
  EXPECT_EQ(store.stats().cas_attempts, cas_attempts + 1);
  EXPECT_EQ(store.cache_stats().misses, misses);

  // The next Load serves the updated state from the cache.
  auto fresh = store.Load();
  ASSERT_TRUE(fresh.ok());
  EXPECT_DOUBLE_EQ(fresh->theta.At(2), 0.9);
  EXPECT_TRUE(fresh->pool.empty());
  EXPECT_NE(fresh.value().get(), held.value().get());
  EXPECT_EQ(store.cache_stats().misses, misses);
}

TEST(PolicyStateStoreTest, UpdateMutatesAnUnheldStateInPlace) {
  InMemoryKvDatabase db;
  PolicyStateStore store(db, "fn", TestConfig());
  ASSERT_TRUE(store.Update([](PolicyState& state) { state.theta.Update(1, 0.1, 1.0); }).ok());
  const PolicyState* cached = store.Load().value().get();  // Snapshot released.
  ASSERT_TRUE(store.Update([](PolicyState& state) { state.theta.Update(1, 0.2, 1.0); }).ok());
  auto loaded = store.Load();
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded.value().get(), cached);
  EXPECT_DOUBLE_EQ(loaded->theta.At(1), 0.2);
  EXPECT_EQ(store.cache_stats().misses, 0u);
}

TEST(PolicyStateStoreTest, SnapshotsWithoutTheCacheAreIndependent) {
  InMemoryKvDatabase db;
  PolicyStateStore store(db, "fn", TestConfig(), nullptr, StateStoreRetryPolicy{},
                         /*enable_cache=*/false);
  ASSERT_TRUE(store.Update([](PolicyState& state) { state.theta.Update(1, 0.1, 1.0); }).ok());
  auto first = store.Load();
  ASSERT_TRUE(store.Update([](PolicyState& state) { state.theta.Update(1, 0.3, 1.0); }).ok());
  auto second = store.Load();
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  EXPECT_DOUBLE_EQ(first->theta.At(1), 0.1);
  EXPECT_DOUBLE_EQ(second->theta.At(1), 0.3);
}

TEST(PolicyStateStoreTest, StatsCountLoadsUpdatesAndCasAttempts) {
  InMemoryKvDatabase db;
  PolicyStateStore store(db, "fn", TestConfig());
  ASSERT_TRUE(store.Load().ok());
  ASSERT_TRUE(
      store.Update([](PolicyState& state) { state.theta.Update(1, 0.1, 0.3); }).ok());
  const StateStoreStats& stats = store.stats();
  // Update reads the versioned blob directly; only Load() counts as a load.
  EXPECT_EQ(stats.loads, 1u);
  EXPECT_EQ(stats.updates, 1u);
  EXPECT_EQ(stats.cas_attempts, 1u);
  EXPECT_EQ(stats.cas_conflicts, 0u);
  EXPECT_EQ(stats.transient_retries, 0u);
}

TEST(PolicyStateStoreTest, TransientFailuresRetryWithBackoffInSimulatedTime) {
  // A database-domain outage that ends mid-retry: the first attempts fail,
  // backoff advances the simulated clock past the window's end, and the
  // operation then succeeds without surfacing an error.
  SimClock clock;
  InMemoryKvDatabase inner;
  FaultPlan plan;
  FaultWindow window;
  window.domain = FaultDomain::kDatabase;
  window.start = TimePoint();
  window.end = TimePoint() + Duration::Millis(5);
  plan.windows.push_back(window);
  FaultyKvDatabase db(inner, plan, &clock);

  PolicyStateStore store(db, "fn", TestConfig(), &clock);
  ASSERT_TRUE(
      store.Update([](PolicyState& state) { state.theta.Update(1, 0.1, 0.3); }).ok());
  const StateStoreStats& stats = store.stats();
  EXPECT_GE(stats.transient_retries, 1u);
  EXPECT_GT(stats.total_backoff, Duration::Zero());
  EXPECT_EQ(clock.now(), TimePoint() + stats.total_backoff);
}

TEST(PolicyStateStoreTest, ExhaustedTransientRetriesSurfaceUnavailable) {
  // Under a permanent outage every retry burns out and the caller sees
  // kUnavailable (which the orchestrator turns into a degraded start).
  SimClock clock;
  InMemoryKvDatabase inner;
  FaultPlan plan;
  FaultWindow window;
  window.domain = FaultDomain::kDatabase;
  window.start = TimePoint();
  window.end = TimePoint() + Duration::Seconds(3600);
  plan.windows.push_back(window);
  FaultyKvDatabase db(inner, plan, &clock);

  StateStoreRetryPolicy retry;
  retry.max_transient_retries = 3;
  PolicyStateStore store(db, "fn", TestConfig(), &clock, retry);
  EXPECT_EQ(store.Load().status().code(), StatusCode::kUnavailable);
  EXPECT_EQ(store.stats().transient_retries, 3u);
  EXPECT_GT(clock.now(), TimePoint());  // Backoff happened in simulated time.
}

}  // namespace
}  // namespace pronghorn
