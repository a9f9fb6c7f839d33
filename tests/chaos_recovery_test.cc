// End-to-end recovery behavior of the orchestrator under injected failures:
// ranked fallback restores, quarantine of persistently corrupt snapshots,
// stale-entry pruning, degraded starts across Database outages with buffered
// observation replay, orphan GC, and policy convergence under a 10% fault
// rate. Complements fault_injection_test (decorator semantics) and
// orchestrator_test (healthy paths).

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/checkpoint/criu_like_engine.h"
#include "src/core/orchestrator.h"
#include "src/core/request_centric_policy.h"
#include "src/platform/analysis.h"
#include "src/platform/eviction.h"
#include "src/platform/simulate.h"
#include "src/store/fault_injection.h"
#include "src/store/kv_database.h"
#include "src/store/object_store.h"
#include "src/store/snapshot_store.h"

namespace pronghorn {
namespace {

PolicyConfig TestConfig() {
  PolicyConfig config;
  config.beta = 4;
  config.pool_capacity = 3;
  config.max_checkpoint_request = 30;
  return config;
}

// Per-function stack with direct access to the raw stores, so tests can
// damage specific blobs between lifetimes.
struct ChaosHarness {
  explicit ChaosHarness(const OrchestrationPolicy& policy_in,
                        RecoveryOptions recovery = RecoveryOptions{})
      : profile(**WorkloadRegistry::Default().Find("DynamicHTML")),
        policy(policy_in),
        engine(1),
        state_store(db, profile.name, policy.config()),
        snapshot_store(object_store),
        orchestrator(profile, WorkloadRegistry::Default(), policy, engine,
                     snapshot_store, state_store, clock, /*seed=*/7,
                     OrchestratorCostModel{}, recovery) {}

  const WorkloadProfile& profile;
  const OrchestrationPolicy& policy;
  SimClock clock;
  InMemoryKvDatabase db;
  InMemoryObjectStore object_store;
  CriuLikeEngine engine;
  PolicyStateStore state_store;
  FlatSnapshotStore snapshot_store;
  Orchestrator orchestrator;

  // Runs `count` full lifetimes of 4 requests each; with beta = 4 every
  // lifetime's checkpoint plan fires, growing the pool by one snapshot.
  void RunLifetimes(int count) {
    for (int lifetime = 0; lifetime < count; ++lifetime) {
      auto session = orchestrator.StartWorker();
      ASSERT_TRUE(session.ok()) << session.status().ToString();
      for (uint64_t i = 1; i <= 4; ++i) {
        auto outcome = orchestrator.ServeRequest(*session, {i, 1.0});
        ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
      }
    }
  }

  std::vector<PoolEntry> PoolEntries() {
    auto state = state_store.Load();
    EXPECT_TRUE(state.ok());
    const auto entries = state->pool.entries();
    return std::vector<PoolEntry>(entries.begin(), entries.end());
  }

  // Flips a byte in the middle of the stored image so the CRC check rejects
  // it at restore time.
  void CorruptBlob(const std::string& key) {
    auto blob = object_store.Get(key);
    ASSERT_TRUE(blob.ok());
    std::vector<uint8_t> bytes = blob->bytes();  // Private copy: the stored
    bytes[bytes.size() / 2] ^= 0xff;             // buffer is immutable.
    ASSERT_TRUE(
        object_store.Put(key, ObjectBlob(std::move(bytes), blob->logical_size)).ok());
  }
};

// The acceptance scenario: whichever single snapshot survives, the restore
// walks the policy's ranked candidates until it reaches the intact image —
// the worker never cold-starts while a restorable snapshot exists.
TEST(ChaosRecoveryTest, RestoreFallsBackToNextBestCandidateBeforeColdStart) {
  const auto policy = RequestCentricPolicy::Create(TestConfig());
  ASSERT_TRUE(policy.ok());

  uint64_t total_fallbacks = 0;
  size_t pool_size = 0;
  // One run per choice of survivor. Every harness is built from the same
  // seeds, so all runs see the identical pool and candidate ranking; exactly
  // one choice coincides with the policy's first pick (no fallback needed),
  // every other choice forces the walk past at least one corrupt candidate.
  for (size_t keep = 0; keep < 3; ++keep) {
    ChaosHarness h(*policy);
    h.RunLifetimes(3);
    const std::vector<PoolEntry> entries = h.PoolEntries();
    ASSERT_EQ(entries.size(), 3u);
    pool_size = entries.size();
    for (size_t i = 0; i < entries.size(); ++i) {
      if (i != keep) {
        h.CorruptBlob(entries[i].object_key);
      }
    }

    auto session = h.orchestrator.StartWorker();
    ASSERT_TRUE(session.ok());
    EXPECT_TRUE(session->restored) << "survivor " << keep << " not reached";
    EXPECT_EQ(session->restored_from.value, entries[keep].metadata.id.value);
    total_fallbacks += h.orchestrator.recovery_stats().restore_fallbacks;
  }
  // All but the first-ranked survivor required an actual fallback restore.
  EXPECT_EQ(total_fallbacks, pool_size - 1);
}

// A snapshot that keeps failing accumulates strikes in the shared ledger and
// is quarantined at the threshold: evicted from the pool, its blob deleted.
TEST(ChaosRecoveryTest, PersistentlyCorruptSnapshotsAreQuarantined) {
  const auto policy = RequestCentricPolicy::Create(TestConfig());
  ASSERT_TRUE(policy.ok());
  ChaosHarness h(*policy);
  h.RunLifetimes(3);
  const std::vector<PoolEntry> entries = h.PoolEntries();
  ASSERT_EQ(entries.size(), 3u);
  for (const PoolEntry& entry : entries) {
    h.CorruptBlob(entry.object_key);
  }

  // Default quarantine threshold is 3 strikes; each start attempts every
  // ranked candidate, so three starts exhaust every snapshot's strikes.
  for (int start = 0; start < 3; ++start) {
    auto session = h.orchestrator.StartWorker();
    ASSERT_TRUE(session.ok());
    EXPECT_FALSE(session->restored);  // Never a half-built session.
  }

  const RecoveryStats& stats = h.orchestrator.recovery_stats();
  EXPECT_EQ(stats.snapshots_quarantined, 3u);
  EXPECT_GE(stats.restore_attempt_failures, 9u);

  auto state = h.state_store.Load();
  ASSERT_TRUE(state.ok());
  EXPECT_EQ(state->pool.size(), 0u);                 // Evicted from the pool.
  EXPECT_TRUE(state->restore_failures.empty());      // Ledger entries cleared.
  EXPECT_TRUE(h.object_store.ListKeys("snapshots/").empty());  // Blobs deleted.
}

// A successful restore clears any strikes the snapshot accumulated from
// earlier transient trouble, so healthy snapshots never age into quarantine.
TEST(ChaosRecoveryTest, SuccessfulRestoreClearsLedgerStrikes) {
  const auto policy = RequestCentricPolicy::Create(TestConfig());
  ASSERT_TRUE(policy.ok());
  ChaosHarness h(*policy);
  h.RunLifetimes(1);
  const std::vector<PoolEntry> entries = h.PoolEntries();
  ASSERT_EQ(entries.size(), 1u);

  // Plant two strikes (one shy of the threshold) as if earlier restores had
  // failed transiently.
  ASSERT_TRUE(h.state_store
                  .Update([&](PolicyState& state) {
                    state.restore_failures[entries[0].metadata.id.value] = 2;
                  })
                  .ok());

  auto session = h.orchestrator.StartWorker();
  ASSERT_TRUE(session.ok());
  EXPECT_TRUE(session->restored);
  auto state = h.state_store.Load();
  ASSERT_TRUE(state.ok());
  EXPECT_TRUE(state->restore_failures.empty());
  EXPECT_EQ(h.orchestrator.recovery_stats().snapshots_quarantined, 0u);
}

// A pool entry whose object vanished (concurrent eviction) is pruned rather
// than repeatedly retried, and the worker cold-starts cleanly.
TEST(ChaosRecoveryTest, MissingObjectPrunesStaleEntryAndColdStarts) {
  const auto policy = RequestCentricPolicy::Create(TestConfig());
  ASSERT_TRUE(policy.ok());
  ChaosHarness h(*policy);
  h.RunLifetimes(1);
  const std::vector<PoolEntry> entries = h.PoolEntries();
  ASSERT_EQ(entries.size(), 1u);
  ASSERT_TRUE(h.object_store.Delete(entries[0].object_key).ok());

  auto session = h.orchestrator.StartWorker();
  ASSERT_TRUE(session.ok());
  EXPECT_FALSE(session->restored);
  EXPECT_EQ(session->process.requests_executed(), 0u);
  EXPECT_EQ(h.orchestrator.recovery_stats().stale_entries_pruned, 1u);
  auto state = h.state_store.Load();
  ASSERT_TRUE(state.ok());
  EXPECT_EQ(state->pool.size(), 0u);
}

// Database outage at launch: the worker still comes up (degraded cold start,
// no checkpoint plan), buffers its latency observations locally, and replays
// them with the first knowledge write after the Database recovers.
TEST(ChaosRecoveryTest, DatabaseOutageDegradesStartAndReplaysBufferedObservations) {
  const auto policy = RequestCentricPolicy::Create(TestConfig());
  ASSERT_TRUE(policy.ok());
  const WorkloadProfile& profile = **WorkloadRegistry::Default().Find("DynamicHTML");

  SimClock clock;
  InMemoryKvDatabase inner_db;
  FaultPlan plan;
  FaultWindow window;
  window.kind = FaultWindow::Kind::kOutage;
  window.domain = FaultDomain::kDatabase;
  window.start = TimePoint();
  window.end = TimePoint() + Duration::Seconds(3600);
  plan.windows.push_back(window);
  FaultyKvDatabase db(inner_db, plan, &clock);

  InMemoryObjectStore object_store;
  CriuLikeEngine engine(1);
  PolicyStateStore state_store(db, profile.name, policy->config(), &clock);
  FlatSnapshotStore snapshot_store(object_store);
  Orchestrator orchestrator(profile, WorkloadRegistry::Default(), *policy, engine,
                            snapshot_store, state_store, clock, /*seed=*/7);

  auto session = orchestrator.StartWorker();
  ASSERT_TRUE(session.ok());
  EXPECT_TRUE(session->degraded);
  EXPECT_FALSE(session->restored);
  EXPECT_FALSE(session->checkpoint_at.has_value());
  EXPECT_EQ(orchestrator.recovery_stats().degraded_starts, 1u);

  // Three requests inside the outage: served fine, knowledge buffered.
  for (uint64_t i = 1; i <= 3; ++i) {
    auto outcome = orchestrator.ServeRequest(*session, {i, 1.0});
    ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  }
  EXPECT_EQ(orchestrator.recovery_stats().observations_buffered, 3u);
  EXPECT_TRUE(inner_db.ListKeys("").empty());  // Nothing committed yet.

  // Database recovers; the next request's write flushes the backlog.
  clock.AdvanceTo(TimePoint() + Duration::Seconds(3601));
  auto outcome = orchestrator.ServeRequest(*session, {4, 1.0});
  ASSERT_TRUE(outcome.ok());
  EXPECT_EQ(orchestrator.recovery_stats().observations_replayed, 3u);

  auto state = state_store.Load();
  ASSERT_TRUE(state.ok());
  for (uint64_t i = 1; i <= 4; ++i) {
    EXPECT_TRUE(state->theta.IsExplored(i)) << "request " << i;
  }
}

// Orphaned blobs under the deployment's prefix (torn writes, failed metadata
// commits, deferred eviction deletes) are reaped by GC; referenced snapshots
// are left alone.
TEST(ChaosRecoveryTest, CollectOrphanedObjectsReapsOnlyUnreferencedBlobs) {
  const auto policy = RequestCentricPolicy::Create(TestConfig());
  ASSERT_TRUE(policy.ok());
  ChaosHarness h(*policy);
  h.RunLifetimes(1);
  const std::vector<PoolEntry> entries = h.PoolEntries();
  ASSERT_EQ(entries.size(), 1u);

  const std::string orphan_key = "snapshots/" + h.profile.name + "/999999";
  ObjectBlob orphan({0xde, 0xad, 0xbe, 0xef}, 4);
  ASSERT_TRUE(h.object_store.Put(orphan_key, std::move(orphan)).ok());

  auto collected = h.orchestrator.CollectOrphanedObjects();
  ASSERT_TRUE(collected.ok());
  EXPECT_EQ(*collected, 1u);
  EXPECT_FALSE(h.object_store.Contains(orphan_key));
  EXPECT_TRUE(h.object_store.Contains(entries[0].object_key));
  EXPECT_EQ(h.orchestrator.recovery_stats().orphans_collected, 1u);
}

// The Table-4 acceptance bar: with 10% transient faults on every store and
// database operation (plus image corruption), the request-centric policy
// still converges within W + 100 requests of the fault-free budget.
TEST(ChaosRecoveryTest, PolicyConvergesUnderTenPercentFaultRate) {
  const WorkloadProfile& profile = **WorkloadRegistry::Default().Find("DynamicHTML");
  PolicyConfig config;
  config.beta = 4;
  config.pool_capacity = 12;
  config.max_checkpoint_request = 100;
  config.retain_top_percent = 40.0;
  config.retain_random_percent = 10.0;
  const auto policy = RequestCentricPolicy::Create(config);
  ASSERT_TRUE(policy.ok());
  SimOptions options;
  options.seed = 42;
  options.worker_slots = 1;
  options.exploring_slots = 1;
  options.eviction.kind = FleetEvictionSpec::Kind::kEveryK;
  options.eviction.k = 4;
  options.faults.get_failure_rate = 0.10;
  options.faults.put_failure_rate = 0.10;
  options.faults.delete_failure_rate = 0.10;
  options.faults.metadata_failure_rate = 0.10;
  options.faults.corruption_rate = 0.02;
  SimFunctionSpec spec;
  spec.name = profile.name;
  spec.profile = &profile;
  spec.policy = &*policy;
  spec.requests = 600;
  auto simulated = Simulate(WorkloadRegistry::Default(), SimTopology::kSingle,
                            {&spec, 1}, options);
  ASSERT_TRUE(simulated.ok()) << simulated.status().ToString();
  const SimulationReport& report = simulated->flat();

  // Faults actually fired, and the recovery machinery absorbed them.
  EXPECT_GT(report.faults.store_faults + report.faults.db_faults, 0u);

  const auto convergence = ConvergenceRequest(report.records, 20, 0.02);
  ASSERT_TRUE(convergence.has_value());
  EXPECT_LE(*convergence, config.max_checkpoint_request + 100);
}

}  // namespace
}  // namespace pronghorn
