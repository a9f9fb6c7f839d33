// Crash-tolerance battery for the live orchestrator service (DESIGN.md §12).
// Seeded shard crashes at every stage of the envelope lifecycle — before
// processing (kEnqueue), after the reply but before the group commit
// (kMidBatch), and after the commit but before the journal truncates
// (kPreTruncate) — must leave the books balanced and the policy state
// bit-identical to a crash-free run: zero lost observations, zero duplicated
// observations. The write-ahead journal plus the policy-state blob's per-slot
// commit high-water mark are the mechanism under test.
//
//   - Fleet digest: crash injection is digest-neutral in simulation runs at
//     --threads {1, 2, 8} (synchronous clients never defer, so recovery has
//     nothing to replay — but every crash still fires and every shard still
//     recovers).
//   - Deferred exactly-once: a group-commit client crashed at all three
//     stages converges to the same PolicyState (weights, pool, high-water
//     mark) as the crash-free run, with the per-stage replay/dedup counters
//     exactly as the stage semantics predict.
//   - Cross-instance recovery: a journal left behind by a dead service is
//     replayed and truncated at Bind time, and new sequences resume above it.
//   - Torn tails: a partial or corrupt tail record is dropped and counted,
//     never misparsed.
//   - Backpressure: a stalled shard with a full queue sheds start decisions
//     past the deadline; an armed ServiceClient fallback degrades the shed
//     into a local cold session instead of a failure.

#include "src/service/orchestrator_service.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/checkpoint/criu_like_engine.h"
#include "src/common/rng.h"
#include "src/core/request_centric_policy.h"
#include "src/platform/simulate.h"
#include "src/service/journal.h"
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

// Fresh per-test journal directory under gtest's temp root.
std::string JournalDir(const std::string& name) {
  const std::filesystem::path dir =
      std::filesystem::path(::testing::TempDir()) / ("pronghorn_" + name);
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir.string();
}

// Single-slot flavor of the concurrency battery's per-function stack.
struct FunctionStack {
  FunctionStack(const OrchestrationPolicy& policy, const std::string& name_in,
                uint64_t seed)
      : name(name_in),
        profile(**WorkloadRegistry::Default().Find("DynamicHTML")),
        engine(HashCombine(seed, 0xe1)),
        state_store(db, name_in, policy.config()),
        snapshot_store(object_store) {
    orchestrator = std::make_unique<Orchestrator>(
        profile, WorkloadRegistry::Default(), policy, engine, snapshot_store,
        state_store, clock, HashCombine(seed, 0));
  }

  std::string name;
  const WorkloadProfile& profile;
  SimClock clock;
  InMemoryKvDatabase db;
  InMemoryObjectStore object_store;
  CriuLikeEngine engine;
  PolicyStateStore state_store;
  FlatSnapshotStore snapshot_store;
  std::unique_ptr<Orchestrator> orchestrator;
};

// ---------------------------------------------------------------------------
// Fleet digest: crash injection must be invisible in simulation reports.
// ---------------------------------------------------------------------------

std::vector<SimFunctionSpec> TwoFunctionSpecs(const RequestCentricPolicy& policy,
                                              const WorkloadRegistry& registry,
                                              uint64_t requests) {
  const auto dynamic_html = registry.Find("DynamicHTML");
  const auto bfs = registry.Find("BFS");
  EXPECT_TRUE(dynamic_html.ok());
  EXPECT_TRUE(bfs.ok());
  std::vector<SimFunctionSpec> specs;
  for (const WorkloadProfile* profile : {*dynamic_html, *bfs}) {
    SimFunctionSpec spec;
    spec.name = profile->name;
    spec.profile = profile;
    spec.policy = &policy;
    spec.requests = requests;
    specs.push_back(spec);
  }
  return specs;
}

TEST(ServiceCrashTest, FleetDigestUnchangedByCrashInjection) {
  const auto policy = RequestCentricPolicy::Create(TestConfig());
  ASSERT_TRUE(policy.ok());
  const auto& registry = WorkloadRegistry::Default();
  const std::vector<SimFunctionSpec> specs =
      TwoFunctionSpecs(*policy, registry, /*requests=*/120);

  // All envelopes route to one shard so every scheduled crash is reached
  // regardless of which functions hash where. The journal directory differs
  // per run but the journal *setting* does not: journaled Binds read the
  // high-water mark, so digests only compare at matched journal config.
  std::vector<uint32_t> digests;
  for (const uint32_t threads : {1u, 2u, 8u}) {
    for (const bool crashes : {false, true}) {
      ServiceConfig config;
      config.shards = 1;
      config.queue_capacity = 64;
      config.max_batch = 8;
      config.journal_dir = JournalDir(
          "fleet_" + std::to_string(threads) + (crashes ? "_crash" : "_clean"));
      if (crashes) {
        config.faults.crashes = {
            {.shard = 0, .at_op = 5, .stage = ServiceCrashStage::kEnqueue},
            {.shard = 0, .at_op = 9, .stage = ServiceCrashStage::kMidBatch},
            {.shard = 0, .at_op = 13, .stage = ServiceCrashStage::kPreTruncate},
        };
      }
      OrchestratorService service(config);

      SimOptions options;
      options.seed = 7;
      options.threads = threads;
      options.eviction.kind = FleetEvictionSpec::Kind::kEveryK;
      options.eviction.k = 4;
      options.service.enabled = true;
      options.service.instance = &service;
      auto report = Simulate(registry, SimTopology::kFleet, specs, options);
      ASSERT_TRUE(report.ok()) << report.status().ToString();
      service.Shutdown();

      const ServiceStatsSnapshot stats = service.stats();
      if (crashes) {
        // Digest neutrality over a run where nothing crashed would prove
        // nothing: every scheduled crash must actually have fired and every
        // dead shard must have been recovered.
        EXPECT_EQ(stats.crashes_injected, 3u);
        EXPECT_EQ(stats.shards_recovered, 3u);
      } else {
        EXPECT_EQ(stats.crashes_injected, 0u);
      }
      // Synchronous clients never defer, so recovery found empty journals.
      EXPECT_EQ(stats.journal_replayed, 0u);
      EXPECT_EQ(stats.flush_errors, 0u);
      digests.push_back(report->Digest());
    }
  }
  for (const uint32_t digest : digests) {
    EXPECT_EQ(digest, digests.front());
  }
}

// ---------------------------------------------------------------------------
// Deferred exactly-once: crashes at every stage, books balanced, state equal.
// ---------------------------------------------------------------------------

struct JournaledRunResult {
  ServiceStatsSnapshot stats;
  PolicyState state{PolicyConfig{}};
  uint64_t high_water = 0;
  uint64_t observations_issued = 0;
};

// Drives 3 sessions x 6 deferred observations through a single-shard
// journaled service under `faults`, drains, and harvests the books. The
// flush interval is effectively infinite so batch boundaries come only from
// max_batch and barriers — which makes the per-stage op arithmetic in the
// crash plans below exact.
JournaledRunResult RunJournaledWorkload(const ServiceFaultPlan& faults,
                                        const std::string& journal_dir) {
  JournaledRunResult result;
  const auto policy = RequestCentricPolicy::Create(TestConfig());
  EXPECT_TRUE(policy.ok());
  FunctionStack stack(*policy, "crash-fn", /*seed=*/4242);

  ServiceConfig config;
  config.shards = 1;
  config.queue_capacity = 16;
  config.max_batch = 4;
  config.flush_interval = Duration::Seconds(1e6);
  config.journal_dir = journal_dir;
  config.faults = faults;
  OrchestratorService service(config);
  EXPECT_TRUE(service.Bind(stack.name, 0, stack.orchestrator.get(), &stack.clock).ok());

  ServiceClient client(&service, stack.name, 0, /*defer_commit=*/true);
  for (uint32_t cycle = 0; cycle < 3; ++cycle) {
    const auto view = client.StartWorker();
    EXPECT_TRUE(view.ok()) << view.status().ToString();
    for (uint64_t i = 0; i < 6; ++i) {
      const auto outcome = client.ServeRequest({i, 1.0});
      EXPECT_TRUE(outcome.ok()) << outcome.status().ToString();
      ++result.observations_issued;
    }
    const SessionEnd end = client.EndSession();
    EXPECT_TRUE(end.retired);
  }
  EXPECT_TRUE(service.Drain().ok());

  result.stats = service.stats();
  const auto high_water = stack.orchestrator->CommittedHighWater();
  EXPECT_TRUE(high_water.ok()) << high_water.status().ToString();
  result.high_water = high_water.ok() ? *high_water : 0;
  const auto state = stack.state_store.Load();
  EXPECT_TRUE(state.ok()) << state.status().ToString();
  if (state.ok()) {
    result.state = **state;
  }
  service.Shutdown();
  return result;
}

TEST(ServiceCrashTest, DeferredExactlyOnceAcrossCrashStages) {
  // Envelope ops per cycle: start(1) + observations(6) + retire(1) = 8.
  //   op  3 = cycle-1 observation #2  -> kEnqueue   (parked and re-queued)
  //   op 12 = cycle-2 observation #3  -> kMidBatch  (buffers dropped)
  //   op 24 = cycle-3 retire barrier  -> kPreTruncate (truncate suppressed)
  ServiceFaultPlan faults;
  faults.crashes = {
      {.shard = 0, .at_op = 3, .stage = ServiceCrashStage::kEnqueue},
      {.shard = 0, .at_op = 12, .stage = ServiceCrashStage::kMidBatch},
      {.shard = 0, .at_op = 24, .stage = ServiceCrashStage::kPreTruncate},
  };
  const JournaledRunResult crashed =
      RunJournaledWorkload(faults, JournalDir("exactly_once_crashed"));
  const JournaledRunResult clean =
      RunJournaledWorkload(ServiceFaultPlan{}, JournalDir("exactly_once_clean"));

  // Every scheduled crash fired and every dead shard came back.
  EXPECT_EQ(crashed.stats.crashes_injected, 3u);
  EXPECT_EQ(crashed.stats.shards_recovered, 3u);
  EXPECT_EQ(crashed.stats.journal_torn_tails, 0u);
  // Recovery pushed dropped observations back through the commit path. The
  // exact replay/dedup split depends on where the policy's checkpoint plans
  // force mid-session flushes, so the split is pinned by the deterministic
  // BindDedupsRecordsBelowHighWater test below, not here.
  EXPECT_GE(crashed.stats.journal_replayed, 1u);
  EXPECT_EQ(clean.stats.crashes_injected, 0u);
  EXPECT_EQ(clean.stats.journal_replayed, 0u);
  EXPECT_EQ(clean.stats.journal_deduped, 0u);

  // Books balanced in both runs: nothing lost, nothing double-committed.
  for (const JournaledRunResult* run : {&crashed, &clean}) {
    EXPECT_EQ(run->observations_issued, 18u);
    EXPECT_EQ(run->stats.observations, 18u);
    EXPECT_EQ(run->stats.observations_committed, 18u);
    EXPECT_EQ(run->stats.flush_errors, 0u);
    EXPECT_EQ(run->stats.rejected_requests, 0u);
    EXPECT_EQ(run->high_water, 18u);
  }

  // The exactly-once bar: the crashed run converges to the identical policy
  // state — weights, snapshot pool, poisoned-snapshot ledger, and commit
  // high-water marks. (Database *versions* legitimately differ: recovery
  // commits at different batch boundaries.)
  EXPECT_EQ(crashed.state, clean.state);
  ASSERT_TRUE(crashed.state.commit_marks.contains(0));
  EXPECT_EQ(crashed.state.commit_marks.at(0), 18u);
}

// ---------------------------------------------------------------------------
// Cross-instance recovery: Bind replays a journal a dead service left behind.
// ---------------------------------------------------------------------------

TEST(ServiceCrashTest, BindReplaysJournalFromPreviousInstance) {
  const std::string dir = JournalDir("cross_instance");
  const std::string function = "recover-fn";

  // A "previous incarnation" journaled three observations and died before
  // its group commit truncated them.
  {
    auto journal = ObservationJournal::Open(dir, function, 0);
    ASSERT_TRUE(journal.ok()) << journal.status().ToString();
    for (uint64_t seq = 1; seq <= 3; ++seq) {
      ASSERT_TRUE(
          (*journal)->Append({seq, seq - 1, Duration::Millis(50)}).ok());
    }
  }

  const auto policy = RequestCentricPolicy::Create(TestConfig());
  ASSERT_TRUE(policy.ok());
  FunctionStack stack(*policy, function, /*seed=*/777);

  ServiceConfig config;
  config.shards = 1;
  config.max_batch = 16;
  config.flush_interval = Duration::Seconds(1e6);
  config.journal_dir = dir;
  OrchestratorService service(config);
  ASSERT_TRUE(service.Bind(function, 0, stack.orchestrator.get(), &stack.clock).ok());

  // Bind-time recovery committed all three leftover records and truncated.
  ServiceStatsSnapshot stats = service.stats();
  EXPECT_EQ(stats.journal_replayed, 3u);
  EXPECT_EQ(stats.journal_deduped, 0u);
  EXPECT_GE(stats.journal_truncations, 1u);
  const auto mark = stack.orchestrator->CommittedHighWater();
  ASSERT_TRUE(mark.ok());
  EXPECT_EQ(*mark, 3u);
  EXPECT_EQ(std::filesystem::file_size(ObservationJournal::FilePath(dir, function, 0)),
            0u);

  // New deferred work resumes with sequences strictly above the replayed
  // ones — a sequence the dedup would swallow is never reissued.
  ServiceClient client(&service, function, 0, /*defer_commit=*/true);
  const auto view = client.StartWorker();
  ASSERT_TRUE(view.ok()) << view.status().ToString();
  for (uint64_t i = 0; i < 2; ++i) {
    ASSERT_TRUE(client.ServeRequest({i, 1.0}).ok());
  }
  (void)client.EndSession();
  ASSERT_TRUE(service.Drain().ok());

  const auto final_mark = stack.orchestrator->CommittedHighWater();
  ASSERT_TRUE(final_mark.ok());
  EXPECT_EQ(*final_mark, 5u);
  service.Shutdown();
}

// A replay whose records sit at or below the blob's high-water mark must be
// skipped record for record — the exactly-once dedup a kPreTruncate crash
// relies on, pinned here with hand-built journals so the counts are exact.
TEST(ServiceCrashTest, BindDedupsRecordsBelowHighWater) {
  const std::string dir = JournalDir("dedup");
  const std::string function = "dedup-fn";
  const auto policy = RequestCentricPolicy::Create(TestConfig());
  ASSERT_TRUE(policy.ok());
  FunctionStack stack(*policy, function, /*seed=*/555);

  ServiceConfig config;
  config.shards = 1;
  config.journal_dir = dir;

  // First incarnation: replaying seq 1..3 advances the mark to 3.
  {
    auto journal = ObservationJournal::Open(dir, function, 0);
    ASSERT_TRUE(journal.ok());
    for (uint64_t seq = 1; seq <= 3; ++seq) {
      ASSERT_TRUE((*journal)->Append({seq, seq - 1, Duration::Millis(40)}).ok());
    }
  }
  {
    OrchestratorService service(config);
    ASSERT_TRUE(service.Bind(function, 0, stack.orchestrator.get(), &stack.clock).ok());
    EXPECT_EQ(service.stats().journal_replayed, 3u);
    service.Shutdown();
  }

  // Second incarnation finds a journal straddling the mark: a crash that
  // beat the truncate left seq 2..3 behind (already committed) alongside a
  // genuinely new seq 4.
  {
    auto journal = ObservationJournal::Open(dir, function, 0);
    ASSERT_TRUE(journal.ok());
    for (uint64_t seq = 2; seq <= 4; ++seq) {
      ASSERT_TRUE((*journal)->Append({seq, seq - 1, Duration::Millis(40)}).ok());
    }
  }
  OrchestratorService service(config);
  ASSERT_TRUE(service.Bind(function, 0, stack.orchestrator.get(), &stack.clock).ok());
  const ServiceStatsSnapshot stats = service.stats();
  EXPECT_EQ(stats.journal_deduped, 2u);   // seq 2, 3: covered by the mark.
  EXPECT_EQ(stats.journal_replayed, 1u);  // seq 4: committed exactly once.
  const auto mark = stack.orchestrator->CommittedHighWater();
  ASSERT_TRUE(mark.ok());
  EXPECT_EQ(*mark, 4u);
  service.Shutdown();
}

// ---------------------------------------------------------------------------
// Torn tails: partial and corrupt tail records are dropped, never misparsed.
// ---------------------------------------------------------------------------

TEST(ServiceCrashTest, RecoverDropsTornTail) {
  const std::string dir = JournalDir("torn_tail");
  {
    auto journal = ObservationJournal::Open(dir, "torn-fn", 0);
    ASSERT_TRUE(journal.ok());
    ASSERT_TRUE((*journal)->Append({1, 0, Duration::Millis(10)}).ok());
    ASSERT_TRUE((*journal)->Append({2, 1, Duration::Millis(20)}).ok());
  }
  const std::string path = ObservationJournal::FilePath(dir, "torn-fn", 0);

  // A crash mid-append: a length prefix promising more bytes than exist.
  {
    std::FILE* file = std::fopen(path.c_str(), "ab");
    ASSERT_NE(file, nullptr);
    const uint8_t torn[] = {0x40, 0x00, 0x00, 0x00, 'P', 'h'};
    ASSERT_EQ(std::fwrite(torn, 1, sizeof(torn), file), sizeof(torn));
    std::fclose(file);
  }
  {
    auto journal = ObservationJournal::Open(dir, "torn-fn", 0);
    ASSERT_TRUE(journal.ok());
    const auto log = (*journal)->Recover();
    ASSERT_TRUE(log.ok()) << log.status().ToString();
    ASSERT_EQ(log->records.size(), 2u);
    EXPECT_EQ(log->records[0], (ObservationJournal::Record{1, 0, Duration::Millis(10)}));
    EXPECT_EQ(log->records[1], (ObservationJournal::Record{2, 1, Duration::Millis(20)}));
    EXPECT_GT(log->torn_tail_bytes, 0u);
    EXPECT_EQ((*journal)->MaxRecordedSequence(), 2u);
  }
}

TEST(ServiceCrashTest, RecoverDropsCorruptTailRecord) {
  const std::string dir = JournalDir("corrupt_tail");
  {
    auto journal = ObservationJournal::Open(dir, "corrupt-fn", 0);
    ASSERT_TRUE(journal.ok());
    for (uint64_t seq = 1; seq <= 3; ++seq) {
      ASSERT_TRUE((*journal)->Append({seq, seq, Duration::Millis(5)}).ok());
    }
  }
  const std::string path = ObservationJournal::FilePath(dir, "corrupt-fn", 0);

  // Flip the last byte — the tail record's CRC no longer matches.
  std::vector<uint8_t> bytes(std::filesystem::file_size(path));
  {
    std::FILE* file = std::fopen(path.c_str(), "rb");
    ASSERT_NE(file, nullptr);
    ASSERT_EQ(std::fread(bytes.data(), 1, bytes.size(), file), bytes.size());
    std::fclose(file);
  }
  bytes.back() ^= 0xFF;
  {
    std::FILE* file = std::fopen(path.c_str(), "wb");
    ASSERT_NE(file, nullptr);
    ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), file), bytes.size());
    std::fclose(file);
  }

  auto journal = ObservationJournal::Open(dir, "corrupt-fn", 0);
  ASSERT_TRUE(journal.ok());
  const auto log = (*journal)->Recover();
  ASSERT_TRUE(log.ok());
  ASSERT_EQ(log->records.size(), 2u);
  EXPECT_EQ(log->records[1].sequence, 2u);
  EXPECT_GT(log->torn_tail_bytes, 0u);
}

TEST(ServiceCrashTest, BindCountsTornTail) {
  const std::string dir = JournalDir("bind_torn");
  const std::string function = "bind-torn-fn";
  {
    auto journal = ObservationJournal::Open(dir, function, 0);
    ASSERT_TRUE(journal.ok());
    ASSERT_TRUE((*journal)->Append({1, 0, Duration::Millis(10)}).ok());
  }
  {
    const std::string path = ObservationJournal::FilePath(dir, function, 0);
    std::FILE* file = std::fopen(path.c_str(), "ab");
    ASSERT_NE(file, nullptr);
    const uint8_t garbage[] = {0xDE, 0xAD, 0xBE};
    ASSERT_EQ(std::fwrite(garbage, 1, sizeof(garbage), file), sizeof(garbage));
    std::fclose(file);
  }

  const auto policy = RequestCentricPolicy::Create(TestConfig());
  ASSERT_TRUE(policy.ok());
  FunctionStack stack(*policy, function, /*seed=*/31);
  ServiceConfig config;
  config.shards = 1;
  config.journal_dir = dir;
  OrchestratorService service(config);
  ASSERT_TRUE(service.Bind(function, 0, stack.orchestrator.get(), &stack.clock).ok());

  const ServiceStatsSnapshot stats = service.stats();
  EXPECT_EQ(stats.journal_torn_tails, 1u);
  EXPECT_EQ(stats.journal_replayed, 1u);  // The intact record still lands.
  service.Shutdown();
}

// ---------------------------------------------------------------------------
// Backpressure: stalled shard + full queue sheds start decisions.
// ---------------------------------------------------------------------------

TEST(ServiceCrashTest, ShedsStartDecisionsPastDeadline) {
  const auto policy = RequestCentricPolicy::Create(TestConfig());
  ASSERT_TRUE(policy.ok());
  FunctionStack stack(*policy, "shed-fn", /*seed=*/99);

  ServiceConfig config;
  config.shards = 1;
  config.queue_capacity = 1;
  config.shed_deadline_ms = 20;
  // The shard sleeps 2s of host time before its first envelope — the window
  // in which the fillers saturate the queue and the sheds fire.
  config.faults.stalls = {{.shard = 0, .at_op = 1, .wall_millis = 2000}};
  OrchestratorService service(config);
  ASSERT_TRUE(service.Bind(stack.name, 0, stack.orchestrator.get(), &stack.clock).ok());

  // Stalled envelope: a start decision the shard sits on for the window.
  std::thread stalled([&] {
    ServiceClient client(&service, stack.name, 0, /*defer_commit=*/false);
    const auto view = client.StartWorker();
    EXPECT_TRUE(view.ok()) << view.status().ToString();
    (void)client.EndSession();
  });
  // The stall counter is bumped before the sleep, so this poll observes the
  // window opening.
  while (service.stats().stalls_injected == 0) {
    std::this_thread::yield();
  }
  // Two fillers: plan probes always block (knowledge path), so one occupies
  // the single queue slot and the other waits in Push behind it.
  std::thread filler_a([&] {
    ServiceClient client(&service, stack.name, 0, /*defer_commit=*/false);
    (void)client.QueryPlan();
  });
  std::thread filler_b([&] {
    ServiceClient client(&service, stack.name, 0, /*defer_commit=*/false);
    (void)client.QueryPlan();
  });
  // No counter observes a push landing (requests counts on the shard side),
  // so give the fillers a generous slice of the 2s window to saturate the
  // queue before probing.
  std::this_thread::sleep_for(std::chrono::milliseconds(300));

  // Without a fallback the shed surfaces as kResourceExhausted.
  ServiceClient plain(&service, stack.name, 0, /*defer_commit=*/false);
  const auto shed_view = plain.StartWorker();
  ASSERT_FALSE(shed_view.ok());
  EXPECT_EQ(shed_view.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(service.stats().sheds, 1u);

  // With a fallback the shed degrades into a local, unorchestrated cold
  // session: the start succeeds (marked degraded), requests execute
  // in-process, and EndSession retires it locally.
  ServiceClient degraded(&service, stack.name, 0, /*defer_commit=*/false);
  degraded.set_shed_fallback(&stack.profile, /*seed=*/1234);
  const auto degraded_view = degraded.StartWorker();
  ASSERT_TRUE(degraded_view.ok()) << degraded_view.status().ToString();
  EXPECT_TRUE(degraded_view->degraded);
  const auto outcome = degraded.ServeRequest({0, 1.0});
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  const SessionEnd end = degraded.EndSession();
  EXPECT_TRUE(end.retired);
  EXPECT_GT(end.memory_mb, 0.0);
  EXPECT_EQ(end.requests_executed, 1u);
  EXPECT_EQ(degraded.sheds_degraded(), 1u);
  EXPECT_EQ(service.stats().sheds, 2u);

  stalled.join();
  filler_a.join();
  filler_b.join();
  ASSERT_TRUE(service.Drain().ok());
  service.Shutdown();
}

}  // namespace
}  // namespace pronghorn
