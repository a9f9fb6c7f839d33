// Concurrency battery for the live orchestrator service (run under TSan in
// CI). Many client threads hammer one service through the wire boundary with
// randomized sync/deferred interleavings while the main thread reconfigures
// and drains it, and a poller watches the policy-state versions. Invariants:
//
//   - No lost observations: after a drain with no injected faults, every
//     observation issued has its knowledge write committed to the Database.
//   - Policy-state versions are monotonic under concurrent group commits.
//   - Drain-on-shutdown is clean: no orchestrator holds a pending
//     observation once Drain() returns, and every in-flight Call gets a
//     reply (no thread is left blocked).
//   - Shutdown is idempotent and post-shutdown calls fail loudly (kError),
//     never hang.
//   - Reply mailboxes live on the caller's stack: a 100k-call stress on the
//     spin-then-park handoff (run under ASan with use-after-return detection
//     and under TSan in CI) checks the replier never touches a dead frame,
//     and an oversubscribed fleet (the gate's park path) still balances.
//   - The spin gate counts every live caller thread, not only those inside
//     Call(), and forgets a caller once its thread exits.
//   - A refused or failed Bind leaves the endpoint registry untouched.

#include "src/service/orchestrator_service.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <latch>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/checkpoint/criu_like_engine.h"
#include "src/common/rng.h"
#include "src/core/request_centric_policy.h"
#include "src/service/mpmc_queue.h"
#include "src/service/wire.h"
#include "src/store/kv_database.h"
#include "src/store/object_store.h"
#include "src/store/snapshot_store.h"

namespace pronghorn {
namespace {

constexpr uint32_t kFunctions = 4;
constexpr uint32_t kSlotsPerFunction = 2;
constexpr uint32_t kClientThreads = kFunctions * kSlotsPerFunction;  // 8.
constexpr uint32_t kCyclesPerThread = 30;

PolicyConfig TestConfig() {
  PolicyConfig config;
  config.beta = 4;
  config.pool_capacity = 3;
  config.max_checkpoint_request = 30;
  return config;
}

// The per-function stack, shaped like SimEnvironment's Deployment: one
// database / object store / clock / engine / state store shared by all of the
// function's slot orchestrators. All slots of a function route to one shard,
// so the shared pieces are only ever touched by that shard's thread.
struct FunctionStack {
  FunctionStack(const OrchestrationPolicy& policy, const std::string& name_in,
                uint64_t seed)
      : name(name_in),
        profile(**WorkloadRegistry::Default().Find("DynamicHTML")),
        engine(HashCombine(seed, 0xe1)),
        state_store(db, name_in, policy.config()),
        snapshot_store(object_store) {
    for (uint32_t slot = 0; slot < kSlotsPerFunction; ++slot) {
      orchestrators.push_back(std::make_unique<Orchestrator>(
          profile, WorkloadRegistry::Default(), policy, engine, snapshot_store,
          state_store, clock, HashCombine(seed, slot)));
    }
  }

  std::string name;
  const WorkloadProfile& profile;
  SimClock clock;
  InMemoryKvDatabase db;
  InMemoryObjectStore object_store;
  CriuLikeEngine engine;
  PolicyStateStore state_store;
  FlatSnapshotStore snapshot_store;
  std::vector<std::unique_ptr<Orchestrator>> orchestrators;
};

// One thread's workload: repeated start → observe×N → retire cycles against
// its own (function, slot) pair, randomly alternating between the synchronous
// client and the deferred (group-commit) client. Returns observations issued.
uint64_t ClientWorkload(OrchestratorService* service, const std::string& function,
                        uint32_t slot, uint64_t seed) {
  ServiceClient sync_client(service, function, slot, /*defer_commit=*/false);
  ServiceClient deferred_client(service, function, slot, /*defer_commit=*/true);
  Rng rng(seed);
  uint64_t issued = 0;
  for (uint32_t cycle = 0; cycle < kCyclesPerThread; ++cycle) {
    ServiceClient& client = rng.Bernoulli(0.5) ? deferred_client : sync_client;
    const auto view = client.StartWorker();
    if (!view.ok()) {
      ADD_FAILURE() << "StartWorker: " << view.status().ToString();
      return issued;
    }
    const uint64_t observations = 1 + rng.UniformUint64(6);
    for (uint64_t i = 0; i < observations; ++i) {
      const auto outcome = client.ServeRequest({i, 1.0});
      if (!outcome.ok()) {
        ADD_FAILURE() << "ServeRequest: " << outcome.status().ToString();
        return issued;
      }
      ++issued;
    }
    if (rng.Bernoulli(0.2)) {
      // Occasionally probe the plan mid-session; must see a live session.
      const auto plan = client.QueryPlan();
      if (plan.ok()) {
        EXPECT_TRUE(plan->live);
        EXPECT_FALSE(plan->retired);
      } else {
        ADD_FAILURE() << "QueryPlan: " << plan.status().ToString();
      }
    }
    (void)client.EndSession();  // Retires the slot; zeroed on failure.
  }
  return issued;
}

TEST(ServiceConcurrencyTest, StressBatteryNoLostObservations) {
  const auto policy = RequestCentricPolicy::Create(TestConfig());
  ASSERT_TRUE(policy.ok());

  ServiceConfig config;
  config.shards = 4;
  config.queue_capacity = 16;  // Small, so Push backpressure is exercised.
  config.max_batch = 4;
  config.flush_interval = Duration::Millis(1);
  OrchestratorService service(config);
  ASSERT_EQ(service.shard_count(), 4u);

  std::vector<std::unique_ptr<FunctionStack>> stacks;
  for (uint32_t f = 0; f < kFunctions; ++f) {
    stacks.push_back(std::make_unique<FunctionStack>(
        *policy, "stress-fn-" + std::to_string(f), 1000 + f));
    for (uint32_t slot = 0; slot < kSlotsPerFunction; ++slot) {
      ASSERT_TRUE(service
                      .Bind(stacks.back()->name, slot,
                            stacks.back()->orchestrators[slot].get(),
                            &stacks.back()->clock)
                      .ok());
    }
  }

  // Version poller: policy-state versions must only ever move forward, even
  // while group commits land concurrently on other functions' shards.
  std::atomic<bool> stop_poller{false};
  std::thread poller([&] {
    std::vector<uint64_t> last(kFunctions, 0);
    while (!stop_poller.load(std::memory_order_acquire)) {
      for (uint32_t f = 0; f < kFunctions; ++f) {
        const auto versioned =
            stacks[f]->db.GetVersioned("policy/" + stacks[f]->name + "/state");
        if (versioned.ok()) {
          EXPECT_GE(versioned->version, last[f]) << "version went backwards";
          last[f] = versioned->version;
        }
      }
      std::this_thread::yield();
    }
  });

  std::vector<std::thread> clients;
  std::vector<uint64_t> issued(kClientThreads, 0);
  for (uint32_t t = 0; t < kClientThreads; ++t) {
    clients.emplace_back([&, t] {
      const uint32_t function = t / kSlotsPerFunction;
      const uint32_t slot = t % kSlotsPerFunction;
      issued[t] = ClientWorkload(&service, stacks[function]->name, slot,
                                 /*seed=*/5000 + t);
    });
  }

  // Control-plane churn while the clients hammer: shrink and grow the shard
  // count and batch policy, and interleave full drains. Every reconfigure
  // re-partitions the endpoints without dropping a binding or a session.
  const std::vector<std::pair<uint32_t, uint32_t>> regimes = {{2, 2}, {8, 8}, {4, 4}};
  for (const auto& [shards, batch] : regimes) {
    ASSERT_TRUE(service.Reconfigure(shards, batch, Duration::Millis(1)).ok());
    ASSERT_EQ(service.shard_count(), shards);
    ASSERT_TRUE(service.Drain().ok());
  }

  for (std::thread& thread : clients) {
    thread.join();
  }
  stop_poller.store(true, std::memory_order_release);
  poller.join();

  // Final drain, then the books must balance exactly.
  ASSERT_TRUE(service.Drain().ok());
  uint64_t total_issued = 0;
  for (const uint64_t n : issued) {
    total_issued += n;
  }
  const ServiceStatsSnapshot stats = service.stats();
  EXPECT_EQ(stats.observations, total_issued);
  // No faults injected anywhere, so every observation's knowledge write must
  // have committed — none lost in a queue, a batch, or a dropped reply.
  EXPECT_EQ(stats.observations_committed, stats.observations);
  EXPECT_EQ(stats.start_decisions, uint64_t{kClientThreads} * kCyclesPerThread);
  EXPECT_EQ(stats.requests,
            stats.start_decisions + stats.observations + stats.plan_requests);
  EXPECT_EQ(stats.decode_errors, 0u);
  EXPECT_EQ(stats.rejected_requests, 0u);
  EXPECT_EQ(stats.flush_errors, 0u);
  EXPECT_GT(stats.observations_deferred, 0u);  // Both modes actually ran.
  EXPECT_GT(stats.batches_committed, 0u);
  EXPECT_EQ(stats.reconfigures, 3u);

  // Clean drain: nothing is buffered anywhere.
  for (const auto& stack : stacks) {
    for (const auto& orchestrator : stack->orchestrators) {
      EXPECT_EQ(orchestrator->pending_observation_count(), 0u);
    }
  }

  service.Shutdown();
  EXPECT_FALSE(service.running());
}

TEST(ServiceConcurrencyTest, ShutdownIsIdempotentAndRejectsLateCalls) {
  const auto policy = RequestCentricPolicy::Create(TestConfig());
  ASSERT_TRUE(policy.ok());
  FunctionStack stack(*policy, "late", 1);

  ServiceConfig config;
  config.shards = 2;
  OrchestratorService service(config);
  ASSERT_TRUE(
      service.Bind(stack.name, 0, stack.orchestrators[0].get(), &stack.clock).ok());

  ServiceClient client(&service, stack.name, 0);
  ASSERT_TRUE(client.StartWorker().ok());
  ASSERT_TRUE(client.ServeRequest({0, 1.0}).ok());

  service.Shutdown();
  service.Shutdown();  // Second shutdown is a no-op, not a crash or a hang.
  EXPECT_FALSE(service.running());

  // A call after shutdown gets a decodable kError frame, never a hang.
  ServiceRequest request;
  request.type = WireType::kStartDecision;
  request.function = stack.name;
  const std::vector<uint8_t> reply = service.Call(EncodeServiceRequest(request));
  const auto response = DecodeServiceResponse(reply);
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response->type, WireType::kError);
  EXPECT_GT(service.stats().rejected_requests, 0u);

  // Control operations on a stopped service are safe too.
  EXPECT_TRUE(service.Drain().ok());
}

TEST(ServiceConcurrencyTest, ConcurrentShutdownWithLiveClients) {
  // Shutdown racing in-flight traffic: every client call must complete (reply
  // or kError), and the process must not deadlock. TSan checks the rest.
  const auto policy = RequestCentricPolicy::Create(TestConfig());
  ASSERT_TRUE(policy.ok());

  ServiceConfig config;
  config.shards = 4;
  config.max_batch = 4;
  OrchestratorService service(config);

  std::vector<std::unique_ptr<FunctionStack>> stacks;
  for (uint32_t f = 0; f < kFunctions; ++f) {
    stacks.push_back(std::make_unique<FunctionStack>(
        *policy, "race-fn-" + std::to_string(f), 2000 + f));
    ASSERT_TRUE(service
                    .Bind(stacks.back()->name, 0,
                          stacks.back()->orchestrators[0].get(),
                          &stacks.back()->clock)
                    .ok());
  }

  std::vector<std::thread> clients;
  for (uint32_t t = 0; t < kFunctions; ++t) {
    clients.emplace_back([&, t] {
      ServiceClient client(&service, stacks[t]->name, 0, /*defer_commit=*/true);
      Rng rng(3000 + t);
      // Drive until the service refuses; every individual call still returns.
      for (int cycle = 0; cycle < 200; ++cycle) {
        const auto view = client.StartWorker();
        if (!view.ok()) {
          return;  // Service shut down underneath us — expected.
        }
        const uint64_t observations = 1 + rng.UniformUint64(4);
        for (uint64_t i = 0; i < observations; ++i) {
          if (!client.ServeRequest({i, 1.0}).ok()) {
            return;
          }
        }
        (void)client.EndSession();
      }
    });
  }

  service.Shutdown();
  for (std::thread& thread : clients) {
    thread.join();  // Nobody is left blocked in Call().
  }
  EXPECT_FALSE(service.running());
}

TEST(ServiceConcurrencyTest, BindingErrorsAreReported) {
  const auto policy = RequestCentricPolicy::Create(TestConfig());
  ASSERT_TRUE(policy.ok());
  FunctionStack stack(*policy, "dup", 1);

  OrchestratorService service(ServiceConfig{});
  ASSERT_TRUE(
      service.Bind(stack.name, 0, stack.orchestrators[0].get(), &stack.clock).ok());
  EXPECT_EQ(
      service.Bind(stack.name, 0, stack.orchestrators[1].get(), &stack.clock).code(),
      StatusCode::kAlreadyExists);

  // A request for a function nobody bound fails loudly through the wire.
  ServiceClient client(&service, "nobody-bound-this", 0);
  const auto view = client.StartWorker();
  EXPECT_FALSE(view.ok());

  EXPECT_TRUE(service.Unbind(stack.name).ok());
  EXPECT_EQ(service.Unbind(stack.name).code(), StatusCode::kNotFound);
}

// Many tiny synchronous calls from 2 clients on 2 shards: with 4 cores the
// gate lets both sides of every hop spin, so a reply is often seen the
// instant it is published. Each mailbox dies with its Call() frame right
// after; ASan (detect_stack_use_after_return) and TSan flag a replier that
// touches it late.
TEST(ServiceConcurrencyTest, MailboxLifetimeUnderSpinningHandoff) {
  constexpr uint32_t kClients = 2;
  constexpr uint64_t kCallsPerClient = 50000;
  const auto policy = RequestCentricPolicy::Create(TestConfig());
  ASSERT_TRUE(policy.ok());

  ServiceConfig config;
  config.shards = 2;
  OrchestratorService service(config);
  // FNV-1a routing puts lifetime-fn-0 on shard 0 and lifetime-fn-1 on shard 1.
  std::vector<std::unique_ptr<FunctionStack>> stacks;
  for (uint32_t c = 0; c < kClients; ++c) {
    stacks.push_back(std::make_unique<FunctionStack>(
        *policy, "lifetime-fn-" + std::to_string(c), 4000 + c));
    ASSERT_TRUE(service
                    .Bind(stacks.back()->name, 0, stacks.back()->orchestrators[0].get(),
                          &stacks.back()->clock)
                    .ok());
  }

  std::vector<std::thread> clients;
  for (uint32_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      ServiceClient client(&service, stacks[c]->name, 0);
      ASSERT_TRUE(client.StartWorker().ok());
      // A plan probe is the cheapest full round trip: decode, route, queue
      // hop, a lookup on the shard, encode, mailbox handoff.
      for (uint64_t i = 0; i < kCallsPerClient; ++i) {
        const auto plan = client.QueryPlan();
        ASSERT_TRUE(plan.ok()) << plan.status().ToString();
        ASSERT_TRUE(plan->live);
      }
      (void)client.EndSession();
    });
  }
  for (std::thread& thread : clients) {
    thread.join();
  }
  ASSERT_TRUE(service.Drain().ok());

  const ServiceStatsSnapshot stats = service.stats();
  // Every probe, plus the retiring plan of each client's EndSession.
  EXPECT_EQ(stats.plan_requests, uint64_t{kClients} * (kCallsPerClient + 1));
  EXPECT_EQ(stats.requests, stats.start_decisions + stats.observations + stats.plan_requests);
  EXPECT_EQ(stats.rejected_requests, 0u);
  const unsigned cores = std::thread::hardware_concurrency();
  if (SpinFits(kClients + config.shards, cores)) {
    EXPECT_GT(stats.spin_waits, 0u);  // The gate let these waits spin.
  }
  if (cores <= 1) {
    EXPECT_EQ(stats.spin_waits, 0u);  // One core: every wait parks at once.
  }
}

// The gate counts every live thread that has called the service, not only
// those inside Call(): a caller working between calls still holds a core.
// Once as many callers as cores have joined, no wait may spin even while
// just one of them calls; once they exit, a lone caller may spin again.
// Calls for an unbound function still make the full round trip (the shard
// answers kNotFound), so no orchestrator is needed.
TEST(ServiceConcurrencyTest, SpinGateCountsLiveCallerThreads) {
  constexpr int kCalls = 200;
  const unsigned cores = std::thread::hardware_concurrency();
  const uint32_t callers = std::max(cores, 1u);
  ServiceConfig config;
  config.shards = 1;
  OrchestratorService service(config);
  const auto call = [&] {
    ServiceClient client(&service, "gate-fn", 0);
    EXPECT_EQ(client.StartWorker().status().code(), StatusCode::kNotFound);
  };

  std::latch joined(callers);
  std::latch measured(1);
  uint64_t spins_while_joined = 0;
  std::vector<std::thread> threads;
  for (uint32_t t = 0; t < callers; ++t) {
    threads.emplace_back([&, t] {
      call();
      joined.count_down();
      if (t == 0) {
        joined.wait();
        const uint64_t before = service.stats().spin_waits;
        for (int i = 0; i < kCalls; ++i) {
          call();
        }
        spins_while_joined = service.stats().spin_waits - before;
        measured.count_down();
      }
      measured.wait();  // Idle, yet still a caller of the service.
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  EXPECT_EQ(spins_while_joined, 0u);  // 1 shard + `cores` callers never fit.

  uint64_t spins_alone = 0;
  std::thread([&] {
    const uint64_t before = service.stats().spin_waits;
    for (int i = 0; i < kCalls; ++i) {
      call();
    }
    spins_alone = service.stats().spin_waits - before;
  }).join();
  if (SpinFits(2, cores)) {
    EXPECT_GT(spins_alone, 0u);  // The exited callers left the count.
  } else {
    EXPECT_EQ(spins_alone, 0u);
  }
}

// 8 clients on 8 shards: more participants than most hosts have cores, so
// the gate mostly sends waits straight to the park path. The books must
// still balance after a drain.
TEST(ServiceConcurrencyTest, OversubscribedFleetBalancesAfterDrain) {
  constexpr uint32_t kClients = 8;
  const auto policy = RequestCentricPolicy::Create(TestConfig());
  ASSERT_TRUE(policy.ok());

  ServiceConfig config;
  config.shards = 8;
  config.max_batch = 4;
  OrchestratorService service(config);
  // FNV-1a routing spreads oversub-fn-0..7 over all 8 shards.
  std::vector<std::unique_ptr<FunctionStack>> stacks;
  for (uint32_t c = 0; c < kClients; ++c) {
    stacks.push_back(std::make_unique<FunctionStack>(
        *policy, "oversub-fn-" + std::to_string(c), 6000 + c));
    ASSERT_TRUE(service
                    .Bind(stacks.back()->name, 0, stacks.back()->orchestrators[0].get(),
                          &stacks.back()->clock)
                    .ok());
  }

  std::vector<std::thread> clients;
  std::vector<uint64_t> issued(kClients, 0);
  for (uint32_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      issued[c] = ClientWorkload(&service, stacks[c]->name, 0, /*seed=*/7000 + c);
    });
  }
  for (std::thread& thread : clients) {
    thread.join();
  }
  ASSERT_TRUE(service.Drain().ok());

  uint64_t total_issued = 0;
  for (const uint64_t n : issued) {
    total_issued += n;
  }
  const ServiceStatsSnapshot stats = service.stats();
  EXPECT_EQ(stats.observations, total_issued);
  EXPECT_EQ(stats.observations_committed, stats.observations);
  EXPECT_EQ(stats.start_decisions, uint64_t{kClients} * kCyclesPerThread);
  EXPECT_EQ(stats.requests,
            stats.start_decisions + stats.observations + stats.plan_requests);
  EXPECT_EQ(stats.rejected_requests, 0u);
  EXPECT_EQ(stats.flush_errors, 0u);
  for (const auto& stack : stacks) {
    EXPECT_EQ(stack->orchestrators[0]->pending_observation_count(), 0u);
  }
}

// A refused duplicate Bind must not re-point the endpoint's clock: aged
// flushes keep following the clock of the binding that won. Each duplicate
// Bind also takes the registry lock exclusively, so it returns only once the
// shard finished the previous burst's aged-flush sweep; that is what makes it
// safe to read stats and move the clocks from this thread in between.
TEST(ServiceConcurrencyTest, RefusedBindKeepsTheWinningClock) {
  const auto policy = RequestCentricPolicy::Create(TestConfig());
  ASSERT_TRUE(policy.ok());
  FunctionStack stack(*policy, "clocked", 1);
  SimClock other_clock;

  ServiceConfig config;
  config.shards = 1;
  config.flush_interval = Duration::Seconds(1);
  OrchestratorService service(config);
  ASSERT_TRUE(
      service.Bind(stack.name, 0, stack.orchestrators[0].get(), &stack.clock).ok());
  const auto refuse_duplicate = [&] {
    EXPECT_EQ(service.Bind(stack.name, 0, stack.orchestrators[1].get(), &other_clock)
                  .code(),
              StatusCode::kAlreadyExists);
  };

  ServiceClient client(&service, stack.name, 0, /*defer_commit=*/true);
  ASSERT_TRUE(client.StartWorker().ok());
  ASSERT_TRUE(client.ServeRequest({0, 1.0}).ok());  // Deferred at t=0.
  refuse_duplicate();
  // Only the refused binding's clock moves: no batch may age out.
  other_clock.Advance(Duration::Seconds(3600));
  ASSERT_TRUE(client.ServeRequest({1, 1.0}).ok());
  refuse_duplicate();
  EXPECT_EQ(service.stats().batches_committed, 0u);
  EXPECT_EQ(service.stats().observations_committed, 0u);

  // The winning clock moving past flush_interval does age the batch out.
  stack.clock.Advance(Duration::Seconds(2));
  ASSERT_TRUE(client.ServeRequest({2, 1.0}).ok());
  refuse_duplicate();
  EXPECT_EQ(service.stats().batches_committed, 1u);
  EXPECT_EQ(service.stats().observations_committed, 3u);
  (void)client.EndSession();
}

TEST(ServiceConcurrencyTest, FailedJournalBindLeavesNoEndpoint) {
  const auto policy = RequestCentricPolicy::Create(TestConfig());
  ASSERT_TRUE(policy.ok());
  FunctionStack stack(*policy, "unjournaled", 1);

  ServiceConfig config;
  config.journal_dir = (std::filesystem::path(::testing::TempDir()) /
                        "pronghorn_missing_dir" / "nested")
                           .string();
  OrchestratorService service(config);
  EXPECT_FALSE(
      service.Bind(stack.name, 0, stack.orchestrators[0].get(), &stack.clock).ok());
  // Nothing was registered, so there is nothing to unbind.
  EXPECT_EQ(service.Unbind(stack.name).code(), StatusCode::kNotFound);
}

}  // namespace
}  // namespace pronghorn
