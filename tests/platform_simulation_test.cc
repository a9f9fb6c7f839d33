// Many functions on one control plane (Figure 2 at platform scale): one
// SimEnvironment with a single-slot deployment per function, all sharing
// the global Database and Object Store, each with its own policy scope and
// snapshot pool. Trace replays drive the environment directly; the
// one-shot closed loop runs through Simulate(kPlatform).

#include <gtest/gtest.h>

#include "src/core/baseline_policies.h"
#include "src/core/request_centric_policy.h"
#include "src/platform/sim_environment.h"
#include "src/platform/simulate.h"
#include "src/trace/trace_generator.h"

namespace pronghorn {
namespace {

const WorkloadProfile& Profile(const char* name) {
  auto result = WorkloadRegistry::Default().Find(name);
  EXPECT_TRUE(result.ok());
  return **result;
}

PolicyConfig TestConfig() {
  PolicyConfig config;
  config.beta = 4;
  config.pool_capacity = 12;
  config.max_checkpoint_request = 100;
  return config;
}

InvocationTrace MakeTrace() {
  InvocationTrace trace;
  // Interleaved invocations of two functions, 1s apart, with a long gap in
  // the middle that exceeds a 60s idle timeout.
  int64_t t = 0;
  for (int burst = 0; burst < 2; ++burst) {
    for (int i = 0; i < 6; ++i) {
      EXPECT_TRUE(
          trace.Append({i % 2 == 0 ? "MST" : "DynamicHTML", TimePoint::FromMicros(t)})
              .ok());
      t += 1000000;
    }
    t += 120 * 1000000LL;  // 2-minute gap.
  }
  return trace;
}

// Registers `profile` as a single-slot deployment seeded from
// (environment seed, function name).
Status Deploy(SimEnvironment& env, const WorkloadProfile& profile,
              const OrchestrationPolicy& policy, const EvictionModel& eviction,
              uint64_t seed) {
  return env.AddDeployment(profile.name, profile, policy, eviction,
                           /*worker_slots=*/1, /*exploring_slots=*/1,
                           SimEnvironment::DeploymentSeed(seed, profile.name));
}

uint64_t TotalRecords(const EnvironmentReport& report) {
  uint64_t total = 0;
  for (const auto& [name, function] : report.per_function) {
    total += function.records.size();
  }
  return total;
}

TEST(PlatformSimulationTest, RejectsDuplicateDeployments) {
  IdleTimeoutEviction eviction(Duration::Seconds(60));
  const SimOptions options;
  SimEnvironment env(WorkloadRegistry::Default(), options);
  const ColdStartPolicy policy;
  ASSERT_TRUE(Deploy(env, Profile("MST"), policy, eviction, options.seed).ok());
  EXPECT_EQ(Deploy(env, Profile("MST"), policy, eviction, options.seed).code(),
            StatusCode::kAlreadyExists);
}

TEST(PlatformSimulationTest, RejectsUndeployedFunctionInTrace) {
  IdleTimeoutEviction eviction(Duration::Seconds(60));
  const SimOptions options;
  SimEnvironment env(WorkloadRegistry::Default(), options);
  const ColdStartPolicy policy;
  ASSERT_TRUE(Deploy(env, Profile("MST"), policy, eviction, options.seed).ok());
  const InvocationTrace trace = MakeTrace();  // Also invokes DynamicHTML.
  EXPECT_EQ(env.RunArrivals(trace).code(), StatusCode::kNotFound);
}

TEST(PlatformSimulationTest, ReplaysMultiFunctionTrace) {
  IdleTimeoutEviction eviction(Duration::Seconds(60));
  SimOptions options;
  options.seed = 3;
  SimEnvironment env(WorkloadRegistry::Default(), options);
  const auto policy = RequestCentricPolicy::Create(TestConfig());
  ASSERT_TRUE(policy.ok());
  ASSERT_TRUE(Deploy(env, Profile("MST"), *policy, eviction, options.seed).ok());
  ASSERT_TRUE(Deploy(env, Profile("DynamicHTML"), *policy, eviction, options.seed).ok());

  const Status replayed = env.RunArrivals(MakeTrace());
  ASSERT_TRUE(replayed.ok()) << replayed.ToString();
  const EnvironmentReport report = env.TakeReport();
  ASSERT_EQ(report.per_function.size(), 2u);
  EXPECT_EQ(report.per_function.at("MST").records.size(), 6u);
  EXPECT_EQ(report.per_function.at("DynamicHTML").records.size(), 6u);
  EXPECT_EQ(TotalRecords(report), 12u);
  // The 2-minute gap evicted both workers once.
  EXPECT_EQ(report.per_function.at("MST").worker_lifetimes, 2u);
  EXPECT_EQ(report.per_function.at("DynamicHTML").worker_lifetimes, 2u);
}

TEST(PlatformSimulationTest, FunctionsShareStoresButNotState) {
  IdleTimeoutEviction eviction(Duration::Seconds(60));
  SimOptions options;
  options.seed = 4;
  SimEnvironment env(WorkloadRegistry::Default(), options);
  const auto policy = RequestCentricPolicy::Create(TestConfig());
  ASSERT_TRUE(policy.ok());
  ASSERT_TRUE(Deploy(env, Profile("MST"), *policy, eviction, options.seed).ok());
  ASSERT_TRUE(Deploy(env, Profile("DynamicHTML"), *policy, eviction, options.seed).ok());

  ASSERT_TRUE(env.RunArrivals(MakeTrace()).ok());

  auto mst_state = env.LoadPolicyState(*env.DeploymentIndex("MST"));
  auto html_state = env.LoadPolicyState(*env.DeploymentIndex("DynamicHTML"));
  ASSERT_TRUE(mst_state.ok());
  ASSERT_TRUE(html_state.ok());
  // Each function learned its own latencies (they differ by ~5x scale).
  EXPECT_GT(mst_state->theta.ExploredCount(), 0u);
  EXPECT_GT(html_state->theta.ExploredCount(), 0u);
  EXPECT_GT(mst_state->theta.At(2), html_state->theta.At(2) * 2);
  // Pools are per-function.
  for (const PoolEntry& entry : mst_state->pool.entries()) {
    EXPECT_EQ(entry.metadata.function, "MST");
  }
  EXPECT_EQ(env.DeploymentIndex("Ghost").status().code(), StatusCode::kNotFound);
}

TEST(PlatformSimulationTest, StatePersistsAcrossReplays) {
  IdleTimeoutEviction eviction(Duration::Seconds(60));
  SimOptions options;
  options.seed = 5;
  SimEnvironment env(WorkloadRegistry::Default(), options);
  const auto policy = RequestCentricPolicy::Create(TestConfig());
  ASSERT_TRUE(policy.ok());
  ASSERT_TRUE(Deploy(env, Profile("MST"), *policy, eviction, options.seed).ok());
  ASSERT_TRUE(Deploy(env, Profile("DynamicHTML"), *policy, eviction, options.seed).ok());
  const size_t mst = *env.DeploymentIndex("MST");

  ASSERT_TRUE(env.RunArrivals(MakeTrace()).ok());
  auto first = env.LoadPolicyState(mst);
  ASSERT_TRUE(first.ok());
  const uint32_t explored_after_first = first->theta.ExploredCount();

  ASSERT_TRUE(env.RunArrivals(MakeTrace()).ok());
  auto second = env.LoadPolicyState(mst);
  ASSERT_TRUE(second.ok());
  EXPECT_GE(second->theta.ExploredCount(), explored_after_first);
}

SimReport MustRunPlatform(const OrchestrationPolicy& policy, const SimOptions& options,
                          uint64_t requests) {
  SimFunctionSpec specs[2];
  const char* names[2] = {"MST", "DynamicHTML"};
  for (size_t i = 0; i < 2; ++i) {
    specs[i].name = names[i];
    specs[i].profile = &Profile(names[i]);
    specs[i].policy = &policy;
    specs[i].requests = requests / 2;
  }
  auto report = Simulate(WorkloadRegistry::Default(), SimTopology::kPlatform, specs,
                         options);
  EXPECT_TRUE(report.ok()) << report.status().ToString();
  return *std::move(report);
}

TEST(PlatformSimulationTest, FaultPlanProducesRecoveryStats) {
  // Regression: the platform topology must actually wire its FaultPlan into
  // the shared stores and surface FaultRecoveryStats in the report, like the
  // single-function and fleet topologies do.
  SimOptions options;
  options.seed = 9;
  options.eviction.kind = FleetEvictionSpec::Kind::kIdleTimeout;
  options.eviction.idle_timeout = Duration::Seconds(60);
  options.faults.get_failure_rate = 0.15;
  options.faults.put_failure_rate = 0.15;
  options.faults.seed = 77;
  const auto policy = RequestCentricPolicy::Create(TestConfig());
  ASSERT_TRUE(policy.ok());

  const SimReport report = MustRunPlatform(*policy, options, 400);
  EXPECT_EQ(report.latency.count(), 400u);
  // With 15% store failure rates over hundreds of operations, the injected
  // faults must be visible in the platform-level recovery stats.
  EXPECT_GT(report.faults.store_faults + report.faults.db_faults, 0u);

  // A fault-free run of the same platform reports zero injected faults.
  SimOptions clean_options = options;
  clean_options.faults = FaultPlan{};
  const SimReport clean_report = MustRunPlatform(*policy, clean_options, 400);
  EXPECT_EQ(clean_report.faults.store_faults + clean_report.faults.db_faults, 0u);
}

TEST(PlatformSimulationTest, GeneratedTraceEndToEnd) {
  // Full pipeline: Azure model -> trace -> platform replay.
  const AzureTraceModel model;
  TraceGenerator generator(model, 6);
  auto trace = generator.GenerateTrace(
      {{"MST", 85.0}, {"Thumbnailer", 80.0}}, Duration::Seconds(900));
  ASSERT_TRUE(trace.ok());
  ASSERT_FALSE(trace->empty());

  IdleTimeoutEviction idle(Duration::Seconds(600));
  MaxLifetimeEviction lifetime(Duration::Seconds(1200));
  AnyOfEviction eviction({&idle, &lifetime});
  SimOptions options;
  options.seed = 7;
  SimEnvironment env(WorkloadRegistry::Default(), options);
  const auto policy = RequestCentricPolicy::Create(TestConfig());
  ASSERT_TRUE(policy.ok());
  ASSERT_TRUE(Deploy(env, Profile("MST"), *policy, eviction, options.seed).ok());
  ASSERT_TRUE(Deploy(env, Profile("Thumbnailer"), *policy, eviction, options.seed).ok());

  const Status replayed = env.RunArrivals(*trace);
  ASSERT_TRUE(replayed.ok()) << replayed.ToString();
  const EnvironmentReport report = env.TakeReport();
  EXPECT_EQ(TotalRecords(report), trace->size());
  EXPECT_GT(report.object_store.put_count, 0u);  // Checkpoints were uploaded.
}

}  // namespace
}  // namespace pronghorn
