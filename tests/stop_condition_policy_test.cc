#include "src/core/stop_condition_policy.h"

#include <gtest/gtest.h>

#include "src/core/request_centric_policy.h"
#include "src/platform/sim_environment.h"

namespace pronghorn {
namespace {

PolicyConfig TestConfig() {
  PolicyConfig config;
  config.beta = 4;
  config.pool_capacity = 6;
  config.max_checkpoint_request = 30;
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

TEST(StopConditionPolicyTest, DelegatesWhileExploring) {
  const auto inner = RequestCentricPolicy::Create(TestConfig());
  ASSERT_TRUE(inner.ok());
  const StopConditionPolicy policy(*inner, /*explore_requests=*/100);
  PolicyState state(TestConfig());
  Rng rng(1);
  EXPECT_FALSE(policy.frozen());
  const StartDecision decision = policy.OnWorkerStart(state, rng);
  // Inner policy behavior: cold start with a checkpoint plan.
  EXPECT_FALSE(decision.restore_from.has_value());
  EXPECT_TRUE(decision.checkpoint_at_request.has_value());
}

TEST(StopConditionPolicyTest, FreezesAfterBudget) {
  const auto inner = RequestCentricPolicy::Create(TestConfig());
  ASSERT_TRUE(inner.ok());
  const StopConditionPolicy policy(*inner, /*explore_requests=*/10);
  PolicyState state(TestConfig());
  ASSERT_TRUE(state.pool.Add(Entry(1, 5)).ok());
  for (uint64_t i = 1; i <= 10; ++i) {
    policy.OnRequestComplete(state, i, Duration::Millis(50));
  }
  EXPECT_TRUE(policy.frozen());
  EXPECT_EQ(policy.requests_seen(), 10u);

  Rng rng(2);
  const StartDecision decision = policy.OnWorkerStart(state, rng);
  ASSERT_TRUE(decision.restore_from.has_value());
  // Frozen: never plans another checkpoint.
  EXPECT_FALSE(decision.checkpoint_at_request.has_value());
}

TEST(StopConditionPolicyTest, FrozenPicksBestSnapshotDeterministically) {
  const auto inner = RequestCentricPolicy::Create(TestConfig());
  ASSERT_TRUE(inner.ok());
  const StopConditionPolicy policy(*inner, /*explore_requests=*/0);
  PolicyState state(TestConfig());
  ASSERT_TRUE(state.pool.Add(Entry(1, 0)).ok());   // Slow region below.
  ASSERT_TRUE(state.pool.Add(Entry(2, 20)).ok());  // Fast region below.
  for (uint64_t i = 0; i <= 10; ++i) {
    state.theta.Update(i, 0.2, 1.0);
  }
  for (uint64_t i = 20; i <= 30; ++i) {
    state.theta.Update(i, 0.02, 1.0);
  }
  Rng rng(3);
  for (int i = 0; i < 50; ++i) {
    const StartDecision decision = policy.OnWorkerStart(state, rng);
    ASSERT_TRUE(decision.restore_from.has_value());
    EXPECT_EQ(decision.restore_from->value, 2u);  // Always the best, no draw.
  }
}

TEST(StopConditionPolicyTest, FrozenWithEmptyPoolColdStarts) {
  const auto inner = RequestCentricPolicy::Create(TestConfig());
  ASSERT_TRUE(inner.ok());
  const StopConditionPolicy policy(*inner, 0);
  PolicyState state(TestConfig());
  Rng rng(4);
  const StartDecision decision = policy.OnWorkerStart(state, rng);
  EXPECT_FALSE(decision.restore_from.has_value());
  EXPECT_FALSE(decision.checkpoint_at_request.has_value());
}

TEST(StopConditionPolicyTest, KnowledgeKeepsFlowingWhenFrozen) {
  const auto inner = RequestCentricPolicy::Create(TestConfig());
  ASSERT_TRUE(inner.ok());
  const StopConditionPolicy policy(*inner, 0);
  PolicyState state(TestConfig());
  policy.OnRequestComplete(state, 3, Duration::Millis(70));
  EXPECT_DOUBLE_EQ(state.theta.At(3), 0.070);
}

TEST(StopConditionPolicyTest, EndToEndCheckpointingCeases) {
  // §5.3: after the exploration budget, checkpoint overhead stops entirely
  // while hot-start performance persists.
  const auto profile = WorkloadRegistry::Default().Find("DynamicHTML");
  ASSERT_TRUE(profile.ok());
  PolicyConfig config;
  config.beta = 1;
  config.pool_capacity = 12;
  config.max_checkpoint_request = 100;
  const auto inner = RequestCentricPolicy::Create(config);
  ASSERT_TRUE(inner.ok());
  const StopConditionPolicy policy(*inner, /*explore_requests=*/200);  // W + 100.

  auto eviction = EveryKRequestsEviction::Create(1);
  ASSERT_TRUE(eviction.ok());
  SimOptions options;
  options.seed = 12;
  SimEnvironment env(WorkloadRegistry::Default(), options);
  ASSERT_TRUE(env.AddDeployment((*profile)->name, **profile, policy, **eviction,
                                /*worker_slots=*/1, /*exploring_slots=*/1,
                                options.seed)
                  .ok());
  ASSERT_TRUE(env.RunClosedLoop(200).ok());
  const SimulationReport explore_phase = env.TakeFlatReport();
  EXPECT_GT(explore_phase.checkpoints, 0u);

  ASSERT_TRUE(env.RunClosedLoop(200).ok());
  const SimulationReport frozen_phase = env.TakeFlatReport();
  EXPECT_EQ(frozen_phase.checkpoints, 0u);
  // Performance persists: the frozen phase keeps (within noise) the hot-start
  // latency the exploration phase achieved.
  EXPECT_LT(frozen_phase.MedianLatencyUs(), explore_phase.MedianLatencyUs() * 1.1);
  // And network upload traffic has ceased (only restore downloads remain).
  EXPECT_EQ(frozen_phase.object_store.put_count, explore_phase.object_store.put_count);
}

}  // namespace
}  // namespace pronghorn
