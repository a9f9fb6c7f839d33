#include "src/core/request_centric_policy.h"

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <vector>

#include "src/common/mathutil.h"

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

RequestCentricPolicy MakePolicy(PolicyConfig config = TestConfig()) {
  auto policy = RequestCentricPolicy::Create(config);
  EXPECT_TRUE(policy.ok());
  return *std::move(policy);
}

PoolEntry Entry(uint64_t id, uint64_t request_number) {
  PoolEntry entry;
  entry.metadata.id = SnapshotId{id};
  entry.metadata.function = "f";
  entry.metadata.request_number = request_number;
  entry.object_key = "snapshots/f/" + std::to_string(id);
  return entry;
}

TEST(RequestCentricPolicyTest, CreateValidatesConfig) {
  PolicyConfig bad = TestConfig();
  bad.alpha = 0.0;
  EXPECT_FALSE(RequestCentricPolicy::Create(bad).ok());
}

TEST(RequestCentricPolicyTest, NameAndConfig) {
  const RequestCentricPolicy policy = MakePolicy();
  EXPECT_EQ(policy.name(), "request-centric");
  EXPECT_EQ(policy.config().beta, 10u);
}

TEST(RequestCentricPolicyTest, EmptyPoolMeansColdStart) {
  const RequestCentricPolicy policy = MakePolicy();
  PolicyState state(policy.config());
  Rng rng(1);
  const StartDecision decision = policy.OnWorkerStart(state, rng);
  EXPECT_FALSE(decision.restore_from.has_value());
  ASSERT_TRUE(decision.checkpoint_at_request.has_value());
  // Cold worker (start 0): checkpoint drawn from (0, beta].
  EXPECT_GE(*decision.checkpoint_at_request, 1u);
  EXPECT_LE(*decision.checkpoint_at_request, 10u);
}

TEST(RequestCentricPolicyTest, UnexploredRequestsDrawnUniformly) {
  const RequestCentricPolicy policy = MakePolicy();
  PolicyState state(policy.config());
  Rng rng(2);
  std::map<uint64_t, int> counts;
  for (int i = 0; i < 5000; ++i) {
    const StartDecision decision = policy.OnWorkerStart(state, rng);
    counts[*decision.checkpoint_at_request] += 1;
  }
  // All of (0, 10] hit, roughly uniformly (theta all zero -> equal weights).
  ASSERT_EQ(counts.size(), 10u);
  for (const auto& [request, count] : counts) {
    EXPECT_NEAR(count / 5000.0, 0.1, 0.03) << "request " << request;
  }
}

TEST(RequestCentricPolicyTest, ExploredLowLatencyAttractsCheckpoints) {
  const RequestCentricPolicy policy = MakePolicy();
  PolicyState state(policy.config());
  // Explore the whole first lifetime; request 7 is dramatically fastest.
  for (uint64_t i = 1; i <= 10; ++i) {
    policy.OnRequestComplete(state, i, i == 7 ? Duration::Millis(1)
                                              : Duration::Millis(400));
  }
  Rng rng(3);
  std::map<uint64_t, int> counts;
  for (int i = 0; i < 4000; ++i) {
    counts[*policy.OnWorkerStart(state, rng).checkpoint_at_request] += 1;
  }
  // 1/(theta+mu) weighting: request 7 carries ~400x the weight of each other.
  EXPECT_GT(counts[7], 3800);
}

TEST(RequestCentricPolicyTest, CheckpointNeverPlannedBeyondW) {
  const RequestCentricPolicy policy = MakePolicy();
  PolicyState state(policy.config());
  ASSERT_TRUE(state.pool.Add(Entry(1, 45)).ok());  // Start near W = 50.
  Rng rng(4);
  for (int i = 0; i < 2000; ++i) {
    const StartDecision decision = policy.OnWorkerStart(state, rng);
    ASSERT_TRUE(decision.checkpoint_at_request.has_value());
    EXPECT_GT(*decision.checkpoint_at_request, 45u);
    EXPECT_LE(*decision.checkpoint_at_request, 50u);  // Capped at W, not 45+10.
  }
}

TEST(RequestCentricPolicyTest, NoCheckpointWhenStartAtOrBeyondW) {
  const RequestCentricPolicy policy = MakePolicy();
  PolicyState state(policy.config());
  ASSERT_TRUE(state.pool.Add(Entry(1, 50)).ok());
  ASSERT_TRUE(state.pool.Add(Entry(2, 60)).ok());
  Rng rng(5);
  for (int i = 0; i < 200; ++i) {
    const StartDecision decision = policy.OnWorkerStart(state, rng);
    EXPECT_FALSE(decision.checkpoint_at_request.has_value());
  }
}

TEST(RequestCentricPolicyTest, RestoresFromPoolWhenAvailable) {
  const RequestCentricPolicy policy = MakePolicy();
  PolicyState state(policy.config());
  ASSERT_TRUE(state.pool.Add(Entry(1, 5)).ok());
  Rng rng(6);
  const StartDecision decision = policy.OnWorkerStart(state, rng);
  ASSERT_TRUE(decision.restore_from.has_value());
  EXPECT_EQ(decision.restore_from->value, 1u);
  // Checkpoint plan continues from the snapshot's request number.
  ASSERT_TRUE(decision.checkpoint_at_request.has_value());
  EXPECT_GT(*decision.checkpoint_at_request, 5u);
  EXPECT_LE(*decision.checkpoint_at_request, 15u);
}

TEST(RequestCentricPolicyTest, SoftmaxPrefersFastLifetimes) {
  const RequestCentricPolicy policy = MakePolicy();
  PolicyState state(policy.config());
  // Snapshot 1 leads into a slow region, snapshot 2 into a fast region.
  ASSERT_TRUE(state.pool.Add(Entry(1, 10)).ok());
  ASSERT_TRUE(state.pool.Add(Entry(2, 30)).ok());
  for (uint64_t i = 10; i <= 20; ++i) {
    policy.OnRequestComplete(state, i, Duration::Millis(200));
  }
  for (uint64_t i = 30; i <= 40; ++i) {
    policy.OnRequestComplete(state, i, Duration::Millis(10));
  }
  Rng rng(7);
  int fast_choices = 0;
  const int trials = 2000;
  for (int i = 0; i < trials; ++i) {
    if (policy.OnWorkerStart(state, rng).restore_from->value == 2) {
      ++fast_choices;
    }
  }
  EXPECT_GT(fast_choices, trials * 9 / 10);
}

TEST(RequestCentricPolicyTest, ExplorationKeepsSlowSnapshotsReachable) {
  // With a modest latency gap, softmax must still occasionally pick the
  // slower snapshot (the paper's local-optima escape property).
  PolicyConfig config = TestConfig();
  const RequestCentricPolicy policy = MakePolicy(config);
  PolicyState state(policy.config());
  ASSERT_TRUE(state.pool.Add(Entry(1, 10)).ok());
  ASSERT_TRUE(state.pool.Add(Entry(2, 30)).ok());
  for (uint64_t i = 10; i <= 20; ++i) {
    policy.OnRequestComplete(state, i, Duration::Seconds(1.00));
  }
  for (uint64_t i = 30; i <= 40; ++i) {
    policy.OnRequestComplete(state, i, Duration::Seconds(0.95));
  }
  Rng rng(8);
  std::set<uint64_t> chosen;
  for (int i = 0; i < 3000; ++i) {
    chosen.insert(policy.OnWorkerStart(state, rng).restore_from->value);
  }
  EXPECT_EQ(chosen.size(), 2u);
}

TEST(RequestCentricPolicyTest, UnexploredSnapshotLifetimesWinSelection) {
  const RequestCentricPolicy policy = MakePolicy();
  PolicyState state(policy.config());
  ASSERT_TRUE(state.pool.Add(Entry(1, 10)).ok());  // Explored below.
  ASSERT_TRUE(state.pool.Add(Entry(2, 30)).ok());  // Unexplored lifetime.
  for (uint64_t i = 10; i <= 20; ++i) {
    policy.OnRequestComplete(state, i, Duration::Millis(50));
  }
  Rng rng(9);
  int unexplored_choices = 0;
  for (int i = 0; i < 500; ++i) {
    if (policy.OnWorkerStart(state, rng).restore_from->value == 2) {
      ++unexplored_choices;
    }
  }
  // 1/mu dwarfs every explored weight; softmax is effectively one-hot.
  EXPECT_EQ(unexplored_choices, 500);
}

TEST(RequestCentricPolicyTest, OnRequestCompleteUpdatesTheta) {
  const RequestCentricPolicy policy = MakePolicy();
  PolicyState state(policy.config());
  policy.OnRequestComplete(state, 4, Duration::Millis(120));
  EXPECT_DOUBLE_EQ(state.theta.At(4), 0.120);
  policy.OnRequestComplete(state, 4, Duration::Millis(240));
  EXPECT_NEAR(state.theta.At(4), 0.3 * 0.240 + 0.7 * 0.120, 1e-12);
}

TEST(RequestCentricPolicyTest, SnapshotWeightsParallelToPool) {
  const RequestCentricPolicy policy = MakePolicy();
  PolicyState state(policy.config());
  ASSERT_TRUE(state.pool.Add(Entry(1, 0)).ok());
  ASSERT_TRUE(state.pool.Add(Entry(2, 20)).ok());
  for (uint64_t i = 0; i <= 30; ++i) {
    policy.OnRequestComplete(state, i, Duration::Millis(i < 15 ? 100 : 10));
  }
  const auto weights = policy.SnapshotWeights(state);
  ASSERT_EQ(weights.size(), 2u);
  EXPECT_GT(weights[1], weights[0]);
  EXPECT_DOUBLE_EQ(weights[0],
                   state.theta.LifetimeWeight(0, policy.config().beta,
                                              policy.config().mu));
}

TEST(RequestCentricPolicyTest, NoEvictionBelowCapacity) {
  const RequestCentricPolicy policy = MakePolicy();
  PolicyState state(policy.config());
  for (uint64_t i = 1; i <= policy.config().pool_capacity; ++i) {
    ASSERT_TRUE(state.pool.Add(Entry(i, i)).ok());
  }
  Rng rng(10);
  EXPECT_TRUE(policy.OnSnapshotAdded(state, rng).empty());
  EXPECT_EQ(state.pool.size(), 6u);
}

TEST(RequestCentricPolicyTest, EvictionFiresAboveCapacity) {
  const RequestCentricPolicy policy = MakePolicy();  // C=6, p=40%, gamma=10%.
  PolicyState state(policy.config());
  for (uint64_t i = 1; i <= 7; ++i) {
    ASSERT_TRUE(state.pool.Add(Entry(i, i * 5)).ok());
    policy.OnRequestComplete(state, i * 5, Duration::Millis(static_cast<int64_t>(10 * i)));
  }
  Rng rng(11);
  const auto evicted = policy.OnSnapshotAdded(state, rng);
  // ceil(7 * 0.4) = 3 top kept, floor(7 * 0.1) = 0 random; 4 evicted.
  EXPECT_EQ(evicted.size(), 4u);
  EXPECT_EQ(state.pool.size(), 3u);
  // The fastest lifetimes start at low request numbers here (latency grows
  // with i), so the earliest snapshots survive.
  EXPECT_TRUE(state.pool.Contains(SnapshotId{1}));
}

TEST(RequestCentricPolicyTest, DeterministicGivenSameRngSeed) {
  const RequestCentricPolicy policy = MakePolicy();
  PolicyState state(policy.config());
  for (uint64_t i = 1; i <= 10; ++i) {
    policy.OnRequestComplete(state, i, Duration::Millis(static_cast<int64_t>(17 * (i % 3 + 1))));
  }
  Rng rng_a(42);
  Rng rng_b(42);
  for (int i = 0; i < 50; ++i) {
    const StartDecision a = policy.OnWorkerStart(state, rng_a);
    const StartDecision b = policy.OnWorkerStart(state, rng_b);
    EXPECT_EQ(a.checkpoint_at_request, b.checkpoint_at_request);
    EXPECT_EQ(a.restore_from.has_value(), b.restore_from.has_value());
  }
}

// Property sweep: for any beta/W combination, planned checkpoints stay in
// (start, min(start+beta, W)].
struct PlanBoundsCase {
  uint32_t beta;
  uint32_t w;
  uint64_t start;
};

class CheckpointPlanBounds : public ::testing::TestWithParam<PlanBoundsCase> {};

TEST_P(CheckpointPlanBounds, InRangeOrAbsent) {
  const auto& param = GetParam();
  PolicyConfig config = TestConfig();
  config.beta = param.beta;
  config.max_checkpoint_request = param.w;
  const RequestCentricPolicy policy = MakePolicy(config);
  PolicyState state(config);
  if (param.start > 0) {
    ASSERT_TRUE(state.pool.Add(Entry(1, param.start)).ok());
  }
  Rng rng(13);
  for (int i = 0; i < 500; ++i) {
    const StartDecision decision = policy.OnWorkerStart(state, rng);
    if (param.start >= param.w) {
      EXPECT_FALSE(decision.checkpoint_at_request.has_value());
    } else {
      ASSERT_TRUE(decision.checkpoint_at_request.has_value());
      EXPECT_GT(*decision.checkpoint_at_request, param.start);
      EXPECT_LE(*decision.checkpoint_at_request,
                std::min<uint64_t>(param.start + param.beta, param.w));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Bounds, CheckpointPlanBounds,
                         ::testing::Values(PlanBoundsCase{1, 100, 0},
                                           PlanBoundsCase{1, 100, 99},
                                           PlanBoundsCase{1, 100, 100},
                                           PlanBoundsCase{4, 100, 98},
                                           PlanBoundsCase{20, 100, 95},
                                           PlanBoundsCase{20, 200, 0},
                                           PlanBoundsCase{20, 200, 199},
                                           PlanBoundsCase{20, 200, 200}));

// Property: for ANY learned state — unexplored, partially explored, fully
// explored — softmax over the snapshot weights is a valid probability
// distribution: one entry per pool snapshot, every entry non-negative,
// entries summing to 1. This is the restore-selection soundness the policy's
// weighted draw relies on.
TEST(RequestCentricPolicyPropertyTest, SoftmaxRestoreWeightsFormADistribution) {
  const RequestCentricPolicy policy = MakePolicy();
  const PolicyConfig& config = policy.config();
  Rng rng(0xd15717);
  for (int trial = 0; trial < 200; ++trial) {
    PolicyState state(config);

    // Random pool: 1..pool_capacity snapshots at random request numbers.
    const size_t pool_size =
        1 + static_cast<size_t>(rng.UniformUint64(config.pool_capacity));
    for (size_t i = 0; i < pool_size; ++i) {
      PoolEntry entry = Entry(i + 1, rng.UniformUint64(config.max_checkpoint_request));
      // Duplicate request numbers are fine; duplicate ids are not.
      ASSERT_TRUE(state.pool.Add(entry).ok());
    }

    // Random theta. Trial 0 keeps it all-zero (nothing explored yet); other
    // trials explore a random subset, so unexplored holes remain common.
    if (trial != 0) {
      const uint32_t length = state.theta.length();
      for (uint32_t i = 0; i < length; ++i) {
        if (rng.Bernoulli(0.5)) {
          state.theta.Update(i, rng.UniformDouble(1e-4, 3.0), config.alpha);
        }
      }
    }

    const std::vector<double> weights = policy.SnapshotWeights(state);
    const std::vector<double> probabilities =
        Softmax(weights, config.softmax_temperature);
    ASSERT_EQ(probabilities.size(), pool_size);
    double sum = 0.0;
    for (const double p : probabilities) {
      EXPECT_GE(p, 0.0);
      EXPECT_LE(p, 1.0 + 1e-12);
      sum += p;
    }
    EXPECT_NEAR(sum, 1.0, 1e-9) << "trial " << trial;
  }
}

// Property: the policy's knowledge update matches the scalar EWMA reference
// theta[R] <- alpha * L + (1 - alpha) * theta[R] (with a first observation
// initializing the entry) over a long fuzzed (R, L) sequence.
TEST(RequestCentricPolicyPropertyTest, EwmaUpdateMatchesScalarReference) {
  const RequestCentricPolicy policy = MakePolicy();
  const PolicyConfig& config = policy.config();
  PolicyState state(config);
  const uint32_t length = state.theta.length();
  std::vector<double> reference(length, 0.0);

  Rng rng(0xe33a);
  for (int step = 0; step < 1000; ++step) {
    const uint64_t request_number = rng.UniformUint64(length);
    // Integral microseconds, so Duration round-trips exactly and the
    // reference sees the same sample value the policy does.
    const int64_t latency_us = rng.UniformInt(1, 5000000);
    policy.OnRequestComplete(state, request_number, Duration::Micros(latency_us));

    const double sample = static_cast<double>(latency_us) / 1e6;
    double& entry = reference[request_number];
    entry = entry == 0.0 ? sample : config.alpha * sample + (1 - config.alpha) * entry;

    ASSERT_DOUBLE_EQ(state.theta.At(request_number), entry) << "step " << step;
  }
  for (uint32_t i = 0; i < length; ++i) {
    EXPECT_DOUBLE_EQ(state.theta.At(i), reference[i]) << "theta[" << i << "]";
  }
}

}  // namespace
}  // namespace pronghorn
