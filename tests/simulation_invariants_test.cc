// Property-based end-to-end invariants: for random policy configurations,
// eviction regimes, benchmarks, and seeds, the full stack must uphold the
// structural guarantees of the design regardless of outcome quality.

#include <gtest/gtest.h>

#include "src/core/request_centric_policy.h"
#include "src/platform/sim_environment.h"

namespace pronghorn {
namespace {

struct Scenario {
  const char* benchmark;
  uint32_t beta;
  uint32_t pool_capacity;
  uint32_t w;
  uint32_t eviction_k;
  uint64_t seed;
};

class SimulationInvariants : public ::testing::TestWithParam<Scenario> {};

TEST_P(SimulationInvariants, HoldAcrossTheRun) {
  const Scenario& scenario = GetParam();
  const auto profile = WorkloadRegistry::Default().Find(scenario.benchmark);
  ASSERT_TRUE(profile.ok());

  PolicyConfig config;
  config.beta = scenario.beta;
  config.pool_capacity = scenario.pool_capacity;
  config.max_checkpoint_request = scenario.w;
  const auto policy = RequestCentricPolicy::Create(config);
  ASSERT_TRUE(policy.ok());

  auto eviction = EveryKRequestsEviction::Create(scenario.eviction_k);
  ASSERT_TRUE(eviction.ok());
  SimOptions options;
  options.seed = scenario.seed;
  SimEnvironment env(WorkloadRegistry::Default(), options);
  ASSERT_TRUE(env.AddDeployment((*profile)->name, **profile, *policy, **eviction,
                                /*worker_slots=*/1, /*exploring_slots=*/1,
                                options.seed)
                  .ok());
  constexpr uint64_t kRequests = 260;
  const Status ran = env.RunClosedLoop(kRequests);
  ASSERT_TRUE(ran.ok()) << ran.ToString();
  const SimulationReport report = env.TakeFlatReport();

  // --- Record-stream invariants -----------------------------------------
  ASSERT_EQ(report.records.size(), kRequests);
  uint64_t lifetimes_seen = 0;
  uint64_t previous_maturity = 0;
  for (size_t i = 0; i < report.records.size(); ++i) {
    const RequestRecord& record = report.records[i];
    EXPECT_EQ(record.global_index, i);
    EXPECT_GT(record.latency, Duration::Zero());
    EXPECT_GE(record.request_number, 1u);
    if (record.first_of_lifetime) {
      ++lifetimes_seen;
    } else {
      // Within a lifetime, maturity advances by exactly one per request.
      EXPECT_EQ(record.request_number, previous_maturity + 1) << i;
    }
    if (record.cold_start) {
      EXPECT_TRUE(record.first_of_lifetime) << i;
      EXPECT_EQ(record.request_number, 1u) << i;
    }
    previous_maturity = record.request_number;
  }

  // --- Counter invariants -------------------------------------------------
  EXPECT_EQ(report.worker_lifetimes, lifetimes_seen);
  EXPECT_EQ(report.worker_lifetimes, report.cold_starts + report.restores);
  EXPECT_EQ(report.worker_lifetimes,
            (kRequests + scenario.eviction_k - 1) / scenario.eviction_k);
  // Algorithm 1 plans at most one checkpoint per worker lifetime.
  EXPECT_LE(report.checkpoints, report.worker_lifetimes);
  EXPECT_EQ(report.checkpoints, env.engine(0).checkpoints_taken());
  EXPECT_EQ(report.restores, env.engine(0).restores_performed());
  EXPECT_EQ(report.overheads.requests_served, kRequests);

  // --- Learned-state invariants -------------------------------------------
  auto state = env.LoadPolicyState(0);
  ASSERT_TRUE(state.ok());
  EXPECT_LE(state->pool.size(), scenario.pool_capacity);
  for (const PoolEntry& entry : state->pool.entries()) {
    // W bounds every checkpoint's request number (Table 2).
    EXPECT_LE(entry.metadata.request_number, scenario.w);
    EXPECT_GE(entry.metadata.request_number, 1u);
    EXPECT_TRUE(env.raw_object_store().Contains(entry.object_key))
        << entry.object_key;
  }
  // Every stored snapshot object is reachable from the pool (no leaks).
  EXPECT_EQ(env.raw_object_store().ListKeys("snapshots/").size(), state->pool.size());
  // theta only holds values at indices the run could have produced.
  for (uint64_t i = 0; i < state->theta.length(); ++i) {
    EXPECT_GE(state->theta.At(i), 0.0);
  }
  EXPECT_EQ(state->theta.At(0), 0.0);  // Request numbers start at 1.
}

INSTANTIATE_TEST_SUITE_P(
    Scenarios, SimulationInvariants,
    ::testing::Values(Scenario{"DynamicHTML", 1, 12, 100, 1, 1},
                      Scenario{"DynamicHTML", 4, 12, 100, 4, 2},
                      Scenario{"DynamicHTML", 20, 12, 100, 20, 3},
                      Scenario{"BFS", 1, 2, 50, 1, 4},
                      Scenario{"BFS", 8, 1, 100, 8, 5},
                      Scenario{"Hash", 4, 12, 200, 4, 6},
                      Scenario{"Uploader", 4, 6, 100, 4, 7},
                      Scenario{"HTMLRendering", 20, 24, 200, 20, 8},
                      Scenario{"MST", 3, 12, 10, 3, 9},
                      Scenario{"Compression", 2, 12, 100, 2, 10},
                      // beta deliberately mismatched with eviction k.
                      Scenario{"DFS", 16, 12, 100, 4, 11},
                      Scenario{"PageRank", 2, 12, 100, 10, 12}),
    [](const ::testing::TestParamInfo<Scenario>& param_info) {
      return std::string(param_info.param.benchmark) + "_b" +
             std::to_string(param_info.param.beta) + "_C" +
             std::to_string(param_info.param.pool_capacity) + "_W" +
             std::to_string(param_info.param.w) + "_k" +
             std::to_string(param_info.param.eviction_k) + "_s" +
             std::to_string(param_info.param.seed);
    });

}  // namespace
}  // namespace pronghorn
