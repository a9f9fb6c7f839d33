// The multi-slot configuration of the kernel (§3.2, §5.3): many workers
// serve one function behind a load balancer, the first `exploring_slots`
// exploring and the rest restoring from the snapshots they publish through
// the shared Database and Object Store. Runs through Simulate(kSingle)
// with options.worker_slots slots, or a one-deployment SimEnvironment when
// the test inspects the learned state.

#include <gtest/gtest.h>

#include "src/core/request_centric_policy.h"
#include "src/platform/sim_environment.h"
#include "src/platform/simulate.h"

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

// Closed loop over options.worker_slots slots of one deployment, each worker
// evicted every 4 requests; `requests` is the cluster-wide total.
Result<SimulationReport> RunCluster(const WorkloadProfile& profile,
                                    const OrchestrationPolicy& policy,
                                    SimOptions options, uint64_t requests) {
  options.eviction.kind = FleetEvictionSpec::Kind::kEveryK;
  options.eviction.k = 4;
  SimFunctionSpec spec;
  spec.name = profile.name;
  spec.profile = &profile;
  spec.policy = &policy;
  spec.requests = requests;
  PRONGHORN_ASSIGN_OR_RETURN(SimReport report,
                             Simulate(WorkloadRegistry::Default(), SimTopology::kSingle,
                                      {&spec, 1}, options));
  return std::move(report.per_function.front().report);
}

TEST(ClusterSimulationTest, ServesAllRequestsAcrossSlots) {
  const auto policy = RequestCentricPolicy::Create(TestConfig());
  ASSERT_TRUE(policy.ok());
  SimOptions options;
  options.worker_slots = 4;
  options.exploring_slots = 1;
  options.seed = 2;
  auto report = RunCluster(Profile("DynamicHTML"), *policy, options, 400);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->records.size(), 400u);
  // With 4 balanced slots, both roles served requests.
  EXPECT_GT(report->exploring_latency.count(), 0u);
  EXPECT_GT(report->exploiting_latency.count(), 0u);
  EXPECT_EQ(report->exploring_latency.count() + report->exploiting_latency.count(),
            400u);
}

TEST(ClusterSimulationTest, OnlyExploringSlotsCheckpoint) {
  const auto policy = RequestCentricPolicy::Create(TestConfig());
  ASSERT_TRUE(policy.ok());

  SimOptions options;
  options.worker_slots = 4;
  options.exploring_slots = 0;  // Nobody explores: no snapshots ever.
  options.seed = 3;
  auto report = RunCluster(Profile("DynamicHTML"), *policy, options, 200);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->checkpoints, 0u);
  EXPECT_EQ(report->restores, 0u);  // Empty pool: all cold starts.
}

TEST(ClusterSimulationTest, ExploitersBenefitFromSharedPool) {
  // §5.3: non-exploring workers restore from the snapshots the exploring
  // subset publishes through the shared Database/Object Store.
  const auto policy = RequestCentricPolicy::Create(TestConfig());
  ASSERT_TRUE(policy.ok());

  auto eviction = EveryKRequestsEviction::Create(4);
  ASSERT_TRUE(eviction.ok());
  SimOptions options;
  options.seed = 4;
  const WorkloadProfile& profile = Profile("BFS");
  SimEnvironment env(WorkloadRegistry::Default(), options);
  ASSERT_TRUE(env.AddDeployment(profile.name, profile, *policy, **eviction,
                                /*worker_slots=*/4, /*exploring_slots=*/1,
                                options.seed)
                  .ok());
  ASSERT_TRUE(env.RunClosedLoop(600).ok());
  const SimulationReport report = env.TakeFlatReport();
  EXPECT_GT(report.checkpoints, 0u);
  EXPECT_GT(report.restores, 0u);

  // Exploit slots restored snapshots they never created: restores far exceed
  // what one exploring slot's lifetimes could account for.
  auto state = env.LoadPolicyState(0);
  ASSERT_TRUE(state.ok());
  EXPECT_FALSE(state->pool.empty());

  // Exploiters' later requests run at elevated JIT maturity.
  uint64_t late_maturity = 0;
  uint64_t late_count = 0;
  for (size_t i = report.records.size() - 100; i < report.records.size(); ++i) {
    late_maturity += report.records[i].request_number;
    ++late_count;
  }
  EXPECT_GT(late_maturity / late_count, 10u);
}

TEST(ClusterSimulationTest, AmortizationReducesCheckpointCount) {
  // More exploit slots => fewer checkpoints for similar served volume.
  const auto policy = RequestCentricPolicy::Create(TestConfig());
  ASSERT_TRUE(policy.ok());

  uint64_t checkpoints_all_exploring = 0;
  uint64_t checkpoints_one_exploring = 0;
  for (uint32_t exploring : {4u, 1u}) {
    SimOptions options;
    options.worker_slots = 4;
    options.exploring_slots = exploring;
    options.seed = 5;
    auto report = RunCluster(Profile("MST"), *policy, options, 400);
    ASSERT_TRUE(report.ok());
    if (exploring == 4) {
      checkpoints_all_exploring = report->checkpoints;
    } else {
      checkpoints_one_exploring = report->checkpoints;
    }
  }
  EXPECT_LT(checkpoints_one_exploring, checkpoints_all_exploring / 2);
  EXPECT_GT(checkpoints_one_exploring, 0u);
}

TEST(ClusterSimulationTest, DeterministicForSeed) {
  const auto policy = RequestCentricPolicy::Create(TestConfig());
  ASSERT_TRUE(policy.ok());
  SimOptions options;
  options.worker_slots = 3;
  options.exploring_slots = 2;
  options.seed = 6;

  std::vector<int64_t> first_run;
  for (int run = 0; run < 2; ++run) {
    auto report = RunCluster(Profile("Hash"), *policy, options, 150);
    ASSERT_TRUE(report.ok());
    if (run == 0) {
      for (const RequestRecord& record : report->records) {
        first_run.push_back(record.latency.ToMicros());
      }
    } else {
      ASSERT_EQ(report->records.size(), first_run.size());
      for (size_t i = 0; i < first_run.size(); ++i) {
        EXPECT_EQ(report->records[i].latency.ToMicros(), first_run[i]) << i;
      }
    }
  }
}

TEST(ClusterSimulationTest, ExploringSlotsClampedToWorkerSlots) {
  const auto policy = RequestCentricPolicy::Create(TestConfig());
  ASSERT_TRUE(policy.ok());
  SimOptions options;
  options.worker_slots = 2;
  options.exploring_slots = 99;
  options.seed = 7;
  auto report = RunCluster(Profile("DFS"), *policy, options, 50);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->exploiting_latency.count(), 0u);  // Everyone explores.
}

}  // namespace
}  // namespace pronghorn
