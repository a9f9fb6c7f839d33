// Golden determinism tests for the sharded fleet topology, Simulate(kFleet):
// the merged report must be bit-identical whatever the thread count and
// whatever order functions were listed or shards finished in. Bitwise
// equality is asserted via CRC32 over the canonical flat-report
// serialization, and the healthy, chaos and geometric digests are pinned.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>
#include <span>
#include <string>
#include <vector>

#include "src/core/request_centric_policy.h"
#include "src/platform/report_io.h"
#include "src/platform/sim_environment.h"
#include "src/platform/simulate.h"

namespace pronghorn {
namespace {

constexpr uint64_t kSeed = 42;
constexpr size_t kFunctions = 6;
constexpr uint64_t kRequestsPerFunction = 120;

PolicyConfig SmallConfig() {
  PolicyConfig config;
  config.beta = 4;
  config.pool_capacity = 6;
  config.max_checkpoint_request = 30;
  return config;
}

RequestCentricPolicy MakePolicy() {
  auto policy = RequestCentricPolicy::Create(SmallConfig());
  EXPECT_TRUE(policy.ok());
  return *std::move(policy);
}

std::vector<const WorkloadProfile*> TestProfiles() {
  const auto evaluation = WorkloadRegistry::Default().EvaluationSet();
  std::vector<const WorkloadProfile*> profiles;
  for (size_t i = 0; i < kFunctions; ++i) {
    profiles.push_back(evaluation[i % evaluation.size()]);
  }
  return profiles;
}

// The six-function fleet's digest at seed 42, three slots per function:
// healthy, under the chaos plan below, and with geometric eviction.
constexpr uint32_t kFleetDigest = 0xab182c77u;
constexpr uint32_t kChaosFleetDigest = 0xfbcc807bu;
constexpr uint32_t kGeometricFleetDigest = 0x9e7af135u;

SimReport MustRun(const OrchestrationPolicy& policy, uint32_t threads,
                  bool reverse_registration = false,
                  FleetEvictionSpec eviction = FleetEvictionSpec{},
                  FaultPlan faults = FaultPlan{}) {
  SimOptions options;
  options.seed = kSeed;
  options.threads = threads;
  options.worker_slots = 3;
  options.exploring_slots = 1;
  options.eviction = eviction;
  options.faults = faults;

  const auto profiles = TestProfiles();
  std::vector<SimFunctionSpec> specs;
  for (size_t n = 0; n < profiles.size(); ++n) {
    const size_t i = reverse_registration ? profiles.size() - 1 - n : n;
    SimFunctionSpec spec;
    spec.name = "fn" + std::to_string(i) + "-" + profiles[i]->name;
    spec.profile = profiles[i];
    spec.policy = &policy;
    spec.requests = kRequestsPerFunction;
    specs.push_back(std::move(spec));
  }
  auto report =
      Simulate(WorkloadRegistry::Default(), SimTopology::kFleet, specs, options);
  EXPECT_TRUE(report.ok()) << report.status().ToString();
  return *std::move(report);
}

FaultPlan ChaosPlan() {
  FaultPlan faults;
  faults.get_failure_rate = 0.10;
  faults.put_failure_rate = 0.10;
  faults.delete_failure_rate = 0.10;
  faults.metadata_failure_rate = 0.10;
  faults.corruption_rate = 0.02;
  return faults;
}

TEST(FleetSimulationTest, MergedReportBitIdenticalAcrossThreadCounts) {
  const RequestCentricPolicy policy = MakePolicy();
  const SimReport one = MustRun(policy, 1);
  const SimReport two = MustRun(policy, 2);
  const SimReport eight = MustRun(policy, 8);

  // The headline guarantee: one CRC32 over every serialized flat report.
  EXPECT_EQ(one.Digest(), kFleetDigest);
  EXPECT_EQ(two.Digest(), kFleetDigest);
  EXPECT_EQ(eight.Digest(), kFleetDigest);

  // And the per-function summaries behind it, function by function.
  ASSERT_EQ(one.per_function.size(), kFunctions);
  ASSERT_EQ(eight.per_function.size(), kFunctions);
  for (size_t i = 0; i < kFunctions; ++i) {
    const auto& [name_a, report_a] = one.per_function[i];
    const auto& [name_b, report_b] = eight.per_function[i];
    EXPECT_EQ(name_a, name_b);
    EXPECT_EQ(FlatReportCrc32(report_a), FlatReportCrc32(report_b));
    EXPECT_EQ(report_a.records.size(), report_b.records.size());
    EXPECT_EQ(report_a.checkpoints, report_b.checkpoints);
    EXPECT_EQ(report_a.restores, report_b.restores);
    EXPECT_EQ(report_a.LatencySummary().Median(), report_b.LatencySummary().Median());
  }

  // Fleet-level aggregates are derived from the same bytes.
  EXPECT_EQ(one.latency.count(), eight.latency.count());
  EXPECT_EQ(one.latency.Quantile(50), eight.latency.Quantile(50));
  EXPECT_EQ(one.checkpoints, eight.checkpoints);
  EXPECT_EQ(one.database.reads, eight.database.reads);
  EXPECT_EQ(one.object_store.network_bytes_uploaded,
            eight.object_store.network_bytes_uploaded);
}

TEST(FleetSimulationTest, RegistrationOrderDoesNotChangeTheMergedReport) {
  const RequestCentricPolicy policy = MakePolicy();
  const SimReport forward = MustRun(policy, 4, /*reverse_registration=*/false);
  const SimReport reversed = MustRun(policy, 4, /*reverse_registration=*/true);
  EXPECT_EQ(forward.Digest(), reversed.Digest());
}

TEST(FleetSimulationTest, GeometricEvictionStaysDeterministicAcrossThreads) {
  // Geometric eviction draws from hidden RNG state; the fleet instantiates
  // one model per function from the function seed, so thread scheduling must
  // not leak into the draw sequences.
  const RequestCentricPolicy policy = MakePolicy();
  FleetEvictionSpec eviction;
  eviction.kind = FleetEvictionSpec::Kind::kGeometric;
  eviction.mean_requests = 4.0;
  const SimReport one = MustRun(policy, 1, false, eviction);
  const SimReport four = MustRun(policy, 4, false, eviction);
  EXPECT_EQ(one.Digest(), kGeometricFleetDigest);
  EXPECT_EQ(four.Digest(), kGeometricFleetDigest);
}

TEST(FleetSimulationTest, FaultPlanStaysBitIdenticalAcrossThreadCounts) {
  // The chaos layer must not break the fleet's determinism guarantee: fault
  // draws come from per-function scoped seeds and backoff jitter from the
  // per-orchestrator Rng, so thread scheduling cannot leak into them. The
  // digest covers the merged FaultRecoveryStats, so this also pins the
  // recovery counters, not just the latency records.
  const RequestCentricPolicy policy = MakePolicy();
  const FaultPlan faults = ChaosPlan();
  const SimReport one = MustRun(policy, 1, false, FleetEvictionSpec{}, faults);
  const SimReport two = MustRun(policy, 2, false, FleetEvictionSpec{}, faults);
  const SimReport eight = MustRun(policy, 8, false, FleetEvictionSpec{}, faults);

  // Faults really fired (otherwise this test is vacuous)...
  EXPECT_GT(one.faults.store_faults + one.faults.db_faults, 0u);
  // ...and the merged report is byte-identical whatever the thread count.
  EXPECT_EQ(one.Digest(), kChaosFleetDigest);
  EXPECT_EQ(two.Digest(), kChaosFleetDigest);
  EXPECT_EQ(eight.Digest(), kChaosFleetDigest);

  // A fault plan must also change behavior relative to the healthy fleet.
  const SimReport healthy = MustRun(policy, 2);
  EXPECT_NE(one.Digest(), healthy.Digest());
  EXPECT_EQ(healthy.faults.store_faults + healthy.faults.db_faults, 0u);
}

TEST(FleetSimulationTest, FleetCountersAreSumsOfPerFunctionCounters) {
  const RequestCentricPolicy policy = MakePolicy();
  const SimReport report = MustRun(policy, 2);
  uint64_t lifetimes = 0, checkpoints = 0, restores = 0, cold = 0, records = 0;
  uint64_t kv_reads = 0;
  for (const auto& [name, shard] : report.per_function) {
    lifetimes += shard.worker_lifetimes;
    checkpoints += shard.checkpoints;
    restores += shard.restores;
    cold += shard.cold_starts;
    records += shard.records.size();
    kv_reads += shard.database.reads;
  }
  EXPECT_EQ(report.worker_lifetimes, lifetimes);
  EXPECT_EQ(report.checkpoints, checkpoints);
  EXPECT_EQ(report.restores, restores);
  EXPECT_EQ(report.cold_starts, cold);
  EXPECT_EQ(report.latency.count(), records);
  EXPECT_EQ(report.latency.count(), kFunctions * kRequestsPerFunction);
  EXPECT_EQ(report.database.reads, kv_reads);
}

TEST(FleetSimulationTest, PerFunctionResultsSortedByNameAndFindable) {
  const RequestCentricPolicy policy = MakePolicy();
  const SimReport report = MustRun(policy, 2);
  ASSERT_EQ(report.per_function.size(), kFunctions);
  EXPECT_TRUE(std::is_sorted(
      report.per_function.begin(), report.per_function.end(),
      [](const auto& a, const auto& b) { return a.function < b.function; }));
  const auto profiles = TestProfiles();
  const std::string name = "fn0-" + profiles[0]->name;
  ASSERT_NE(report.Find(name), nullptr);
  EXPECT_EQ(report.Find(name)->records.size(), kRequestsPerFunction);
  EXPECT_EQ(report.Find("no-such-deployment"), nullptr);
}

TEST(FleetSimulationTest, FunctionSeedDependsOnSeedAndNameOnly) {
  EXPECT_EQ(SimEnvironment::DeploymentSeed(1, "alpha"),
            SimEnvironment::DeploymentSeed(1, "alpha"));
  EXPECT_NE(SimEnvironment::DeploymentSeed(1, "alpha"),
            SimEnvironment::DeploymentSeed(1, "beta"));
  EXPECT_NE(SimEnvironment::DeploymentSeed(1, "alpha"),
            SimEnvironment::DeploymentSeed(2, "alpha"));
}

Status RunFleet(std::span<const SimFunctionSpec> specs) {
  return Simulate(WorkloadRegistry::Default(), SimTopology::kFleet, specs,
                  SimOptions{})
      .status();
}

TEST(FleetSimulationTest, RejectsInvalidDeployments) {
  const RequestCentricPolicy policy = MakePolicy();
  const auto profiles = TestProfiles();

  SimFunctionSpec good;
  good.name = "fn";
  good.profile = profiles[0];
  good.policy = &policy;
  const SimFunctionSpec duplicate[] = {good, good};
  EXPECT_EQ(RunFleet(duplicate).code(), StatusCode::kAlreadyExists);
  SimFunctionSpec other = good;
  other.name = "other";
  const SimFunctionSpec apart[] = {good, other, good};
  const Status apart_status = RunFleet(apart);
  EXPECT_EQ(apart_status.code(), StatusCode::kAlreadyExists);
  EXPECT_NE(apart_status.message().find("'fn'"), std::string::npos);

  SimFunctionSpec unnamed = good;
  unnamed.name.clear();
  EXPECT_EQ(RunFleet({&unnamed, 1}).code(), StatusCode::kInvalidArgument);

  SimFunctionSpec no_profile = good;
  no_profile.profile = nullptr;
  EXPECT_EQ(RunFleet({&no_profile, 1}).code(), StatusCode::kInvalidArgument);

  SimFunctionSpec no_requests = good;
  no_requests.requests = 0;
  EXPECT_EQ(RunFleet({&no_requests, 1}).code(), StatusCode::kInvalidArgument);
}

TEST(FleetSimulationTest, EmptyFleetFailsToRun) {
  EXPECT_EQ(RunFleet({}).code(), StatusCode::kInvalidArgument);
}

TEST(FleetSimulationTest, DistinctSeedsProduceDistinctFleets) {
  const RequestCentricPolicy policy = MakePolicy();
  SimFunctionSpec spec;
  spec.name = "fn";
  spec.profile = TestProfiles()[0];
  spec.policy = &policy;
  spec.requests = 60;
  std::set<uint32_t> digests;
  for (const uint64_t seed : {7u, 8u}) {
    SimOptions options;
    options.seed = seed;
    auto report = Simulate(WorkloadRegistry::Default(), SimTopology::kFleet,
                           {&spec, 1}, options);
    ASSERT_TRUE(report.ok());
    digests.insert(report->Digest());
  }
  EXPECT_EQ(digests.size(), 2u);
}

}  // namespace
}  // namespace pronghorn
