// Golden digests of every Simulate() topology, pinned as absolute constants:
// a refactor of the simulation surface that changes any decision, record or
// accounting field fails here, even when every path drifts together.

#include <gtest/gtest.h>

#include <span>
#include <vector>

#include "src/core/request_centric_policy.h"
#include "src/obs/sink.h"
#include "src/platform/report_io.h"
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

// One worker slot, every-4-requests eviction: the paper's single-function
// measurement setup.
SimOptions SingleSlotOptions(uint64_t seed) {
  SimOptions options;
  options.seed = seed;
  options.worker_slots = 1;
  options.exploring_slots = 1;
  options.eviction.kind = FleetEvictionSpec::Kind::kEveryK;
  options.eviction.k = 4;
  return options;
}

SimFunctionSpec Spec(const WorkloadProfile& profile, const OrchestrationPolicy& policy,
                     uint64_t requests) {
  SimFunctionSpec spec;
  spec.name = profile.name;
  spec.profile = &profile;
  spec.policy = &policy;
  spec.requests = requests;
  return spec;
}

SimReport MustSimulate(SimTopology topology, std::span<const SimFunctionSpec> specs,
                       const SimOptions& options, ObsSink* obs = nullptr) {
  auto report = Simulate(WorkloadRegistry::Default(), topology, specs, options, obs);
  EXPECT_TRUE(report.ok()) << report.status().ToString();
  return *std::move(report);
}

// BFS at seed 11, 200 requests, one slot: FlatReportCrc32 of the flat report.
uint32_t BfsSeed11Crc(EngineKind engine_kind, const FaultPlan& faults) {
  const auto policy = RequestCentricPolicy::Create(TestConfig());
  EXPECT_TRUE(policy.ok());
  SimOptions options = SingleSlotOptions(11);
  options.engine_kind = engine_kind;
  options.faults = faults;
  const SimFunctionSpec spec = Spec(Profile("BFS"), *policy, 200);
  const SimReport report = MustSimulate(SimTopology::kSingle, {&spec, 1}, options);
  EXPECT_EQ(report.flat().records.size(), 200u);
  return FlatReportCrc32(report.flat());
}

TEST(DriverEquivalenceTest, BfsGoldenWithCriuEngine) {
  EXPECT_EQ(BfsSeed11Crc(EngineKind::kCriuLike, FaultPlan{}), 0xbf2412fdu);
}

TEST(DriverEquivalenceTest, BfsGoldenWithDeltaEngine) {
  EXPECT_EQ(BfsSeed11Crc(EngineKind::kDelta, FaultPlan{}), 0x955a5896u);
}

TEST(DriverEquivalenceTest, BfsGoldenUnderFaults) {
  FaultPlan faults;
  faults.get_failure_rate = 0.08;
  faults.put_failure_rate = 0.08;
  faults.corruption_rate = 0.02;
  faults.seed = 99;
  EXPECT_EQ(BfsSeed11Crc(EngineKind::kCriuLike, faults), 0xa3fd3d96u);
}

TEST(DriverEquivalenceTest, EngineKindChangesTheOutcome) {
  // Sanity check that the engine selection actually reaches the kernel: the
  // two engines must not replay to the same bytes.
  const auto policy = RequestCentricPolicy::Create(TestConfig());
  ASSERT_TRUE(policy.ok());
  const SimFunctionSpec spec = Spec(Profile("MST"), *policy, 150);
  uint32_t digests[2] = {0, 0};
  for (const EngineKind kind : {EngineKind::kCriuLike, EngineKind::kDelta}) {
    SimOptions options = SingleSlotOptions(12);
    options.engine_kind = kind;
    const SimReport report = MustSimulate(SimTopology::kSingle, {&spec, 1}, options);
    digests[kind == EngineKind::kDelta ? 1 : 0] = FlatReportCrc32(report.flat());
  }
  EXPECT_NE(digests[0], digests[1]);
}

// --- The golden configuration: DynamicHTML, seed 21, 300 requests ---------

constexpr uint64_t kGoldenSeed = 21;
constexpr uint64_t kGoldenRequests = 300;
// kPlatform and kFleet derive the deployment's sub-seed from (seed, name)
// and share one canonical digest layout, so a one-function run of either
// hashes to the same value.
constexpr uint32_t kOneFunctionDigest = 0xaca40728u;

TEST(SimulateEquivalenceTest, SingleTopologyGolden) {
  const auto policy = RequestCentricPolicy::Create(TestConfig());
  ASSERT_TRUE(policy.ok());
  const SimFunctionSpec spec = Spec(Profile("DynamicHTML"), *policy, kGoldenRequests);
  const SimReport report =
      MustSimulate(SimTopology::kSingle, {&spec, 1}, SingleSlotOptions(kGoldenSeed));
  ASSERT_EQ(report.flat().records.size(), kGoldenRequests);
  EXPECT_EQ(report.Digest(), 0x1d441be3u);
  EXPECT_EQ(FlatReportCrc32(report.flat()), 0xebc62c1du);
}

TEST(SimulateEquivalenceTest, PlatformAndFleetTopologiesShareTheGoldenDigest) {
  const auto policy = RequestCentricPolicy::Create(TestConfig());
  ASSERT_TRUE(policy.ok());
  const SimFunctionSpec spec = Spec(Profile("DynamicHTML"), *policy, kGoldenRequests);
  SimOptions options = SingleSlotOptions(kGoldenSeed);
  options.threads = 1;
  const SimReport platform = MustSimulate(SimTopology::kPlatform, {&spec, 1}, options);
  const SimReport fleet = MustSimulate(SimTopology::kFleet, {&spec, 1}, options);
  ASSERT_NE(platform.Find(spec.name), nullptr);
  ASSERT_NE(fleet.Find(spec.name), nullptr);
  EXPECT_EQ(platform.Find(spec.name)->records.size(), kGoldenRequests);
  EXPECT_EQ(fleet.Find(spec.name)->records.size(), kGoldenRequests);
  EXPECT_EQ(platform.Digest(), kOneFunctionDigest);
  EXPECT_EQ(fleet.Digest(), kOneFunctionDigest);
}

TEST(SimulateEquivalenceTest, ObservabilityAndThreadCountNeverPerturbDigests) {
  // The acceptance bar for the obs layer: fleet digests are bit-identical at
  // every thread count, with the sink attached and detached alike.
  const auto policy = RequestCentricPolicy::Create(TestConfig());
  ASSERT_TRUE(policy.ok());
  std::vector<SimFunctionSpec> specs;
  for (const char* name : {"DynamicHTML", "BFS", "MST"}) {
    specs.push_back(Spec(Profile(name), *policy, kGoldenRequests));
  }
  for (const uint32_t threads : {1u, 2u, 8u}) {
    for (const bool with_obs : {false, true}) {
      SimOptions options = SingleSlotOptions(kGoldenSeed);
      options.threads = threads;
      StandardObs obs;
      const SimReport report = MustSimulate(SimTopology::kFleet, specs, options,
                                            with_obs ? &obs : nullptr);
      EXPECT_EQ(report.Digest(), 0xb71a8622u)
          << "threads=" << threads << " obs=" << with_obs;
      if (with_obs) {
        EXPECT_GT(obs.trace().recorded(), 0u);
        EXPECT_FALSE(report.metrics.empty());
      }
    }
  }
}

}  // namespace
}  // namespace pronghorn
