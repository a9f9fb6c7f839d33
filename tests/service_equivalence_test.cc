// Service-mode equivalence: running the orchestrator behind the live service
// (sharded queues, group-commit batching) is a transport change, not a
// behavior change. For a fixed seed, every topology must produce a report
// digest bit-identical to the in-process run — across thread counts, shard
// counts, batch sizes, and with chaos fault injection enabled. This is the
// acceptance bar for `--service` mode.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/core/request_centric_policy.h"
#include "src/platform/simulate.h"

namespace pronghorn {
namespace {

PolicyConfig TestConfig() {
  PolicyConfig config;
  config.beta = 4;
  config.pool_capacity = 3;
  config.max_checkpoint_request = 30;
  return config;
}

struct ServiceVariant {
  bool enabled = false;
  uint32_t shards = 1;
  uint32_t max_batch = 1;
};

// The sweep grid: in-process baseline, a single-shard unbatched service (the
// degenerate configuration), and a sharded batched one (the default-ish
// configuration). Equivalence across all three rules out both the queueing
// layer and the group-commit layer as sources of divergence.
const ServiceVariant kVariants[] = {
    {.enabled = false},
    {.enabled = true, .shards = 1, .max_batch = 1},
    {.enabled = true, .shards = 4, .max_batch = 16},
};

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

void ApplyChaos(SimOptions& options) {
  options.faults.get_failure_rate = 0.10;
  options.faults.put_failure_rate = 0.10;
  options.faults.delete_failure_rate = 0.10;
  options.faults.metadata_failure_rate = 0.10;
  options.faults.corruption_rate = 0.02;
  options.faults.seed = 42;
}

void ApplyVariant(SimOptions& options, const ServiceVariant& variant) {
  options.service.enabled = variant.enabled;
  options.service.shards = variant.shards;
  options.service.max_batch = variant.max_batch;
}

TEST(ServiceEquivalenceTest, FleetDigestIdenticalServiceOnOffUnderChaos) {
  const auto policy = RequestCentricPolicy::Create(TestConfig());
  ASSERT_TRUE(policy.ok());
  const auto& registry = WorkloadRegistry::Default();
  const std::vector<SimFunctionSpec> specs =
      TwoFunctionSpecs(*policy, registry, /*requests=*/150);

  std::vector<uint32_t> digests;
  for (const uint32_t threads : {1u, 2u, 8u}) {
    for (const ServiceVariant& variant : kVariants) {
      SimOptions options;
      options.seed = 7;
      options.threads = threads;
      options.eviction.kind = FleetEvictionSpec::Kind::kEveryK;
      options.eviction.k = 4;
      ApplyChaos(options);
      ApplyVariant(options, variant);
      auto report = Simulate(registry, SimTopology::kFleet, specs, options);
      ASSERT_TRUE(report.ok()) << report.status().ToString();
      // The chaos plan actually fired; equivalence over a fault-free run
      // would prove much less.
      EXPECT_GT(report->faults.store_faults + report->faults.db_faults, 0u);
      digests.push_back(report->Digest());
    }
  }
  for (const uint32_t digest : digests) {
    EXPECT_EQ(digest, digests.front());
  }
}

TEST(ServiceEquivalenceTest, FleetDigestIdenticalServiceOnOffFaultFree) {
  const auto policy = RequestCentricPolicy::Create(TestConfig());
  ASSERT_TRUE(policy.ok());
  const auto& registry = WorkloadRegistry::Default();
  const std::vector<SimFunctionSpec> specs =
      TwoFunctionSpecs(*policy, registry, /*requests=*/120);

  std::vector<uint32_t> digests;
  for (const uint32_t threads : {1u, 8u}) {
    for (const ServiceVariant& variant : kVariants) {
      SimOptions options;
      options.seed = 11;
      options.threads = threads;
      options.eviction.kind = FleetEvictionSpec::Kind::kEveryK;
      options.eviction.k = 4;
      ApplyVariant(options, variant);
      auto report = Simulate(registry, SimTopology::kFleet, specs, options);
      ASSERT_TRUE(report.ok()) << report.status().ToString();
      digests.push_back(report->Digest());
    }
  }
  for (const uint32_t digest : digests) {
    EXPECT_EQ(digest, digests.front());
  }
}

TEST(ServiceEquivalenceTest, FleetWithRepeatedProfilesBindsEachDeploymentOnce) {
  // 16 deployments cycling the evaluation profiles, so several shards run
  // the same profile concurrently. Each shard's deployment is named after its
  // profile, but binds to the shared service under its fleet deployment name;
  // binding under the profile name made two such shards collide ("function
  // ... is not bound") as soon as they overlapped.
  const auto policy = RequestCentricPolicy::Create(TestConfig());
  ASSERT_TRUE(policy.ok());
  const auto& registry = WorkloadRegistry::Default();
  const auto evaluation = registry.EvaluationSet();
  std::vector<SimFunctionSpec> specs;
  for (size_t i = 0; i < 16; ++i) {
    SimFunctionSpec spec;
    spec.profile = evaluation[i % evaluation.size()];
    spec.name = "f" + std::to_string(i) + "-" + spec.profile->name;
    spec.policy = &*policy;
    spec.requests = 120;
    specs.push_back(spec);
  }
  ASSERT_LT(evaluation.size(), specs.size());  // Some profile repeats.

  std::vector<uint32_t> digests;
  for (const uint32_t threads : {1u, 4u}) {
    for (const ServiceVariant& variant : kVariants) {
      SimOptions options;
      options.seed = 1;
      options.threads = threads;
      ApplyVariant(options, variant);
      auto report = Simulate(registry, SimTopology::kFleet, specs, options);
      ASSERT_TRUE(report.ok()) << report.status().ToString();
      digests.push_back(report->Digest());
    }
  }
  for (const uint32_t digest : digests) {
    EXPECT_EQ(digest, digests.front());
  }
}

TEST(ServiceEquivalenceTest, PlatformDigestIdenticalServiceOnOff) {
  const auto policy = RequestCentricPolicy::Create(TestConfig());
  ASSERT_TRUE(policy.ok());
  const auto& registry = WorkloadRegistry::Default();
  const std::vector<SimFunctionSpec> specs =
      TwoFunctionSpecs(*policy, registry, /*requests=*/100);

  std::vector<uint32_t> digests;
  for (const ServiceVariant& variant : kVariants) {
    SimOptions options;
    options.seed = 21;
    ApplyChaos(options);
    ApplyVariant(options, variant);
    auto report = Simulate(registry, SimTopology::kPlatform, specs, options);
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    digests.push_back(report->Digest());
  }
  for (const uint32_t digest : digests) {
    EXPECT_EQ(digest, digests.front());
  }
}

TEST(ServiceEquivalenceTest, SingleDigestIdenticalServiceOnOff) {
  const auto policy = RequestCentricPolicy::Create(TestConfig());
  ASSERT_TRUE(policy.ok());
  const auto& registry = WorkloadRegistry::Default();
  const auto dynamic_html = registry.Find("DynamicHTML");
  ASSERT_TRUE(dynamic_html.ok());
  SimFunctionSpec spec;
  spec.name = (*dynamic_html)->name;
  spec.profile = *dynamic_html;
  spec.policy = &*policy;
  spec.requests = 200;
  const std::vector<SimFunctionSpec> specs = {spec};

  std::vector<uint32_t> digests;
  for (const ServiceVariant& variant : kVariants) {
    SimOptions options;
    options.seed = 3;
    ApplyVariant(options, variant);
    auto report = Simulate(registry, SimTopology::kSingle, specs, options);
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    digests.push_back(report->Digest());
  }
  for (const uint32_t digest : digests) {
    EXPECT_EQ(digest, digests.front());
  }
}

}  // namespace
}  // namespace pronghorn
