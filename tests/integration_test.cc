// End-to-end integration tests: the paper's headline claims must hold on the
// full stack (policy + orchestrator + checkpoint engine + stores + platform).

#include <gtest/gtest.h>

#include "src/core/baseline_policies.h"
#include "src/core/request_centric_policy.h"
#include "src/platform/analysis.h"
#include "src/platform/sim_environment.h"
#include "src/platform/simulate.h"

namespace pronghorn {
namespace {

const WorkloadProfile& Profile(const char* name) {
  auto result = WorkloadRegistry::Default().Find(name);
  EXPECT_TRUE(result.ok());
  return **result;
}

PolicyConfig PaperConfig(const WorkloadProfile& profile, uint32_t eviction_k) {
  PolicyConfig config;
  config.beta = eviction_k;
  config.pool_capacity = 12;
  config.max_checkpoint_request = profile.family == RuntimeFamily::kJvm ? 200 : 100;
  config.retain_top_percent = 40.0;
  config.retain_random_percent = 10.0;
  return config;
}

// One closed-loop run on a single worker slot evicted every `eviction_k`
// requests: the paper's §5.1 measurement protocol.
SimulationReport RunExperiment(const WorkloadProfile& profile, const OrchestrationPolicy& policy,
                     uint64_t eviction_k, uint64_t requests, uint64_t seed) {
  SimOptions options;
  options.seed = seed;
  options.worker_slots = 1;
  options.exploring_slots = 1;
  options.eviction.kind = FleetEvictionSpec::Kind::kEveryK;
  options.eviction.k = eviction_k;
  SimFunctionSpec spec;
  spec.name = profile.name;
  spec.profile = &profile;
  spec.policy = &policy;
  spec.requests = requests;
  auto report = Simulate(WorkloadRegistry::Default(), SimTopology::kSingle,
                         {&spec, 1}, options);
  EXPECT_TRUE(report.ok()) << report.status().ToString();
  return std::move(report->per_function.front().report);
}

// A single-slot deployment whose learned state persists across runs.
Status DeploySingleSlot(SimEnvironment& env, const WorkloadProfile& profile,
                        const OrchestrationPolicy& policy,
                        const EvictionModel& eviction, uint64_t seed) {
  return env.AddDeployment(profile.name, profile, policy, eviction,
                           /*worker_slots=*/1, /*exploring_slots=*/1, seed);
}

TEST(IntegrationTest, RequestCentricBeatsStateOfTheArtOnComputeBound) {
  // Figure 4/5 headline: 20-58% median latency reduction on compute-bound
  // benchmarks at eviction rate 1.
  for (const char* name : {"BFS", "DynamicHTML", "HTMLRendering", "WordCount"}) {
    const WorkloadProfile& profile = Profile(name);
    const PolicyConfig config = PaperConfig(profile, 1);
    const CheckpointAfterFirstPolicy baseline(config);
    const auto request_centric = RequestCentricPolicy::Create(config);
    ASSERT_TRUE(request_centric.ok());

    const SimulationReport baseline_report = RunExperiment(profile, baseline, 1, 500, 42);
    const SimulationReport rc_report = RunExperiment(profile, *request_centric, 1, 500, 42);
    const double improvement = MedianImprovementPercent(baseline_report, rc_report);
    EXPECT_GE(improvement, 15.0) << name;
    EXPECT_LE(improvement, 65.0) << name;
  }
}

TEST(IntegrationTest, StateOfTheArtBeatsColdStart) {
  // Checkpoint-restore itself helps: after-1st skips lazy initialization.
  const WorkloadProfile& profile = Profile("HTMLRendering");
  const PolicyConfig config = PaperConfig(profile, 1);
  const ColdStartPolicy cold(config);
  const CheckpointAfterFirstPolicy after_first(config);
  const SimulationReport cold_report = RunExperiment(profile, cold, 1, 300, 7);
  const SimulationReport sota_report = RunExperiment(profile, after_first, 1, 300, 7);
  EXPECT_GT(MedianImprovementPercent(cold_report, sota_report), 30.0);
}

TEST(IntegrationTest, IoBoundWorkloadsAreOnPar) {
  // Figure 4: Compression/Thumbnailer/Video within ~5% of state of the art;
  // Uploader marginal (native library, no JIT benefit).
  for (const char* name : {"Compression", "Thumbnailer", "Video", "Uploader"}) {
    const WorkloadProfile& profile = Profile(name);
    const PolicyConfig config = PaperConfig(profile, 1);
    const CheckpointAfterFirstPolicy baseline(config);
    const auto request_centric = RequestCentricPolicy::Create(config);
    ASSERT_TRUE(request_centric.ok());
    const SimulationReport baseline_report = RunExperiment(profile, baseline, 1, 400, 11);
    const SimulationReport rc_report = RunExperiment(profile, *request_centric, 1, 400, 11);
    const double improvement = MedianImprovementPercent(baseline_report, rc_report);
    EXPECT_GT(improvement, -10.0) << name;
    EXPECT_LT(improvement, 15.0) << name;
  }
}

TEST(IntegrationTest, GainsShrinkWithLongerWorkerLifetimes) {
  // §5.2 "Request rates": 37.2% at eviction 1 > 22.5% at 4 > 13.5% at 20.
  // We assert the qualitative ordering between the extremes.
  const WorkloadProfile& profile = Profile("HTMLRendering");
  double improvements[2];
  int i = 0;
  for (uint32_t k : {1u, 20u}) {
    const PolicyConfig config = PaperConfig(profile, k);
    const CheckpointAfterFirstPolicy baseline(config);
    const auto request_centric = RequestCentricPolicy::Create(config);
    ASSERT_TRUE(request_centric.ok());
    const SimulationReport baseline_report = RunExperiment(profile, baseline, k, 500, 3);
    const SimulationReport rc_report = RunExperiment(profile, *request_centric, k, 500, 3);
    improvements[i++] = MedianImprovementPercent(baseline_report, rc_report);
  }
  EXPECT_GT(improvements[0], improvements[1] + 5.0);
  EXPECT_GT(improvements[1], 0.0);
}

TEST(IntegrationTest, ConvergenceWithinWPlus100) {
  // §5.3 "Bounding system costs": the request-centric policy converges in
  // less than W + 100 requests for every benchmark. Spot-check one per
  // family with the Table 4 window-20/2% methodology, at a relaxed
  // tolerance (the paper averages over many runs; we check one seed with
  // input noise enabled).
  for (const char* name : {"DynamicHTML", "Hash"}) {
    const WorkloadProfile& profile = Profile(name);
    const PolicyConfig config = PaperConfig(profile, 1);
    const auto policy = RequestCentricPolicy::Create(config);
    ASSERT_TRUE(policy.ok());
    const SimulationReport report = RunExperiment(profile, *policy, 1, 500, 21);
    const auto convergence = ConvergenceRequest(report.records, 20, 0.10);
    ASSERT_TRUE(convergence.has_value()) << name;
    EXPECT_LT(*convergence, config.max_checkpoint_request + 100) << name;
  }
}

TEST(IntegrationTest, SnapshotPoolStaysBounded) {
  const WorkloadProfile& profile = Profile("MST");
  const PolicyConfig config = PaperConfig(profile, 1);
  const auto policy = RequestCentricPolicy::Create(config);
  ASSERT_TRUE(policy.ok());

  auto eviction = EveryKRequestsEviction::Create(1);
  ASSERT_TRUE(eviction.ok());
  SimOptions options;
  options.seed = 5;
  SimEnvironment env(WorkloadRegistry::Default(), options);
  ASSERT_TRUE(DeploySingleSlot(env, profile, *policy, **eviction, options.seed).ok());
  ASSERT_TRUE(env.RunClosedLoop(400).ok());
  const SimulationReport report = env.TakeFlatReport();

  auto state = env.LoadPolicyState(0);
  ASSERT_TRUE(state.ok());
  EXPECT_LE(state->pool.size(), config.pool_capacity);
  // Storage high-water mark ~ C x snapshot size (Table 5's max storage).
  const double max_storage_mb =
      static_cast<double>(report.object_store.peak_logical_bytes) / (1024.0 * 1024.0);
  EXPECT_LE(max_storage_mb, profile.snapshot_mb * (config.pool_capacity + 1) * 1.1);
  EXPECT_GT(max_storage_mb, profile.snapshot_mb * 2);
}

TEST(IntegrationTest, NetworkCostIsTwiceBaselinePerLifetime) {
  // Table 5: during exploration Pronghorn moves ~2x the baseline's bytes
  // per container lifetime (one restore download + one checkpoint upload).
  const WorkloadProfile& profile = Profile("BFS");
  const PolicyConfig config = PaperConfig(profile, 1);
  const auto policy = RequestCentricPolicy::Create(config);
  ASSERT_TRUE(policy.ok());
  const SimulationReport report = RunExperiment(profile, *policy, 1, 300, 13);

  const double uploaded = static_cast<double>(report.object_store.network_bytes_uploaded);
  const double downloaded =
      static_cast<double>(report.object_store.network_bytes_downloaded);
  ASSERT_GT(downloaded, 0.0);
  EXPECT_NEAR(uploaded / downloaded, 1.0, 0.25);
}

TEST(IntegrationTest, ContinuousLearningSurvivesInputShift) {
  // §3.3 "Continuous learning": after the input distribution shifts, the
  // EWMA keeps estimates fresh and the policy keeps its advantage.
  const WorkloadProfile& profile = Profile("DynamicHTML");
  const PolicyConfig config = PaperConfig(profile, 1);
  const auto policy = RequestCentricPolicy::Create(config);
  ASSERT_TRUE(policy.ok());
  const CheckpointAfterFirstPolicy baseline(config);

  auto run_with_shift = [&](const OrchestrationPolicy& p) {
    auto eviction = EveryKRequestsEviction::Create(1);
    EXPECT_TRUE(eviction.ok());
    SimOptions options;
    options.seed = 17;
    SimEnvironment env(WorkloadRegistry::Default(), options);
    EXPECT_TRUE(DeploySingleSlot(env, profile, p, **eviction, options.seed).ok());
    // Phase 1: 300 requests of normal traffic.
    EXPECT_TRUE(env.RunClosedLoop(300).ok());
    (void)env.TakeFlatReport();
    // Phase 2: continue (same learned state) for another 300.
    EXPECT_TRUE(env.RunClosedLoop(300).ok());
    return env.TakeFlatReport().MedianLatencyUs();
  };
  const double rc_median = run_with_shift(*policy);
  const double baseline_median = run_with_shift(baseline);
  EXPECT_LT(rc_median, baseline_median);
}

TEST(IntegrationTest, ExplorationSaturatesAtW) {
  // Once snapshot chains reach W, the policy exploits: tail lifetimes
  // restore at maturity near W (the paper's provider can then stop
  // checkpointing entirely, since the best snapshot is already pooled).
  const WorkloadProfile& profile = Profile("DynamicHTML");
  PolicyConfig config = PaperConfig(profile, 4);
  config.max_checkpoint_request = 20;  // Small W so the run saturates it.
  const auto policy = RequestCentricPolicy::Create(config);
  ASSERT_TRUE(policy.ok());

  auto eviction = EveryKRequestsEviction::Create(4);
  ASSERT_TRUE(eviction.ok());
  SimOptions options;
  options.seed = 23;
  SimEnvironment env(WorkloadRegistry::Default(), options);
  ASSERT_TRUE(DeploySingleSlot(env, profile, *policy, **eviction, options.seed).ok());
  ASSERT_TRUE(env.RunClosedLoop(600).ok());  // Warmup.
  (void)env.TakeFlatReport();
  ASSERT_TRUE(env.RunClosedLoop(200).ok());
  const SimulationReport tail = env.TakeFlatReport();
  // The median tail request runs at high maturity (>= W): the search space
  // is fully explored and the pool holds late-request snapshots.
  std::vector<double> maturities;
  for (const RequestRecord& record : tail.records) {
    maturities.push_back(static_cast<double>(record.request_number));
  }
  EXPECT_GE(Percentile(maturities, 50.0), 20.0);
  // Checkpointing cost stays bounded at one per lifetime (Algorithm 1 plans
  // at most one checkpoint per worker; the paper's provider can additionally
  // stop checkpointing manually once converged).
  EXPECT_LE(tail.checkpoints, tail.worker_lifetimes);
}

}  // namespace
}  // namespace pronghorn
