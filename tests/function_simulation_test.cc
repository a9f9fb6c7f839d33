// The single-function, single-slot configuration of the kernel (the paper's
// per-function measurement setup, §5.1): closed-loop runs through
// Simulate(kSingle) with one worker slot, trace-driven runs and state
// inspection through a one-deployment SimEnvironment.

#include <gtest/gtest.h>

#include <span>
#include <vector>

#include "src/core/baseline_policies.h"
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

PolicyConfig TestConfig(uint32_t beta) {
  PolicyConfig config;
  config.beta = beta;
  config.pool_capacity = 12;
  config.max_checkpoint_request = 100;
  return config;
}

// Closed loop on one worker slot evicted every `eviction_k` requests.
Result<SimulationReport> RunClosedLoop(const WorkloadProfile& profile,
                                       const OrchestrationPolicy& policy,
                                       uint64_t eviction_k, SimOptions options,
                                       uint64_t requests) {
  options.worker_slots = 1;
  options.exploring_slots = 1;
  options.eviction.kind = FleetEvictionSpec::Kind::kEveryK;
  options.eviction.k = eviction_k;
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

// Trace-driven run on one worker slot: requests arrive at the given times
// and a request arriving while the worker is busy queues behind it. The
// final worker is retired at the end of the trace.
Result<SimulationReport> RunTrace(const WorkloadProfile& profile,
                                  const OrchestrationPolicy& policy,
                                  const EvictionModel& eviction,
                                  const SimOptions& options,
                                  std::span<const TimePoint> arrivals) {
  SimEnvironment env(WorkloadRegistry::Default(), options);
  PRONGHORN_RETURN_IF_ERROR(env.AddDeployment(profile.name, profile, policy, eviction,
                                              /*worker_slots=*/1,
                                              /*exploring_slots=*/1, options.seed));
  std::vector<SimEnvironment::Arrival> events;
  for (const TimePoint arrival : arrivals) {
    events.push_back(SimEnvironment::Arrival{0, arrival});
  }
  PRONGHORN_RETURN_IF_ERROR(env.RunArrivals(events));
  env.RetireAllWorkers();
  return env.TakeFlatReport();
}

TEST(FunctionSimulationTest, ClosedLoopProducesOneRecordPerRequest) {
  const ColdStartPolicy policy;
  auto report = RunClosedLoop(Profile("DynamicHTML"), policy, 4, SimOptions{}, 100);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->records.size(), 100u);
  for (size_t i = 0; i < report->records.size(); ++i) {
    EXPECT_EQ(report->records[i].global_index, i);
    EXPECT_GT(report->records[i].latency, Duration::Zero());
  }
}

TEST(FunctionSimulationTest, EvictionEveryKBoundsLifetimes) {
  const ColdStartPolicy policy;
  auto report = RunClosedLoop(Profile("DynamicHTML"), policy, 4, SimOptions{}, 100);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->worker_lifetimes, 25u);
  EXPECT_EQ(report->cold_starts, 25u);  // Cold policy never restores.
  EXPECT_EQ(report->restores, 0u);
  // Every 4th record begins a new lifetime.
  for (size_t i = 0; i < report->records.size(); ++i) {
    EXPECT_EQ(report->records[i].first_of_lifetime, i % 4 == 0) << i;
  }
}

TEST(FunctionSimulationTest, ColdPolicyMaturityResetsPerLifetime) {
  const ColdStartPolicy policy;
  auto report = RunClosedLoop(Profile("Hash"), policy, 3, SimOptions{}, 30);
  ASSERT_TRUE(report.ok());
  for (size_t i = 0; i < report->records.size(); ++i) {
    EXPECT_EQ(report->records[i].request_number, i % 3 + 1) << i;
  }
}

TEST(FunctionSimulationTest, AfterFirstPolicyPinsMaturity) {
  const CheckpointAfterFirstPolicy policy{TestConfig(1)};
  auto report = RunClosedLoop(Profile("Hash"), policy, 1, SimOptions{}, 50);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->checkpoints, 1u);
  EXPECT_EQ(report->cold_starts, 1u);
  EXPECT_EQ(report->restores, 49u);
  // Every post-snapshot request executes at maturity 2, forever.
  for (size_t i = 1; i < report->records.size(); ++i) {
    EXPECT_EQ(report->records[i].request_number, 2u) << i;
  }
}

TEST(FunctionSimulationTest, RequestCentricMaturityGrowsOverTime) {
  const auto policy = RequestCentricPolicy::Create(TestConfig(1));
  ASSERT_TRUE(policy.ok());
  auto report = RunClosedLoop(Profile("DynamicHTML"), *policy, 1, SimOptions{}, 400);
  ASSERT_TRUE(report.ok());
  // The request-number chain must reach the W boundary through exploration.
  uint64_t max_maturity = 0;
  for (const RequestRecord& record : report->records) {
    max_maturity = std::max(max_maturity, record.request_number);
  }
  EXPECT_GE(max_maturity, 100u);
  // And late requests should mostly run at high maturity.
  uint64_t late_sum = 0;
  for (size_t i = 350; i < 400; ++i) {
    late_sum += report->records[i].request_number;
  }
  EXPECT_GT(late_sum / 50, 60u);
}

TEST(FunctionSimulationTest, DeterministicAcrossRuns) {
  const auto policy = RequestCentricPolicy::Create(TestConfig(4));
  ASSERT_TRUE(policy.ok());
  SimOptions options;
  options.seed = 1234;

  auto report_a = RunClosedLoop(Profile("MST"), *policy, 4, options, 150);
  auto report_b = RunClosedLoop(Profile("MST"), *policy, 4, options, 150);
  ASSERT_TRUE(report_a.ok());
  ASSERT_TRUE(report_b.ok());
  ASSERT_EQ(report_a->records.size(), report_b->records.size());
  for (size_t i = 0; i < report_a->records.size(); ++i) {
    EXPECT_EQ(report_a->records[i].latency, report_b->records[i].latency) << i;
    EXPECT_EQ(report_a->records[i].request_number, report_b->records[i].request_number);
  }
}

TEST(FunctionSimulationTest, SeedsChangeOutcomes) {
  const auto policy = RequestCentricPolicy::Create(TestConfig(4));
  ASSERT_TRUE(policy.ok());
  SimOptions a;
  a.seed = 1;
  SimOptions b;
  b.seed = 2;
  auto report_a = RunClosedLoop(Profile("MST"), *policy, 4, a, 50);
  auto report_b = RunClosedLoop(Profile("MST"), *policy, 4, b, 50);
  ASSERT_TRUE(report_a.ok());
  ASSERT_TRUE(report_b.ok());
  bool any_difference = false;
  for (size_t i = 0; i < 50; ++i) {
    any_difference |= report_a->records[i].latency != report_b->records[i].latency;
  }
  EXPECT_TRUE(any_difference);
}

TEST(FunctionSimulationTest, StartupOnCriticalPathInflatesFirstRequests) {
  const ColdStartPolicy policy;

  SimOptions off_path;
  off_path.seed = 9;
  off_path.input_noise = false;
  SimOptions on_path = off_path;
  on_path.lifecycle.startup_on_critical_path = true;

  auto report_off = RunClosedLoop(Profile("Hash"), policy, 5, off_path, 20);
  auto report_on = RunClosedLoop(Profile("Hash"), policy, 5, on_path, 20);
  ASSERT_TRUE(report_off.ok());
  ASSERT_TRUE(report_on.ok());

  const Duration cold_init = Profile("Hash").cold_init;
  for (size_t i = 0; i < 20; ++i) {
    const Duration off_latency = report_off->records[i].latency;
    const Duration on_latency = report_on->records[i].latency;
    if (report_on->records[i].first_of_lifetime) {
      EXPECT_GE(on_latency, cold_init);
      EXPECT_EQ(on_latency, off_latency + cold_init);
    } else {
      EXPECT_EQ(on_latency, off_latency);
    }
  }
}

TEST(FunctionSimulationTest, TraceRejectsUnsortedArrivals) {
  const ColdStartPolicy policy;
  IdleTimeoutEviction eviction(Duration::Seconds(600));
  const std::vector<TimePoint> arrivals = {TimePoint::FromMicros(100),
                                           TimePoint::FromMicros(50)};
  EXPECT_EQ(RunTrace(Profile("MST"), policy, eviction, SimOptions{}, arrivals)
                .status()
                .code(),
            StatusCode::kInvalidArgument);
}

TEST(FunctionSimulationTest, TraceIdleTimeoutEvicts) {
  const ColdStartPolicy policy;
  IdleTimeoutEviction eviction(Duration::Seconds(60));
  SimOptions options;
  options.input_noise = false;
  // Three bursts separated by gaps beyond the 60s timeout.
  std::vector<TimePoint> arrivals;
  for (int burst = 0; burst < 3; ++burst) {
    const int64_t base = burst * 300 * 1000000LL;
    for (int i = 0; i < 4; ++i) {
      arrivals.push_back(TimePoint::FromMicros(base + i * 1000000LL));
    }
  }
  auto report = RunTrace(Profile("DynamicHTML"), policy, eviction, options, arrivals);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->worker_lifetimes, 3u);
  EXPECT_EQ(report->records.size(), 12u);
}

TEST(FunctionSimulationTest, TraceQueueingDelaysBackToBackArrivals) {
  const ColdStartPolicy policy;
  IdleTimeoutEviction eviction(Duration::Seconds(600));
  SimOptions options;
  options.input_noise = false;
  // Two arrivals 1ms apart; Video takes seconds, so the second queues.
  const std::vector<TimePoint> arrivals = {TimePoint::FromMicros(0),
                                           TimePoint::FromMicros(1000)};
  auto report = RunTrace(Profile("Video"), policy, eviction, options, arrivals);
  ASSERT_TRUE(report.ok());
  ASSERT_EQ(report->records.size(), 2u);
  EXPECT_GT(report->records[1].latency,
            report->records[0].latency - Duration::Millis(500));
}

TEST(FunctionSimulationTest, ReportAccountingIsConsistent) {
  const auto policy = RequestCentricPolicy::Create(TestConfig(4));
  ASSERT_TRUE(policy.ok());
  auto eviction = EveryKRequestsEviction::Create(4);
  ASSERT_TRUE(eviction.ok());
  const WorkloadProfile& profile = Profile("BFS");
  const SimOptions options;
  SimEnvironment env(WorkloadRegistry::Default(), options);
  ASSERT_TRUE(env.AddDeployment(profile.name, profile, *policy, **eviction,
                                /*worker_slots=*/1, /*exploring_slots=*/1,
                                options.seed)
                  .ok());
  ASSERT_TRUE(env.RunClosedLoop(200).ok());
  const SimulationReport report = env.TakeFlatReport();

  EXPECT_EQ(report.worker_lifetimes, report.cold_starts + report.restores);
  EXPECT_EQ(report.overheads.requests_served, 200u);
  EXPECT_EQ(report.overheads.worker_starts, report.worker_lifetimes);
  EXPECT_EQ(report.overheads.checkpoints_taken, report.checkpoints);
  EXPECT_EQ(report.checkpoints, env.engine(0).checkpoints_taken());
  EXPECT_EQ(report.restores, env.engine(0).restores_performed());
  // Uploads happened for every checkpoint; pool bounded by C.
  EXPECT_EQ(report.object_store.put_count, report.checkpoints);
  auto state = env.LoadPolicyState(0);
  ASSERT_TRUE(state.ok());
  EXPECT_LE(state->pool.size(), 12u);
  EXPECT_GT(report.end_time.ToMicros(), 0);
}

TEST(FunctionSimulationTest, CheckpointBlockingDelaysQueuedArrival) {
  // With checkpoint_blocks_requests, a request arriving during the
  // checkpoint downtime waits for it; otherwise checkpointing is invisible.
  const auto policy = RequestCentricPolicy::Create(TestConfig(2));
  ASSERT_TRUE(policy.ok());
  auto eviction = EveryKRequestsEviction::Create(100);
  ASSERT_TRUE(eviction.ok());

  // Two arrivals 1ms apart: the first triggers a checkpoint (cold worker
  // plans one within beta=2... may land on request 1 or 2), the second
  // queues right behind it.
  const std::vector<TimePoint> arrivals = {TimePoint::FromMicros(0),
                                           TimePoint::FromMicros(1000)};
  Duration latency_no_block;
  Duration latency_block;
  for (bool blocks : {false, true}) {
    SimOptions options;
    options.seed = 99;
    options.input_noise = false;
    options.lifecycle.checkpoint_blocks_requests = blocks;
    auto report =
        RunTrace(Profile("DynamicHTML"), *policy, **eviction, options, arrivals);
    ASSERT_TRUE(report.ok());
    ASSERT_EQ(report->records.size(), 2u);
    // Only meaningful when the checkpoint fired on the first request.
    if (!report->records[0].checkpoint_after) {
      return;  // Plan landed on request 2; nothing to compare this seed.
    }
    (blocks ? latency_block : latency_no_block) = report->records[1].latency;
  }
  // CRIU downtime is ~75ms for DynamicHTML; the blocked arrival pays it.
  EXPECT_GT(latency_block, latency_no_block + Duration::Millis(30));
}

TEST(FunctionSimulationTest, WorkerOccupancyAccounting) {
  const ColdStartPolicy policy;
  IdleTimeoutEviction eviction(Duration::Seconds(60));
  SimOptions options;
  options.input_noise = false;
  options.lifecycle.idle_resource_hold = eviction.timeout();
  // Two bursts of 3 back-to-back requests separated by a 10-minute gap: the
  // worker is evicted once (holding memory for the 60s idle hold) and the
  // final worker is accounted up to the end of the run.
  std::vector<TimePoint> arrivals;
  for (int burst = 0; burst < 2; ++burst) {
    const int64_t base = burst * 600 * 1000000LL;
    for (int i = 0; i < 3; ++i) {
      arrivals.push_back(TimePoint::FromMicros(base + i * 100000LL));
    }
  }
  auto report = RunTrace(Profile("DynamicHTML"), policy, eviction, options, arrivals);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->worker_lifetimes, 2u);
  // First worker: ~0.3s serving + 60s idle hold; second: ~0.3s to run end.
  const double alive_s = report->total_worker_alive_time.ToSeconds();
  EXPECT_GT(alive_s, 60.0);
  EXPECT_LT(alive_s, 75.0);
  // Memory-time is alive time weighted by the ~52 MB footprint.
  EXPECT_NEAR(report->worker_memory_time_mb_s / alive_s, 52.0, 6.0);
}

TEST(FunctionSimulationTest, OccupancyScalesWithIdleHold) {
  const ColdStartPolicy policy;
  IdleTimeoutEviction eviction(Duration::Seconds(300));
  std::vector<TimePoint> arrivals;
  for (int i = 0; i < 5; ++i) {
    arrivals.push_back(TimePoint::FromMicros(i * 600 * 1000000LL));  // 10-min gaps.
  }
  double memory_time[2];
  int idx = 0;
  for (int64_t hold_s : {0, 300}) {
    SimOptions options;
    options.input_noise = false;
    options.lifecycle.idle_resource_hold = Duration::Seconds(static_cast<double>(hold_s));
    auto report =
        RunTrace(Profile("DynamicHTML"), policy, eviction, options, arrivals);
    ASSERT_TRUE(report.ok());
    memory_time[idx++] = report->worker_memory_time_mb_s;
  }
  EXPECT_GT(memory_time[1], memory_time[0] * 10);
}

TEST(FunctionSimulationTest, InputNoiseWidensDistribution) {
  const ColdStartPolicy policy;
  SimOptions noisy;
  noisy.seed = 5;
  SimOptions quiet = noisy;
  quiet.input_noise = false;

  auto report_noisy = RunClosedLoop(Profile("PageRank"), policy, 20, noisy, 300);
  auto report_quiet = RunClosedLoop(Profile("PageRank"), policy, 20, quiet, 300);
  ASSERT_TRUE(report_noisy.ok());
  ASSERT_TRUE(report_quiet.ok());

  const auto noisy_summary = report_noisy->LatencySummary();
  const auto quiet_summary = report_quiet->LatencySummary();
  const double noisy_iqr = noisy_summary.Quantile(75) / noisy_summary.Quantile(25);
  const double quiet_iqr = quiet_summary.Quantile(75) / quiet_summary.Quantile(25);
  EXPECT_GT(noisy_iqr, quiet_iqr * 2.0);
  // Footnote 4: compute-bound IQR spans over an order of magnitude.
  EXPECT_GT(noisy_iqr, 5.0);
}

}  // namespace
}  // namespace pronghorn
