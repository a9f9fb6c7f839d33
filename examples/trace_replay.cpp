// Scenario: production-trace replay on the whole-platform simulator.
// Generates an Azure-like multi-function invocation trace, persists it as
// CSV (the interchange format for real traces), loads it back, and replays
// it against a platform hosting all three functions at once — once per
// orchestration policy — with a shared Database/Object Store, a 10-minute
// idle timeout, and a 20-minute max worker lifetime.

#include <cstdio>
#include <filesystem>
#include <string>

#include "src/core/baseline_policies.h"
#include "src/core/request_centric_policy.h"
#include "src/platform/sim_environment.h"
#include "src/trace/trace_generator.h"

using namespace pronghorn;

namespace {

int Fail(const Status& status) {
  std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string trace_path =
      argc > 1 ? argv[1]
               : (std::filesystem::temp_directory_path() / "pronghorn_trace.csv")
                     .string();

  // 1. Generate a 15-minute multi-function trace at mixed popularity.
  const AzureTraceModel model;
  TraceGenerator generator(model, /*seed=*/99);
  auto trace = generator.GenerateTrace(
      {{"MST", 85.0}, {"Thumbnailer", 75.0}, {"HTMLRendering", 65.0}},
      Duration::Seconds(900));
  if (!trace.ok()) {
    return Fail(trace.status());
  }
  if (Status s = trace->WriteCsv(trace_path); !s.ok()) {
    return Fail(s);
  }
  std::printf("wrote %zu invocations to %s\n", trace->size(), trace_path.c_str());

  // 2. Load it back (the path a real trace file would take).
  auto loaded = InvocationTrace::ReadCsv(trace_path);
  if (!loaded.ok()) {
    return Fail(loaded.status());
  }

  // 3. Replay the whole platform once per policy.
  PolicyConfig config;
  config.beta = 4;
  config.pool_capacity = 12;
  config.max_checkpoint_request = 100;
  const ColdStartPolicy cold(config);
  const CheckpointAfterFirstPolicy after_first(config);
  const auto request_centric = RequestCentricPolicy::Create(config);
  if (!request_centric.ok()) {
    return Fail(request_centric.status());
  }

  for (const OrchestrationPolicy* policy :
       {static_cast<const OrchestrationPolicy*>(&cold),
        static_cast<const OrchestrationPolicy*>(&after_first),
        static_cast<const OrchestrationPolicy*>(&*request_centric)}) {
    IdleTimeoutEviction idle(Duration::Seconds(600));
    MaxLifetimeEviction lifetime(Duration::Seconds(1200));
    AnyOfEviction eviction({&idle, &lifetime});
    SimOptions options;
    options.seed = 31;
    // One shared control plane; each function gets one worker slot and RNG
    // substreams keyed by (seed, function name).
    SimEnvironment platform(WorkloadRegistry::Default(), options);
    for (const std::string& function : loaded->Functions()) {
      auto profile = WorkloadRegistry::Default().Find(function);
      if (!profile.ok()) {
        return Fail(profile.status());
      }
      if (Status s = platform.AddDeployment(
              function, **profile, *policy, eviction, /*worker_slots=*/1,
              /*exploring_slots=*/1,
              SimEnvironment::DeploymentSeed(options.seed, function));
          !s.ok()) {
        return Fail(s);
      }
    }

    if (Status s = platform.RunArrivals(*loaded); !s.ok()) {
      return Fail(s);
    }
    const EnvironmentReport report = platform.TakeReport();

    std::printf("\npolicy: %s\n", std::string(policy->name()).c_str());
    DistributionSummary global_latency;
    uint64_t checkpoints = 0;
    for (const auto& [function, function_report] : report.per_function) {
      for (const RequestRecord& record : function_report.records) {
        global_latency.Add(static_cast<double>(record.latency.ToMicros()));
      }
      checkpoints += function_report.checkpoints;
      const DistributionSummary summary = function_report.LatencySummary();
      std::printf("  %-14s %4zu reqs   median %9.0f us   p90 %9.0f us   "
                  "(%llu lifetimes, %llu checkpoints)\n",
                  function.c_str(), function_report.records.size(), summary.Median(),
                  summary.Quantile(90),
                  static_cast<unsigned long long>(function_report.worker_lifetimes),
                  static_cast<unsigned long long>(function_report.checkpoints));
    }
    std::printf("  platform: global median %9.0f us, %llu checkpoints, "
                "%.0f MB peak snapshot storage\n",
                global_latency.Median(),
                static_cast<unsigned long long>(checkpoints),
                static_cast<double>(report.object_store.peak_logical_bytes) /
                    1048576.0);
  }
  return 0;
}
