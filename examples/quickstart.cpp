// Quickstart: compare Pronghorn's request-centric policy against the
// cold-start and checkpoint-after-1st baselines on one benchmark.
//
// Build & run:
//   cmake -B build -G Ninja && cmake --build build
//   ./build/examples/quickstart [benchmark] [eviction_k] [requests]

#include <cstdio>
#include <cstdlib>
#include <span>
#include <string>

#include "src/core/baseline_policies.h"
#include "src/core/request_centric_policy.h"
#include "src/platform/analysis.h"
#include "src/platform/simulate.h"

using namespace pronghorn;

namespace {

// One closed-loop run: a single worker, evicted every `eviction_k` requests.
SimulationReport RunPolicy(const WorkloadProfile& profile,
                           const OrchestrationPolicy& policy, uint64_t eviction_k,
                           uint64_t requests, uint64_t seed) {
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
                         std::span<const SimFunctionSpec>(&spec, 1), options);
  if (!report.ok()) {
    std::fprintf(stderr, "simulation failed: %s\n", report.status().ToString().c_str());
    std::exit(1);
  }
  return std::move(report->per_function.front().report);
}

}  // namespace

int main(int argc, char** argv) {
  const std::string benchmark = argc > 1 ? argv[1] : "DynamicHTML";
  const uint64_t eviction_k =
      argc > 2 ? static_cast<uint64_t>(std::strtoull(argv[2], nullptr, 10)) : 1;
  const uint64_t requests =
      argc > 3 ? static_cast<uint64_t>(std::strtoull(argv[3], nullptr, 10)) : 500;

  const auto profile = WorkloadRegistry::Default().Find(benchmark);
  if (!profile.ok()) {
    std::fprintf(stderr, "%s\n", profile.status().ToString().c_str());
    std::fprintf(stderr, "known benchmarks:\n");
    for (const auto& p : WorkloadRegistry::Default().profiles()) {
      std::fprintf(stderr, "  %s (%s)\n", p.name.c_str(),
                   std::string(RuntimeFamilyName(p.family)).c_str());
    }
    return 1;
  }

  PolicyConfig config;
  config.beta = static_cast<uint32_t>(eviction_k);
  config.max_checkpoint_request =
      (*profile)->family == RuntimeFamily::kJvm ? 200 : 100;

  const ColdStartPolicy cold(config);
  const CheckpointAfterFirstPolicy after_first(config);
  const auto request_centric = RequestCentricPolicy::Create(config);
  if (!request_centric.ok()) {
    std::fprintf(stderr, "%s\n", request_centric.status().ToString().c_str());
    return 1;
  }

  std::printf("benchmark=%s runtime=%s eviction=every %llu request(s), %llu requests\n\n",
              benchmark.c_str(),
              std::string(RuntimeFamilyName((*profile)->family)).c_str(),
              static_cast<unsigned long long>(eviction_k),
              static_cast<unsigned long long>(requests));
  std::printf("%-22s %12s %12s %12s %12s\n", "policy", "p50 (us)", "p90 (us)",
              "p99 (us)", "checkpoints");

  SimulationReport baseline_report;
  for (const OrchestrationPolicy* policy :
       {static_cast<const OrchestrationPolicy*>(&cold),
        static_cast<const OrchestrationPolicy*>(&after_first),
        static_cast<const OrchestrationPolicy*>(&*request_centric)}) {
    const SimulationReport report =
        RunPolicy(**profile, *policy, eviction_k, requests, /*seed=*/42);
    const DistributionSummary summary = report.LatencySummary();
    std::printf("%-22s %12.0f %12.0f %12.0f %12llu\n",
                std::string(policy->name()).c_str(), summary.Quantile(50),
                summary.Quantile(90), summary.Quantile(99),
                static_cast<unsigned long long>(report.checkpoints));
    if (policy == static_cast<const OrchestrationPolicy*>(&after_first)) {
      baseline_report = report;
    }
    if (policy == static_cast<const OrchestrationPolicy*>(&*request_centric)) {
      std::printf("\nrequest-centric median improvement over checkpoint-after-1st: "
                  "%.1f%%\n",
                  MedianImprovementPercent(baseline_report, report));
    }
  }
  return 0;
}
