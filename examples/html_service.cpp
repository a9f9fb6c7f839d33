// Scenario: a dynamic-HTML rendering service — the workload the paper's
// introduction motivates (Figure 1). A single function deployment serves
// traffic under aggressive worker eviction; we watch Pronghorn learn the
// request range, build its snapshot pool, and converge onto hot snapshots,
// reporting the phase-by-phase median latency and the learned weight vector.

#include <cstdio>
#include <string>

#include "src/core/request_centric_policy.h"
#include "src/platform/analysis.h"
#include "src/platform/sim_environment.h"

using namespace pronghorn;

namespace {

void PrintPhase(const char* label, const SimulationReport& report, size_t begin,
                size_t end) {
  DistributionSummary summary;
  double maturity_sum = 0;
  for (size_t i = begin; i < end && i < report.records.size(); ++i) {
    summary.Add(static_cast<double>(report.records[i].latency.ToMicros()));
    maturity_sum += static_cast<double>(report.records[i].request_number);
  }
  std::printf("  %-28s median %8.0f us   p90 %8.0f us   avg JIT maturity %6.1f\n",
              label, summary.Median(), summary.Quantile(90),
              maturity_sum / static_cast<double>(end - begin));
}

}  // namespace

int main() {
  const auto profile = WorkloadRegistry::Default().Find("DynamicHTML");
  if (!profile.ok()) {
    std::fprintf(stderr, "%s\n", profile.status().ToString().c_str());
    return 1;
  }

  PolicyConfig config;
  config.beta = 1;  // One request per worker: the serverless worst case.
  config.pool_capacity = 12;
  config.max_checkpoint_request = 100;
  const auto policy = RequestCentricPolicy::Create(config);
  if (!policy.ok()) {
    std::fprintf(stderr, "%s\n", policy.status().ToString().c_str());
    return 1;
  }

  auto eviction = EveryKRequestsEviction::Create(1);
  if (!eviction.ok()) {
    std::fprintf(stderr, "%s\n", eviction.status().ToString().c_str());
    return 1;
  }

  // A SimEnvironment rather than a one-shot Simulate(): after the run we
  // read the learned state back out of the deployment's Database.
  SimOptions options;
  options.seed = 7;
  SimEnvironment env(WorkloadRegistry::Default(), options);
  if (Status s = env.AddDeployment((*profile)->name, **profile, *policy, **eviction,
                                   /*worker_slots=*/1, /*exploring_slots=*/1,
                                   options.seed);
      !s.ok()) {
    std::fprintf(stderr, "%s\n", s.ToString().c_str());
    return 1;
  }

  std::printf("Dynamic HTML rendering service: 600 requests, a fresh worker for\n"
              "every request (eviction rate 1), request-centric orchestration.\n\n");
  if (Status s = env.RunClosedLoop(600); !s.ok()) {
    std::fprintf(stderr, "simulation failed: %s\n", s.ToString().c_str());
    return 1;
  }
  const SimulationReport report = env.TakeFlatReport();

  std::printf("phase-by-phase behavior:\n");
  PrintPhase("requests   1-100 (explore)", report, 0, 100);
  PrintPhase("requests 101-200", report, 100, 200);
  PrintPhase("requests 201-300", report, 200, 300);
  PrintPhase("requests 301-600 (exploit)", report, 300, 600);

  std::printf("\nplatform activity: %llu worker lifetimes, %llu cold starts, "
              "%llu restores, %llu checkpoints\n",
              static_cast<unsigned long long>(report.worker_lifetimes),
              static_cast<unsigned long long>(report.cold_starts),
              static_cast<unsigned long long>(report.restores),
              static_cast<unsigned long long>(report.checkpoints));

  // Peek at the learned state in the Database.
  auto state = env.LoadPolicyState(0);
  if (!state.ok()) {
    std::fprintf(stderr, "%s\n", state.status().ToString().c_str());
    return 1;
  }
  std::printf("\nlearned weight vector theta (explored %u of %u request numbers):\n",
              state->theta.ExploredCount(), state->theta.length());
  for (uint64_t r : {1ull, 5ull, 10ull, 25ull, 50ull, 75ull, 100ull}) {
    std::printf("  theta[%3llu] = %8.2f ms\n", static_cast<unsigned long long>(r),
                state->theta.At(r) * 1000.0);
  }
  std::printf("\nsnapshot pool (%zu of %u slots):\n", state->pool.size(),
              config.pool_capacity);
  for (const PoolEntry& entry : state->pool.entries()) {
    std::printf("  snapshot %-4llu taken at request %-4llu (%5.1f MB) -> %s\n",
                static_cast<unsigned long long>(entry.metadata.id.value),
                static_cast<unsigned long long>(entry.metadata.request_number),
                static_cast<double>(entry.metadata.logical_size_bytes) / 1048576.0,
                entry.object_key.c_str());
  }

  const auto convergence = ConvergenceRequest(report.records, 20, 0.02);
  if (convergence.has_value()) {
    std::printf("\nconverged (window-20 median within 2%% of final) at request %llu\n",
                static_cast<unsigned long long>(*convergence));
  }
  return 0;
}
