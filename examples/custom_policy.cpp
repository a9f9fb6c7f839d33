// Scenario: extending the orchestrator with a custom policy. The paper's
// Orchestrator runs policies "through a minimal abstract interface, enabling
// easy implementation of a range of policies" (§4). This example implements
// a plausible middle-ground heuristic — checkpoint once at a fixed request
// number N, always restore the newest snapshot — plugs it into the platform
// unchanged, and shows why learned orchestration beats hand-picked N.

#include <algorithm>
#include <cstdio>
#include <span>
#include <string>

#include "src/core/baseline_policies.h"
#include "src/core/request_centric_policy.h"
#include "src/platform/simulate.h"

using namespace pronghorn;

namespace {

// Checkpoint-at-fixed-N: like checkpoint-after-1st, but the (single)
// snapshot is taken after the N-th request since cold start, with chained
// re-checkpoints until maturity N is reached. N must be guessed per
// workload — exactly the manual tuning Pronghorn's learning removes.
class FixedPointPolicy : public OrchestrationPolicy {
 public:
  FixedPointPolicy(const PolicyConfig& config, uint64_t target_request)
      : config_(config), target_(target_request) {}

  std::string_view name() const override { return "fixed-point"; }
  const PolicyConfig& config() const override { return config_; }

  StartDecision OnWorkerStart(const PolicyState& state, Rng& rng) const override {
    (void)rng;
    StartDecision decision;
    // Restore the most mature snapshot available (newest id wins ties).
    const PoolEntry* best = nullptr;
    for (const PoolEntry& entry : state.pool.entries()) {
      if (best == nullptr ||
          entry.metadata.request_number > best->metadata.request_number) {
        best = &entry;
      }
    }
    uint64_t start = 0;
    if (best != nullptr) {
      decision.restore_from = best->metadata.id;
      start = best->metadata.request_number;
    }
    if (start < target_) {
      // March toward the target one lifetime at a time.
      decision.checkpoint_at_request = std::min<uint64_t>(start + config_.beta, target_);
    }
    return decision;
  }

  void OnRequestComplete(PolicyState& state, uint64_t request_number,
                         Duration latency) const override {
    state.theta.Update(request_number, latency.ToSeconds(), config_.alpha);
  }

  std::vector<PoolEntry> OnSnapshotAdded(PolicyState& state, Rng& rng) const override {
    (void)rng;
    // Keep only the most mature snapshot: this policy never looks back.
    std::vector<PoolEntry> evicted;
    while (state.pool.size() > 1) {
      const PoolEntry* worst = nullptr;
      for (const PoolEntry& entry : state.pool.entries()) {
        if (worst == nullptr ||
            entry.metadata.request_number < worst->metadata.request_number) {
          worst = &entry;
        }
      }
      std::vector<double> weights(state.pool.size(), 1.0);
      for (size_t i = 0; i < state.pool.size(); ++i) {
        if (&state.pool.entries()[i] == worst) {
          weights[i] = 0.0;
        }
      }
      Rng deterministic(0);
      auto removed = state.pool.Prune(weights, /*top_percent=*/
                                      100.0 * (static_cast<double>(state.pool.size()) -
                                               1.0) /
                                          static_cast<double>(state.pool.size()),
                                      0.0, deterministic);
      for (PoolEntry& entry : removed) {
        evicted.push_back(std::move(entry));
      }
      if (removed.empty()) {
        break;  // Defensive: Prune never empties, avoid spinning.
      }
    }
    return evicted;
  }

 private:
  PolicyConfig config_;
  uint64_t target_;
};

double RunAndReportMedian(const WorkloadProfile& profile,
                          const OrchestrationPolicy& policy, const char* label) {
  // One worker, evicted after every request.
  SimOptions options;
  options.seed = 404;
  options.worker_slots = 1;
  options.exploring_slots = 1;
  options.eviction.kind = FleetEvictionSpec::Kind::kEveryK;
  options.eviction.k = 1;
  SimFunctionSpec spec;
  spec.name = profile.name;
  spec.profile = &profile;
  spec.policy = &policy;
  spec.requests = 500;
  auto report = Simulate(WorkloadRegistry::Default(), SimTopology::kSingle,
                         std::span<const SimFunctionSpec>(&spec, 1), options);
  if (!report.ok()) {
    std::fprintf(stderr, "%s\n", report.status().ToString().c_str());
    std::exit(1);
  }
  const double median = report->flat().MedianLatencyUs();
  std::printf("  %-24s median %9.0f us   (%llu checkpoints)\n", label, median,
              static_cast<unsigned long long>(report->flat().checkpoints));
  return median;
}

}  // namespace

int main() {
  const auto profile = WorkloadRegistry::Default().Find("BFS");
  if (!profile.ok()) {
    std::fprintf(stderr, "%s\n", profile.status().ToString().c_str());
    return 1;
  }

  PolicyConfig config;
  config.beta = 1;
  config.pool_capacity = 12;
  config.max_checkpoint_request = 100;

  std::printf("Custom-policy plug-in demo on BFS (eviction rate 1, 500 requests)\n\n");
  std::printf("hand-tuned fixed checkpoint points:\n");
  for (uint64_t target : {1ull, 10ull, 50ull, 100ull}) {
    const FixedPointPolicy policy(config, target);
    const std::string label = "fixed-point N=" + std::to_string(target);
    RunAndReportMedian(**profile, policy, label.c_str());
  }

  std::printf("\nlearned orchestration:\n");
  const auto request_centric = RequestCentricPolicy::Create(config);
  if (!request_centric.ok()) {
    std::fprintf(stderr, "%s\n", request_centric.status().ToString().c_str());
    return 1;
  }
  RunAndReportMedian(**profile, *request_centric, "request-centric");

  std::printf("\nThe best fixed N is workload-specific (and drifts with inputs);\n"
              "the request-centric policy finds the good region automatically and\n"
              "keeps adapting -- without the operator guessing N.\n");
  return 0;
}
