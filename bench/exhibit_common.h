// Shared helpers for the exhibit harnesses (one binary per paper table or
// figure). Each harness prints the rows/series of its exhibit; absolute
// numbers come from the simulated substrate, so the *shape* (who wins, by
// roughly what factor, where crossovers fall) is the comparison target, not
// the paper's testbed-specific values.

#ifndef PRONGHORN_BENCH_EXHIBIT_COMMON_H_
#define PRONGHORN_BENCH_EXHIBIT_COMMON_H_

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "src/common/thread_pool.h"
#include "src/core/baseline_policies.h"
#include "src/core/request_centric_policy.h"
#include "src/platform/analysis.h"
#include "src/platform/sim_environment.h"
#include "src/platform/simulate.h"

namespace pronghorn::bench {

// --- Measurement discipline -------------------------------------------------
//
// Every wall-clock number a bench emits goes through warmup + median-of-N:
// the first rep(s) pay cold caches, lazy page faults, and branch-predictor
// training, and any single rep can eat a scheduler preemption. The median is
// robust to those one-sided outliers where a mean is not; min/max are kept so
// the JSON records how noisy the machine was (a wide spread says "rerun
// before trusting a small delta").

struct TimingSample {
  double median_seconds = 0.0;
  double min_seconds = 0.0;
  double max_seconds = 0.0;
};

// Times `fn` `reps` times after `warmup` untimed runs; returns the median
// with the min/max envelope. `fn` must be idempotent (each rep repeats the
// same work).
template <typename Fn>
TimingSample MeasureMedianSeconds(int warmup, int reps, Fn&& fn) {
  for (int i = 0; i < warmup; ++i) {
    fn();
  }
  std::vector<double> seconds;
  seconds.reserve(static_cast<size_t>(reps));
  for (int i = 0; i < reps; ++i) {
    const auto start = std::chrono::steady_clock::now();
    fn();
    const auto end = std::chrono::steady_clock::now();
    seconds.push_back(std::chrono::duration<double>(end - start).count());
  }
  std::sort(seconds.begin(), seconds.end());
  TimingSample sample;
  sample.min_seconds = seconds.front();
  sample.max_seconds = seconds.back();
  sample.median_seconds = seconds[seconds.size() / 2];
  if (seconds.size() % 2 == 0) {
    sample.median_seconds =
        (seconds[seconds.size() / 2 - 1] + seconds[seconds.size() / 2]) / 2.0;
  }
  return sample;
}

// --- Machine metadata -------------------------------------------------------
//
// Committed BENCH_*.json baselines are only comparable to reruns on the same
// class of machine, so every writer stamps what it ran on. A baseline from a
// 1-core container and a rerun on a 32-core workstation should be visibly
// incomparable from the JSON alone.

struct MachineInfo {
  uint32_t hardware_threads = 0;
  std::string cpu_governor;  // "unknown" when sysfs is unreadable (containers).
};

inline MachineInfo QueryMachineInfo() {
  MachineInfo info;
  info.hardware_threads = ThreadPool::DefaultThreadCount();
  std::ifstream governor("/sys/devices/system/cpu/cpu0/cpufreq/scaling_governor");
  if (!governor || !std::getline(governor, info.cpu_governor) ||
      info.cpu_governor.empty()) {
    info.cpu_governor = "unknown";
  }
  return info;
}

// Emits `"machine": {...},` (with trailing comma) at `indent`.
inline void EmitMachineJson(std::FILE* out, const char* indent) {
  const MachineInfo info = QueryMachineInfo();
  std::fprintf(out,
               "%s\"machine\": {\"hardware_threads\": %u, "
               "\"cpu_governor\": \"%s\"},\n",
               indent, info.hardware_threads, info.cpu_governor.c_str());
}

// The evaluation's policy parameters (§5.1 "Orchestration policies"):
// p = 40%, gamma = 10%, C = 12, W = 100 (PyPy) / 200 (JVM), beta = the
// eviction interval under test.
inline PolicyConfig PaperConfig(const WorkloadProfile& profile, uint32_t eviction_k) {
  PolicyConfig config;
  config.beta = eviction_k;
  config.pool_capacity = 12;
  config.max_checkpoint_request = profile.family == RuntimeFamily::kJvm ? 200 : 100;
  config.retain_top_percent = 40.0;
  config.retain_random_percent = 10.0;
  return config;
}

inline const WorkloadProfile& MustFind(const char* name) {
  auto profile = WorkloadRegistry::Default().Find(name);
  if (!profile.ok()) {
    std::fprintf(stderr, "unknown benchmark %s: %s\n", name,
                 profile.status().ToString().c_str());
    std::exit(1);
  }
  return **profile;
}

enum class PolicyKind { kCold, kAfterFirst, kRequestCentric };

inline const char* PolicyKindName(PolicyKind kind) {
  switch (kind) {
    case PolicyKind::kCold:
      return "Cold";
    case PolicyKind::kAfterFirst:
      return "Checkpoint after 1st";
    case PolicyKind::kRequestCentric:
      return "Request-centric";
  }
  return "?";
}

inline std::unique_ptr<OrchestrationPolicy> MakePolicy(PolicyKind kind,
                                                       const PolicyConfig& config) {
  switch (kind) {
    case PolicyKind::kCold:
      return std::make_unique<ColdStartPolicy>(config);
    case PolicyKind::kAfterFirst:
      return std::make_unique<CheckpointAfterFirstPolicy>(config);
    case PolicyKind::kRequestCentric: {
      auto policy = RequestCentricPolicy::Create(config);
      if (!policy.ok()) {
        std::fprintf(stderr, "bad policy config: %s\n",
                     policy.status().ToString().c_str());
        std::exit(1);
      }
      return std::make_unique<RequestCentricPolicy>(*std::move(policy));
    }
  }
  return nullptr;
}

// Runs one closed-loop experiment (the §5.1 measurement protocol) through
// Simulate(kSingle) with one worker slot and sub-seed = seed.
inline SimulationReport RunClosedLoop(const WorkloadProfile& profile, PolicyKind kind,
                                      uint32_t eviction_k, uint64_t requests,
                                      uint64_t seed, bool input_noise = true) {
  const PolicyConfig config = PaperConfig(profile, eviction_k);
  const auto policy = MakePolicy(kind, config);
  SimOptions options;
  options.seed = seed;
  options.input_noise = input_noise;
  options.worker_slots = 1;
  options.exploring_slots = 1;
  options.eviction.kind = FleetEvictionSpec::Kind::kEveryK;
  options.eviction.k = eviction_k;
  SimFunctionSpec spec;
  spec.name = profile.name;
  spec.profile = &profile;
  spec.policy = policy.get();
  spec.requests = requests;
  auto report = Simulate(WorkloadRegistry::Default(), SimTopology::kSingle,
                         std::span<const SimFunctionSpec>(&spec, 1), options);
  if (!report.ok()) {
    std::fprintf(stderr, "simulation failed: %s\n", report.status().ToString().c_str());
    std::exit(1);
  }
  return std::move(report->per_function.front().report);
}

// Registers `profile` as the one-worker deployment of `env` (sub-seed =
// `seed`), for exhibits that need more than Simulate() gives: an eviction
// model FleetEvictionSpec cannot express, trace-driven arrivals, or the
// deployment's engine afterwards. Exits on failure.
inline void DeploySingleWorker(SimEnvironment& env, const WorkloadProfile& profile,
                               const OrchestrationPolicy& policy,
                               const EvictionModel& eviction, uint64_t seed) {
  const Status status = env.AddDeployment(profile.name, profile, policy, eviction,
                                          /*worker_slots=*/1,
                                          /*exploring_slots=*/1, seed);
  if (!status.ok()) {
    std::fprintf(stderr, "deployment failed: %s\n", status.ToString().c_str());
    std::exit(1);
  }
}

// Replays `arrivals` against one worker of `profile` in a fresh environment
// (a request arriving while the worker is busy queues behind it) and
// retires the last worker at the end of the trace. Exits on failure.
inline SimulationReport RunSingleWorkerTrace(const WorkloadProfile& profile,
                                             const OrchestrationPolicy& policy,
                                             const EvictionModel& eviction,
                                             const SimOptions& options,
                                             const std::vector<TimePoint>& arrivals) {
  SimEnvironment env(WorkloadRegistry::Default(), options);
  DeploySingleWorker(env, profile, policy, eviction, options.seed);
  std::vector<SimEnvironment::Arrival> events;
  events.reserve(arrivals.size());
  for (const TimePoint arrival : arrivals) {
    events.push_back(SimEnvironment::Arrival{0, arrival});
  }
  if (const Status status = env.RunArrivals(events); !status.ok()) {
    std::fprintf(stderr, "%s\n", status.ToString().c_str());
    std::exit(1);
  }
  env.RetireAllWorkers();
  return env.TakeFlatReport();
}

// Prints a percentile row of a latency distribution in microseconds.
inline void PrintPercentileRow(const char* label, const DistributionSummary& summary) {
  std::printf("  %-22s p10=%9.0f  p25=%9.0f  p50=%9.0f  p75=%9.0f  p90=%9.0f  "
              "p99=%9.0f\n",
              label, summary.Quantile(10), summary.Quantile(25), summary.Quantile(50),
              summary.Quantile(75), summary.Quantile(90), summary.Quantile(99));
}

// Renders the distribution as an ASCII density over a log-scale latency axis
// (the visual analogue of the paper's log-x CDF panels). `log10_lo/hi` bound
// the axis in log10(microseconds).
inline void PrintAsciiDensity(const char* label, const DistributionSummary& summary,
                              double log10_lo, double log10_hi) {
  LogHistogram histogram(log10_lo, log10_hi, 60);
  for (double v : summary.samples()) {
    histogram.Add(v);
  }
  std::printf("  %-22s |%s| 1e%.0f..1e%.0f us\n", label,
              histogram.ToAsciiArt(60).c_str(), log10_lo, log10_hi);
}

// Shared log-axis bounds covering both distributions.
inline std::pair<double, double> SharedLogBounds(const DistributionSummary& a,
                                                 const DistributionSummary& b) {
  const double lo = std::min(a.Quantile(1), b.Quantile(1));
  const double hi = std::max(a.Quantile(99), b.Quantile(99));
  const double log_lo = std::floor(std::log10(std::max(lo, 1.0)));
  const double log_hi = std::ceil(std::log10(std::max(hi, 10.0)));
  return {log_lo, log_hi};
}

inline void PrintRule() {
  std::printf("--------------------------------------------------------------------"
              "-----------------------------\n");
}

}  // namespace pronghorn::bench

#endif  // PRONGHORN_BENCH_EXHIBIT_COMMON_H_
