// The one-shot simulation entry point: configure deployments, run the
// closed loop, harvest one report.
//
// Every closed-loop experiment is one operation in some topology: §5.2's
// per-function CDFs use one worker, §5.3's amortization puts many workers on
// one function, and fleet-scale runs shard many functions across threads.
// Simulate() is that operation as a free function — pick a topology, list
// the functions, pass one SimOptions (optionally with an ObsSink), get one
// SimReport. It is what pronghorn_sim, pronghorn_eval and bench/suite call.
//
// Callers that need more than one run — learned state that persists across
// runs, trace replay, or access to the stores, engines and policy state of a
// live deployment — drive a SimEnvironment (sim_environment.h) directly;
// Simulate() is a thin configuration of that same kernel.
//
// Golden digests (tests/driver_equivalence_test.cc) pin each topology's
// output, with or without an observability sink attached.

#ifndef PRONGHORN_SRC_PLATFORM_SIMULATE_H_
#define PRONGHORN_SRC_PLATFORM_SIMULATE_H_

#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "src/obs/metrics.h"
#include "src/obs/sink.h"
#include "src/platform/metrics.h"
#include "src/platform/sim_options.h"
#include "src/workloads/workload_profile.h"

namespace pronghorn {

// How the deployments share infrastructure.
enum class SimTopology {
  // One deployment, one control plane, options.worker_slots slots (the
  // first options.exploring_slots explore). The deployment is named after
  // its profile and its RNG sub-seed is options.seed itself.
  kSingle,
  // Many deployments on ONE shared control plane (global Database + Object
  // Store), one worker slot each, closed loop across all of them; request
  // counts sum into the environment-wide total. Sub-seeds come from
  // SimEnvironment::DeploymentSeed(options.seed, name).
  kPlatform,
  // Many deployments, each its own isolated single-deployment environment
  // with options.worker_slots slots, sharded across options.threads workers
  // and merged canonically. Per-deployment request counts. The merged report
  // is bit-identical at every thread count: every RNG substream keys off
  // (options.seed, name), and the merge folds in name order.
  kFleet,
};

// One function deployment in a Simulate() run. `profile` and `policy` are
// borrowed and must outlive the call. Under kFleet the policy is shared by
// shards running concurrently, so it must be stateless per call (true of
// every policy in src/core except a live StopConditionPolicy's request
// counter); give a stateful policy one instance per function.
struct SimFunctionSpec {
  std::string name;  // Unique; keys the RNG substream in multi-function runs.
  const WorkloadProfile* profile = nullptr;
  const OrchestrationPolicy* policy = nullptr;
  uint64_t requests = 500;
};

struct SimFunctionResult {
  std::string function;
  SimulationReport report;
};

// The one report every topology produces: per-function reports in canonical
// (name) order, merged latency and lifecycle counters, the environment-wide
// store/fault accounting (ReportCore), and — when a sink was attached — the
// harvested metrics snapshot and a borrowed trace handle.
struct SimReport : ReportCore {
  std::vector<SimFunctionResult> per_function;  // Sorted by function name.

  // Every request latency across all functions, merged in canonical order.
  DistributionSummary latency;

  uint64_t worker_lifetimes = 0;
  uint64_t checkpoints = 0;
  uint64_t restores = 0;
  uint64_t cold_starts = 0;

  // How much per-function detail this report retains (always kAll for
  // kSingle/kPlatform; the fleet topology honors options.retention), and the
  // totals over ALL simulated functions — which per_function.size() and
  // `latency` understate under the bounded fleet modes.
  ReportRetention retention = ReportRetention::kAll;
  uint64_t functions_total = 0;
  uint64_t invocations_total = 0;

  // Exact-merge latency histogram over every request of every function,
  // complete in all retention modes (unlike `latency`, which needs the full
  // per-function record bodies).
  LatencyHistogram latency_hist;

  // The canonical digest as maintained by the streaming fold — equal to
  // ReportDigest over ALL simulated functions even when per_function was
  // decimated by a bounded retention mode.
  uint32_t streaming_digest = 0;

  // Counters / gauges / histograms harvested from the sink at the end of the
  // run; empty when no sink was attached (or the sink keeps no metrics).
  MetricsSnapshot metrics;
  // The sink's trace recorder, borrowed — valid while the sink outlives the
  // report; nullptr when tracing was off. Never feeds Digest().
  const TraceRecorder* trace = nullptr;

  // CRC32 over the canonical serialization (report_io::ReportDigest): every
  // per-function report in name order, then the shared core, so a
  // one-function kPlatform run and a one-function kFleet run hash
  // identically. Observability data (metrics, trace) is excluded by
  // construction.
  uint32_t Digest() const;

  // Per-function lookup; nullptr when `name` is not in the run.
  const SimulationReport* Find(std::string_view name) const;

  // Single-function flattened view (under kSingle, what
  // SimEnvironment::TakeFlatReport returns). Requires at least one function.
  const SimulationReport& flat() const { return per_function.front().report; }
};

// Runs one closed-loop experiment: instantiates the eviction model from
// options.eviction, deploys `functions` under `topology`, drives the closed
// loop, and harvests one SimReport. `obs`, when non-null, overrides
// options.obs for this run (the `Simulate(options, sink)` call shape);
// passing nullptr uses options.obs, which may itself be null (observability
// fully disabled — the zero-cost path).
//
// When options.sim_checkpoint is enabled, the run writes crash-consistent
// checkpoints keyed by the experiment fingerprint and, with resume set,
// continues from them, reproducing the uninterrupted digest bit-for-bit.
// kFleet checkpoints at completed-deployment granularity (only unfinished
// deployments re-run); kSingle/kPlatform checkpoint at whole-run granularity
// — every deployment's trajectory is a pure function of (seed, name), so a
// mid-run kill deterministically re-runs to the same report, and a finished
// run is served straight from the stored frame. Observability state
// (metrics/trace) is not checkpointed; a resumed-from-file run reports an
// empty metrics snapshot.
Result<SimReport> Simulate(const WorkloadRegistry& registry, SimTopology topology,
                           std::span<const SimFunctionSpec> functions,
                           const SimOptions& options, ObsSink* obs = nullptr);

}  // namespace pronghorn

#endif  // PRONGHORN_SRC_PLATFORM_SIMULATE_H_
