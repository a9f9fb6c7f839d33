// SimOptions: the one options surface of the simulation kernel.
//
// Simulate() (simulate.h) and SimEnvironment (sim_environment.h) both take
// this composite and read the fields they understand. A SimEnvironment takes
// its slot counts and eviction model per AddDeployment call, so it ignores
// `worker_slots`, `exploring_slots`, `eviction`, `threads`, `pin_threads`,
// `retention` and `sim_checkpoint`; Simulate() reads all of them (kPlatform
// runs one slot per deployment, and only kFleet reads `threads`,
// `pin_threads` and `retention`).
//
// The composite groups the knobs the way the kernel consumes them:
//   - experiment identity:   seed, engine_kind, input_noise
//   - topology:              worker_slots, exploring_slots, threads
//   - lifecycle accounting:  lifecycle (LifecycleOptions)
//   - cost model:            costs (OrchestratorCostModel)
//   - chaos layer:           faults (FaultPlan) + recovery (RecoveryOptions)
//   - observability:         obs (borrowed ObsSink*, null = disabled)
//
// The `obs` sink is deliberately a raw borrowed pointer: instrumentation
// sites null-check it, so a simulation without observability pays one pointer
// compare per site and nothing else. Obs data never feeds back into
// digest-covered state (see src/obs/sink.h).

#ifndef PRONGHORN_SRC_PLATFORM_SIM_OPTIONS_H_
#define PRONGHORN_SRC_PLATFORM_SIM_OPTIONS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>

#include "src/common/clock.h"
#include "src/common/result.h"
#include "src/core/orchestrator.h"
#include "src/platform/eviction.h"
#include "src/store/fault_injection.h"
#include "src/store/snapshot_store.h"

namespace pronghorn {

class ObsSink;  // src/obs/sink.h; forward-declared to keep this header light.
class OrchestratorService;  // src/service/orchestrator_service.h.

// Which checkpoint engine implementation each deployment instantiates.
enum class EngineKind {
  kCriuLike = 0,  // Full-image CRIU-style engine (the paper's setup).
  kDelta = 1,     // Medes-style deduplicating delta engine (§7 related work).
};

// Knobs that change how a lifetime's costs appear in client-visible latency
// and in the provider-side occupancy accounting. Defaults mirror the paper's
// measurement setup (§5.1): startup happens off the critical path and
// checkpoints never delay the next request.
struct LifecycleOptions {
  // Charge worker startup to the first request of each lifetime.
  bool startup_on_critical_path = false;
  // When a checkpoint's downtime overlaps the next arrival, delay it (only
  // observable with trace-driven arrivals; closed-loop clients wait anyway).
  bool checkpoint_blocks_requests = false;
  // How long an idle worker holds its resources before the platform reclaims
  // them; feeds the memory-time accounting in trace-driven runs.
  Duration idle_resource_hold = Duration::Zero();
};

// How Simulate() instantiates eviction models. kSingle and kPlatform build
// one model from options.seed; kFleet builds one per shard from the shard's
// function seed, because a model with hidden RNG state (geometric) shared
// across shards would both race and couple their draw sequences. Callers
// whose eviction model does not fit this spec (composites such as AnyOf,
// max-lifetime, a geometric model with its own seed) drive a SimEnvironment,
// which borrows an EvictionModel per deployment.
struct FleetEvictionSpec {
  enum class Kind {
    kEveryK = 0,
    kGeometric = 1,
    kIdleTimeout = 2,
  };
  Kind kind = Kind::kEveryK;
  uint64_t k = 4;                 // kEveryK
  double mean_requests = 4.0;     // kGeometric
  Duration idle_timeout = Duration::Seconds(600);  // kIdleTimeout

  Result<std::unique_ptr<EvictionModel>> Instantiate(uint64_t function_seed) const;
};

// How much per-function detail a fleet-scale run retains in its merged
// report. Aggregates (store accountings, fault counters, lifecycle totals,
// the exact-merge latency histogram, and the canonical digest) are ALWAYS
// complete in every mode — retention only bounds the per-function record
// detail, which is what makes peak RSS O(shards + retained-K) instead of
// O(functions x requests) at fleet scale.
enum class ReportRetention : uint8_t {
  // Retain every per-function report. The compatibility mode: the merged
  // report is bit-identical to the historical collect-then-merge path.
  kAll = 0,
  // Retain the K functions with the highest median latency (ties broken by
  // name). A pure function of the folded set, so schedule-independent.
  kTopLatency = 1,
  // Retain a deterministic uniform sample of K functions: the K smallest
  // values of HashCombine(seed, name-hash). Order-insensitive by
  // construction, unlike a classic streaming reservoir.
  kReservoir = 2,
};

// Stable labels for serialized reports ("all", "top-latency", "reservoir"),
// so decimated outputs are always distinguishable from complete ones.
std::string_view RetentionLabel(ReportRetention retention);
Result<ReportRetention> ParseRetention(std::string_view label);

struct RetentionOptions {
  ReportRetention mode = ReportRetention::kAll;
  // Retained-function budget for the bounded modes; ignored by kAll.
  uint64_t k = 64;
  // Substream for kReservoir's hash sample; combined with the name hash only,
  // never with shard or thread identity.
  uint64_t seed = 1;
};

// Periodic crash-consistent simulation checkpoints (src/platform/
// sim_checkpoint.h). Fleet runs checkpoint at completed-deployment
// granularity; single/platform runs checkpoint the finished report. Resuming
// a killed run reproduces the uninterrupted run's digest bit-for-bit.
struct SimCheckpointOptions {
  // Directory for checkpoint files; empty disables checkpointing.
  std::string dir;
  // Write a checkpoint every N completed deployments (fleet topology).
  uint64_t every = 1;
  // Load the newest valid checkpoint from `dir` before running, skipping
  // work it already covers.
  bool resume = false;

  bool enabled() const { return !dir.empty(); }
};

// Service mode: route every worker-lifecycle operation through a live
// OrchestratorService over its wire format instead of direct in-process
// Orchestrator calls. Digest-neutral by construction: simulation clients are
// synchronous, so the service executes the identical operation sequence and
// reports are bit-identical with the mode on or off, at any shard count or
// batch setting (pinned by tests/service_equivalence_test.cc).
struct ServiceModeOptions {
  bool enabled = false;
  uint32_t shards = 4;
  uint32_t max_batch = 16;
  Duration flush_interval = Duration::Millis(5);
  size_t queue_capacity = 256;
  // Per-slot write-ahead observation journals live here; empty disables
  // journaling (the default — and the digest-gated zero-cost path).
  // Simulation clients are synchronous, so even with a directory set no
  // sequences are assigned and crash injection stays digest-neutral.
  std::string journal_dir;
  // Host-time enqueue budget for start decisions; 0 = block forever.
  // Closed-loop simulation clients never saturate a queue long enough to
  // shed, so this too is digest-neutral in sim mode.
  uint32_t shed_deadline_ms = 0;
  // Borrowed shared service; when null each environment owns a private one.
  // A kFleet run sets this so all shards talk to a single service.
  OrchestratorService* instance = nullptr;
};

struct SimOptions {
  // Deterministic experiment seed; multi-deployment runs derive
  // per-deployment sub-seeds from it via SimEnvironment::DeploymentSeed.
  uint64_t seed = 1;
  EngineKind engine_kind = EngineKind::kCriuLike;
  // Client-side input-size perturbation (§5.1), on by default.
  bool input_noise = true;

  // Topology, read by Simulate(). kPlatform ignores the slot counts (one
  // slot per deployment); only kFleet reads `threads` (0 = one per hardware
  // thread).
  uint32_t worker_slots = 4;
  uint32_t exploring_slots = 1;
  uint32_t threads = 0;
  // Pin fleet shard threads to cores (Linux only; see ThreadPoolOptions).
  // Like `threads`, a pure scheduling knob: never fingerprinted, never
  // affects results.
  bool pin_threads = false;
  FleetEvictionSpec eviction;

  LifecycleOptions lifecycle;
  OrchestratorCostModel costs;

  // Decoded-policy-state cache in the per-deployment PolicyStateStore. Pure
  // CPU optimization: digests are bit-identical with the cache on or off
  // (pinned by tests/hot_path_equivalence_test.cc); the knob exists for that
  // comparison and for --no-state-cache.
  bool state_cache = true;

  // How each deployment's snapshot store is built: the flat whole-blob store
  // (default) or the content-addressed DedupSnapshotStore with optional CDC
  // chunking and REAP-style lazy restore. Digest-neutral: only the digest-excluded
  // physical accounting differs between kinds.
  SnapshotStoreOptions store;

  // Chaos layer: when the plan is active, the stores are wrapped in fault
  // decorators driven by the simulated clock. The plan's seed is combined
  // with the experiment seed, so distinct experiments draw distinct faults.
  FaultPlan faults;
  // Bounds for the orchestrators' retry/fallback/quarantine machinery.
  RecoveryOptions recovery;

  // Live service mode (see ServiceModeOptions above).
  ServiceModeOptions service;

  // Fleet-scale report retention (see ReportRetention above). kAll keeps the
  // historical collect-then-merge output bit-for-bit.
  RetentionOptions retention;

  // Periodic resumable simulation checkpoints (see SimCheckpointOptions).
  SimCheckpointOptions sim_checkpoint;

  // Borrowed observability sink; null (the default) disables all
  // instrumentation at zero cost. Never owned, never read by digest-covered
  // code paths.
  ObsSink* obs = nullptr;
};

}  // namespace pronghorn

#endif  // PRONGHORN_SRC_PLATFORM_SIM_OPTIONS_H_
