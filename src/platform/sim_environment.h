// The simulation kernel's incremental surface: one control plane.
//
// A SimEnvironment owns the global stores (Database + snapshot store), the
// optional fault decorators around them (one per store), the simulated
// clock, and any number of function deployments. Each deployment owns its
// checkpoint engine, policy-state scope, input model, client RNG, and a row
// of SimCore worker slots (the first `exploring_slots` run the exploring
// policy, the rest a frozen exploit-only wrapper).
//
// Simulate() (simulate.h) runs one-shot experiments as configurations of
// this class. Drive a SimEnvironment directly when a run needs more:
// learned state that persists across runs, trace replay, or access to a
// live deployment's engine, stores and policy state. The configurations
// Simulate() uses:
//
//   kSingle    — one deployment, options.worker_slots slots,
//                sub_seed = options.seed
//   kPlatform  — many deployments, shared stores, one slot each,
//                sub_seed = DeploymentSeed(options.seed, name)
//   kFleet     — one single-deployment environment per shard, merged
//                canonically across a thread pool
//
// Determinism contract: every RNG substream keys off the deployment's
// sub-seed (engine = HashCombine(sub_seed, 0xe1), client = 0xc1, slot 0's
// orchestrator = 0x0e, slot i>0 = HashCombine(0x0e, i)), and DeploymentSeed
// derives sub-seeds from (environment seed, deployment name) only — never
// from registration order, thread, or shard index.

#ifndef PRONGHORN_SRC_PLATFORM_SIM_ENVIRONMENT_H_
#define PRONGHORN_SRC_PLATFORM_SIM_ENVIRONMENT_H_

#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "src/checkpoint/criu_like_engine.h"
#include "src/checkpoint/delta_engine.h"
#include "src/common/clock.h"
#include "src/common/rng.h"
#include "src/core/orchestrator.h"
#include "src/core/policy.h"
#include "src/core/stop_condition_policy.h"
#include "src/platform/eviction.h"
#include "src/platform/metrics.h"
#include "src/platform/sim_core.h"
#include "src/platform/sim_options.h"
#include "src/service/orchestrator_service.h"
#include "src/store/fault_injection.h"
#include "src/store/kv_database.h"
#include "src/store/object_store.h"
#include "src/store/snapshot_store.h"
#include "src/trace/trace_file.h"
#include "src/workloads/input_model.h"
#include "src/workloads/workload_profile.h"

namespace pronghorn {

// Multi-deployment results: per-function reports plus environment-wide
// accounting over the shared stores. Per-function `faults` cover that
// deployment's orchestrators and state store; the environment-level `faults`
// additionally fold in the shared store/database decorators, which cannot be
// attributed to a single function.
struct EnvironmentReport : ReportCore {
  std::map<std::string, SimulationReport> per_function;
};

class SimEnvironment {
 public:
  // One request arrival in a trace-driven run, resolved to a deployment.
  struct Arrival {
    size_t deployment = 0;
    TimePoint arrival;
  };

  SimEnvironment(const WorkloadRegistry& registry, SimOptions options);
  ~SimEnvironment();

  SimEnvironment(const SimEnvironment&) = delete;
  SimEnvironment& operator=(const SimEnvironment&) = delete;

  // The RNG sub-seed for a deployment: HashCombine of the environment seed
  // with a stable (FNV-1a) hash of the deployment name. Depends only on
  // (seed, name) — not on thread count, composition, or registration order.
  static uint64_t DeploymentSeed(uint64_t seed, std::string_view name);

  // Registers a deployment with `worker_slots` slots, of which the first
  // `exploring_slots` (clamped to worker_slots) run `policy` and the rest a
  // frozen exploit-only wrapper over it. `profile`, `policy`, and `eviction`
  // are borrowed and must outlive the environment. `sub_seed` scopes every
  // RNG substream of the deployment; single-deployment runs pass their
  // experiment seed, multi-deployment runs pass DeploymentSeed(seed, name).
  // In service mode the slots bind under `service_name` (empty: `name`):
  // environments sharing one service must bind under distinct names even
  // when their deployments share a name.
  Status AddDeployment(std::string name, const WorkloadProfile& profile,
                       const OrchestrationPolicy& policy,
                       const EvictionModel& eviction, uint32_t worker_slots,
                       uint32_t exploring_slots, uint64_t sub_seed,
                       std::string service_name = {});

  // Closed loop with one outstanding request per slot: each request goes to
  // the slot (across all deployments) that frees earliest, and is issued the
  // moment that slot's previous response reached its client. `request_count`
  // is the environment-wide total. The run ends by retiring every
  // still-warm worker, so the next run starts from fresh workers over the
  // same learned state.
  Status RunClosedLoop(uint64_t request_count);

  // Trace-driven: serves `arrivals` in order (must be non-decreasing), each
  // on the least-loaded slot of its deployment; a request arriving while
  // every slot is busy queues behind the earliest-free one. Workers still
  // warm at the end stay warm, so a later call continues the same sessions;
  // call RetireAllWorkers() to end them.
  Status RunArrivals(std::span<const Arrival> arrivals);
  // The same over an invocation trace, resolving each record's function
  // name to the deployment registered under it; kNotFound when the trace
  // invokes an unregistered function.
  Status RunArrivals(const InvocationTrace& trace);

  // Retires every still-warm worker at the current simulated time, folding
  // occupancy accounting into the per-deployment reports.
  void RetireAllWorkers();

  // Harvests results accumulated since the previous Take*. Records and
  // lifecycle counters are per-epoch; store accounting, overheads, faults,
  // and end_time are cumulative snapshots of the environment.
  EnvironmentReport TakeReport();
  // Single-deployment flattening: the per-function report with the
  // environment-wide store accounting and decorator fault stats folded in.
  // Requires exactly one deployment.
  SimulationReport TakeFlatReport();

  size_t deployment_count() const { return deployments_.size(); }
  // Deployment index by name; kNotFound for unknown names.
  Result<size_t> DeploymentIndex(std::string_view name) const;
  const std::string& deployment_name(size_t index) const {
    return deployments_[index].name;
  }

  // Read-only store access for tests and exhibits (the raw in-memory stores,
  // not the fault decorators). The object store backs flat builds only.
  const KvDatabase& raw_database() const { return db_; }
  const InMemoryObjectStore& raw_object_store() const { return object_store_; }
  // The snapshot store the deployments actually talk to (fault decorator
  // included when chaos is on).
  SnapshotStore& snapshot_store() { return active_snapshot_store(); }
  SimClock& clock() { return clock_; }

  // Per-deployment handles.
  const CheckpointEngine& engine(size_t deployment) const {
    return *deployments_[deployment].engine;
  }
  const PolicyStateStore& state_store(size_t deployment) const {
    return *deployments_[deployment].state_store;
  }
  Orchestrator& orchestrator(size_t deployment, size_t slot) {
    return deployments_[deployment].slots[slot].orchestrator();
  }
  Result<std::shared_ptr<const PolicyState>> LoadPolicyState(size_t deployment) const {
    return deployments_[deployment].state_store->Load();
  }

  // The live service every slot talks to in service mode; null otherwise.
  OrchestratorService* service() { return service_; }

 private:
  struct Deployment {
    std::string name;
    // Service mode: the name the slots are bound under.
    std::string service_name;
    const WorkloadProfile* profile = nullptr;
    std::unique_ptr<StopConditionPolicy> exploit_policy;
    std::unique_ptr<CheckpointEngine> engine;
    std::unique_ptr<PolicyStateStore> state_store;
    std::unique_ptr<InputModel> input_model;
    Rng client_rng{0};
    std::vector<SimCore> slots;
    // Service mode only: one wire client per slot, installed as the slot's
    // backend (heap-allocated so the backend pointers survive vector moves).
    std::vector<std::unique_ptr<ServiceClient>> clients;
    SimulationReport report;
  };

  KvDatabase& active_database();
  SnapshotStore& active_snapshot_store();
  // Builds the request, draws its input scale, and serves it on `slot`.
  Status Dispatch(Deployment& deployment, SimCore& slot, TimePoint arrival);
  // Folds cumulative orchestrator/state-store stats into an epoch report.
  void FinishReport(Deployment& deployment, SimulationReport& report);
  // Folds the shared stores' accounting and decorator fault stats into a
  // report.
  void FoldSharedStores(ReportCore& report) const;

  const WorkloadRegistry& registry_;
  SimOptions options_;

  SimClock clock_;
  InMemoryKvDatabase db_;
  InMemoryObjectStore object_store_;
  // Engaged only when options.faults is active; deployments then talk to the
  // stores through these decorators.
  std::optional<FaultyKvDatabase> faulty_db_;
  // The snapshot store behind every orchestrator: a FlatSnapshotStore over
  // object_store_, or a DedupSnapshotStore, per options.store.kind.
  std::unique_ptr<SnapshotStore> base_snapshot_store_;
  // The one store fault decorator, over either base store.
  std::optional<FaultySnapshotStore> faulty_snapshot_store_;
  std::vector<Deployment> deployments_;
  uint64_t next_request_id_ = 1;

  // Service mode: `service_` is what the slots' clients call — either the
  // borrowed shared instance (fleet runs) or `owned_service_`. Declared last
  // so a private service shuts its shard threads down before anything it
  // borrows (orchestrators, clock, stores) is destroyed.
  OrchestratorService* service_ = nullptr;
  std::unique_ptr<OrchestratorService> owned_service_;
};

}  // namespace pronghorn

#endif  // PRONGHORN_SRC_PLATFORM_SIM_ENVIRONMENT_H_
