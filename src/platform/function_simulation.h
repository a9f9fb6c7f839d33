// Discrete-event simulation of one serverless function deployment.
//
// Mirrors the paper's measurement setup (§5.1): a client issues requests
// against the platform, the platform keeps at most one warm worker for the
// function, evicts it per the eviction model, and the Orchestrator decides
// how each fresh worker starts. End-to-end latency is measured from the
// client's perspective.
//
// Worker startup (cold init or snapshot restore) happens off the request
// critical path by default: like OpenFaaS with a ready pool, the platform
// re-provisions workers asynchronously after eviction, so the client-side
// CDFs reflect function execution only — matching the paper's figures, whose
// latency ranges are far below CRIU restore cost. Setting
// `startup_on_critical_path` charges startup to the first request of each
// lifetime instead (used by the ablation bench).
//
// This driver is the single-slot configuration of the shared kernel: one
// SimEnvironment holding one deployment with one SimCore worker slot.

#ifndef PRONGHORN_SRC_PLATFORM_FUNCTION_SIMULATION_H_
#define PRONGHORN_SRC_PLATFORM_FUNCTION_SIMULATION_H_

#include <span>

#include "src/platform/sim_environment.h"

namespace pronghorn {

// Owns the full per-function stack (via SimEnvironment): Database, Object
// Store, checkpoint engine, policy state store, and orchestrator. Multiple
// runs on one FunctionSimulation continue the same learned state (worker
// fleet over time); construct a new instance for an independent experiment.
class FunctionSimulation {
 public:
  // `policy` and `eviction` are borrowed and must outlive the simulation.
  FunctionSimulation(const WorkloadProfile& profile, const WorkloadRegistry& registry,
                     const OrchestrationPolicy& policy, const EvictionModel& eviction,
                     SimOptions options);
  ~FunctionSimulation();

  FunctionSimulation(const FunctionSimulation&) = delete;
  FunctionSimulation& operator=(const FunctionSimulation&) = delete;

  // Closed loop: the client issues `request_count` requests back-to-back,
  // each after the previous response arrives.
  Result<SimulationReport> RunClosedLoop(uint64_t request_count);

  // Trace-driven: requests arrive at the given absolute times (must be
  // non-decreasing). Models a single-worker deployment: a request arriving
  // while the worker is busy queues behind it.
  Result<SimulationReport> RunTrace(std::span<const TimePoint> arrivals);

  // Read-only access for tests and exhibits.
  const KvDatabase& database() const { return env_.raw_database(); }
  const InMemoryObjectStore& object_store() const { return env_.raw_object_store(); }
  const CheckpointEngine& engine() const { return env_.engine(0); }
  const PolicyStateStore& state_store() const { return env_.state_store(0); }
  Orchestrator& orchestrator() { return env_.orchestrator(0, 0); }
  SimClock& clock() { return env_.clock(); }

  // Loads the current shared policy state (theta + pool) from the Database.
  Result<PolicyState> LoadPolicyState() const { return env_.LoadPolicyState(0); }

 private:
  SimEnvironment env_;
  Status init_;
};

}  // namespace pronghorn

#endif  // PRONGHORN_SRC_PLATFORM_FUNCTION_SIMULATION_H_
