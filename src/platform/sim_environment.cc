#include "src/platform/sim_environment.h"

#include <algorithm>
#include <utility>

#include "src/common/logging.h"

namespace pronghorn {

namespace {

// Scopes a user-supplied fault plan to one environment: combining the plan
// seed with the environment seed and a per-store salt keeps the two
// decorators' fault streams independent and experiment-specific.
FaultPlan ScopePlan(const FaultPlan& base, uint64_t env_seed, uint64_t salt) {
  FaultPlan plan = base;
  plan.seed = HashCombine(env_seed, HashCombine(salt, base.seed));
  return plan;
}

std::unique_ptr<CheckpointEngine> MakeEngine(EngineKind kind, uint64_t seed) {
  if (kind == EngineKind::kDelta) {
    return std::make_unique<DeltaCheckpointEngine>(seed);
  }
  return std::make_unique<CriuLikeEngine>(seed);
}

}  // namespace

SimEnvironment::SimEnvironment(const WorkloadRegistry& registry, SimOptions options)
    : registry_(registry),
      options_(options),
      faulty_db_(options.faults.Active()
                     ? std::optional<FaultyKvDatabase>(
                           std::in_place, db_,
                           ScopePlan(options.faults, options.seed, 0xdbULL), &clock_)
                     : std::nullopt) {
  // The snapshot store every orchestrator talks to: the flat whole-blob store
  // over object_store_ or a self-contained DedupSnapshotStore, wrapped under
  // chaos in the one store fault decorator. Its draws depend only on the
  // logical operation sequence, so both builds replay one fault trajectory.
  if (options_.store.kind == SnapshotStoreOptions::Kind::kDedup) {
    base_snapshot_store_ = std::make_unique<DedupSnapshotStore>(options_.store, &clock_);
  } else {
    base_snapshot_store_ = std::make_unique<FlatSnapshotStore>(object_store_);
  }
  if (options_.faults.Active()) {
    faulty_snapshot_store_.emplace(*base_snapshot_store_,
                                   ScopePlan(options_.faults, options_.seed, 0x0bULL),
                                   &clock_);
  }
  // Fault events from the shared stores cannot be attributed to one
  // deployment, so the decorators get their own trace process with a lane
  // per store. Obs data is write-only for the kernel: nothing here feeds
  // back into simulation state or digests.
  const bool store_obs = faulty_snapshot_store_.has_value() ||
                         options_.store.kind == SnapshotStoreOptions::Kind::kDedup;
  if (options_.obs != nullptr && (faulty_db_.has_value() || store_obs)) {
    const uint32_t pid = options_.obs->RegisterProcess("stores");
    if (store_obs) {
      const ObsTrack track{pid, 0};
      options_.obs->RegisterThread(track, "object store");
      // Reaches the inner dedup store too (chunk_fetch spans), through the
      // decorator's forwarding set_obs when chaos is on.
      active_snapshot_store().set_obs(options_.obs, track);
    }
    if (faulty_db_.has_value()) {
      const ObsTrack track{pid, 1};
      options_.obs->RegisterThread(track, "database");
      faulty_db_->set_obs(options_.obs, track);
    }
  }
  if (options_.service.enabled) {
    if (options_.service.instance != nullptr) {
      service_ = options_.service.instance;
    } else {
      ServiceConfig config;
      config.shards = options_.service.shards;
      config.queue_capacity = options_.service.queue_capacity;
      config.max_batch = options_.service.max_batch;
      config.flush_interval = options_.service.flush_interval;
      config.journal_dir = options_.service.journal_dir;
      config.shed_deadline_ms = options_.service.shed_deadline_ms;
      config.faults = options_.faults.service;
      config.obs = options_.obs;
      owned_service_ = std::make_unique<OrchestratorService>(config);
      service_ = owned_service_.get();
    }
  }
}

SimEnvironment::~SimEnvironment() {
  // Release this environment's bindings: a shared service (fleet runs)
  // outlives us and must not keep pointers into the deployments.
  if (service_ != nullptr && service_->running()) {
    for (const Deployment& deployment : deployments_) {
      const Status unbound = service_->Unbind(deployment.service_name);
      if (!unbound.ok()) {
        PRONGHORN_LOG_WARNING("unbind of '%s' failed: %s",
                              deployment.service_name.c_str(),
                              unbound.ToString().c_str());
      }
    }
  }
}

uint64_t SimEnvironment::DeploymentSeed(uint64_t seed, std::string_view name) {
  return HashCombine(seed, HashCombine(0xf1ee7ULL, StableNameHash(name)));
}

KvDatabase& SimEnvironment::active_database() {
  return faulty_db_.has_value() ? static_cast<KvDatabase&>(*faulty_db_)
                                : static_cast<KvDatabase&>(db_);
}

SnapshotStore& SimEnvironment::active_snapshot_store() {
  return faulty_snapshot_store_.has_value()
             ? static_cast<SnapshotStore&>(*faulty_snapshot_store_)
             : *base_snapshot_store_;
}

Status SimEnvironment::AddDeployment(std::string name, const WorkloadProfile& profile,
                                     const OrchestrationPolicy& policy,
                                     const EvictionModel& eviction,
                                     uint32_t worker_slots, uint32_t exploring_slots,
                                     uint64_t sub_seed, std::string service_name) {
  if (name.empty()) {
    return InvalidArgumentError("deployment name must be non-empty");
  }
  for (const Deployment& existing : deployments_) {
    if (existing.name == name) {
      return AlreadyExistsError("deployment '" + name + "' already exists");
    }
  }
  exploring_slots = std::min(exploring_slots, worker_slots);

  Deployment deployment;
  deployment.service_name = service_name.empty() ? name : std::move(service_name);
  deployment.name = std::move(name);
  deployment.profile = &profile;
  deployment.exploit_policy =
      std::make_unique<StopConditionPolicy>(policy, /*explore_requests=*/0);
  deployment.engine = MakeEngine(options_.engine_kind, HashCombine(sub_seed, 0xe1ULL));
  deployment.state_store = std::make_unique<PolicyStateStore>(
      active_database(), deployment.name, policy.config(), &clock_,
      StateStoreRetryPolicy{}, options_.state_cache);
  deployment.input_model = std::make_unique<InputModel>(profile, options_.input_noise);
  deployment.client_rng = Rng(HashCombine(sub_seed, 0xc1ULL));

  deployment.slots.reserve(worker_slots);
  for (uint32_t i = 0; i < worker_slots; ++i) {
    const bool exploring = i < exploring_slots;
    const OrchestrationPolicy& slot_policy =
        exploring ? policy
                  : static_cast<const OrchestrationPolicy&>(*deployment.exploit_policy);
    // Slot 0 keeps the historical single-worker substream so single-slot
    // environments replay bit-identically to the pre-kernel drivers.
    const uint64_t slot_seed =
        i == 0 ? HashCombine(sub_seed, 0x0eULL)
               : HashCombine(sub_seed, HashCombine(0x0eULL, i));
    auto orchestrator = std::make_unique<Orchestrator>(
        profile, registry_, slot_policy, *deployment.engine,
        active_snapshot_store(), *deployment.state_store, clock_, slot_seed,
        options_.costs, options_.recovery);
    deployment.slots.emplace_back(std::move(orchestrator), &eviction, &clock_,
                                  options_.lifecycle, exploring);
  }
  if (service_ != nullptr) {
    // Service mode: bind every slot's orchestrator into the service, then
    // point the slot at a wire client. Orchestrators are heap-owned by their
    // SimCore and the clients are heap-owned below, so both pointer sets
    // survive the deployment's move into deployments_.
    for (uint32_t i = 0; i < worker_slots; ++i) {
      const Status bound = service_->Bind(deployment.service_name, i,
                                          &deployment.slots[i].orchestrator(),
                                          &clock_);
      if (!bound.ok()) {
        const Status unbound = service_->Unbind(deployment.service_name);
        (void)unbound;  // Best-effort rollback of earlier slots.
        return bound;
      }
    }
    deployment.clients.reserve(worker_slots);
    for (uint32_t i = 0; i < worker_slots; ++i) {
      deployment.clients.push_back(
          std::make_unique<ServiceClient>(service_, deployment.service_name, i));
      deployment.slots[i].set_backend(deployment.clients.back().get());
    }
  }
  if (options_.obs != nullptr) {
    // One trace process per deployment; each slot gets a serve lane (even
    // tid) and a lifecycle lane (odd tid) so serve spans never overlap the
    // provision/checkpoint/evict spans Chrome would otherwise mis-nest.
    const uint32_t pid = options_.obs->RegisterProcess(deployment.name);
    for (uint32_t i = 0; i < worker_slots; ++i) {
      const ObsTrack serve_track{pid, 2 * i};
      const ObsTrack lifecycle_track{pid, 2 * i + 1};
      const std::string label =
          "slot " + std::to_string(i) +
          (deployment.slots[i].exploring() ? " (exploring)" : "");
      options_.obs->RegisterThread(serve_track, label + " serve");
      options_.obs->RegisterThread(lifecycle_track, label + " lifecycle");
      deployment.slots[i].set_obs(options_.obs, serve_track, lifecycle_track);
    }
    deployment.engine->set_obs(options_.obs);
  }
  deployments_.push_back(std::move(deployment));
  return OkStatus();
}

Status SimEnvironment::Dispatch(Deployment& deployment, SimCore& slot,
                                TimePoint arrival) {
  FunctionRequest request;
  request.id = next_request_id_++;
  request.input_scale = deployment.input_model->NextScale(deployment.client_rng);
  return slot.Serve(request, arrival, deployment.report);
}

Status SimEnvironment::RunClosedLoop(uint64_t request_count) {
  size_t total_slots = 0;
  for (const Deployment& deployment : deployments_) {
    total_slots += deployment.slots.size();
  }
  if (total_slots == 0) {
    return FailedPreconditionError("environment has no worker slots");
  }

  for (uint64_t i = 0; i < request_count; ++i) {
    // Least-loaded dispatch: the slot that frees earliest (first in
    // deployment-major order on ties) takes the next request; its client
    // issues it the moment the previous response arrived.
    Deployment* best_deployment = nullptr;
    SimCore* best = nullptr;
    for (Deployment& deployment : deployments_) {
      for (SimCore& slot : deployment.slots) {
        if (best == nullptr || slot.free_at() < best->free_at()) {
          best_deployment = &deployment;
          best = &slot;
        }
      }
    }
    PRONGHORN_RETURN_IF_ERROR(Dispatch(*best_deployment, *best, best->dispatch_at()));
    // Closed-loop eviction sees the completion itself as the next arrival;
    // the run's final workers are retired below instead.
    best->MaybeEvict(i + 1 < request_count, best->last_completion(),
                     best_deployment->report);
  }
  RetireAllWorkers();
  return OkStatus();
}

Status SimEnvironment::RunArrivals(std::span<const Arrival> arrivals) {
  for (size_t i = 0; i < arrivals.size(); ++i) {
    if (arrivals[i].deployment >= deployments_.size()) {
      return InvalidArgumentError("arrival references an unknown deployment");
    }
    if (deployments_[arrivals[i].deployment].slots.empty()) {
      return FailedPreconditionError("deployment '" +
                                     deployments_[arrivals[i].deployment].name +
                                     "' has no worker slots");
    }
    if (i > 0 && arrivals[i].arrival < arrivals[i - 1].arrival) {
      return InvalidArgumentError("trace arrivals must be non-decreasing");
    }
  }

  // Precompute each event's next arrival for the same deployment, so idle
  // timeouts decide eviction in O(1) per event.
  std::vector<TimePoint> next_arrival(arrivals.size());
  std::vector<char> has_next(arrivals.size(), 0);
  std::vector<size_t> last_seen(deployments_.size(), arrivals.size());
  for (size_t i = arrivals.size(); i-- > 0;) {
    const size_t d = arrivals[i].deployment;
    if (last_seen[d] != arrivals.size()) {
      has_next[i] = 1;
      next_arrival[i] = arrivals[last_seen[d]].arrival;
    }
    last_seen[d] = i;
  }

  for (size_t i = 0; i < arrivals.size(); ++i) {
    Deployment& deployment = deployments_[arrivals[i].deployment];
    // Least-loaded slot within the deployment; with every slot busy the
    // request queues behind the earliest-free one.
    SimCore* slot = &deployment.slots[0];
    for (SimCore& candidate : deployment.slots) {
      if (candidate.free_at() < slot->free_at()) {
        slot = &candidate;
      }
    }
    PRONGHORN_RETURN_IF_ERROR(Dispatch(deployment, *slot, arrivals[i].arrival));
    slot->MaybeEvict(has_next[i] != 0, next_arrival[i], deployment.report);
  }
  return OkStatus();
}

Status SimEnvironment::RunArrivals(const InvocationTrace& trace) {
  const std::vector<TraceRecord>& records = trace.records();
  std::vector<Arrival> arrivals;
  arrivals.reserve(records.size());
  for (const TraceRecord& record : records) {
    const Result<size_t> index = DeploymentIndex(record.function);
    if (!index.ok()) {
      return NotFoundError("trace invokes undeployed function '" + record.function +
                           "'");
    }
    arrivals.push_back(Arrival{*index, record.arrival});
  }
  return RunArrivals(arrivals);
}

void SimEnvironment::RetireAllWorkers() {
  for (Deployment& deployment : deployments_) {
    for (SimCore& slot : deployment.slots) {
      slot.RetireWorker(clock_.now(), deployment.report);
    }
  }
}

void SimEnvironment::FinishReport(Deployment& deployment, SimulationReport& report) {
  report.end_time = clock_.now();
  report.overheads = OrchestratorOverheads{};
  for (SimCore& slot : deployment.slots) {
    MergeOverheads(report.overheads, slot.orchestrator().overheads());
    AccumulateRecovery(report.faults, slot.orchestrator().recovery_stats());
  }
  AccumulateStateStore(report.faults, deployment.state_store->stats());
}

EnvironmentReport SimEnvironment::TakeReport() {
  EnvironmentReport out;
  for (Deployment& deployment : deployments_) {
    SimulationReport report = std::move(deployment.report);
    deployment.report = SimulationReport{};
    FinishReport(deployment, report);
    MergeFaultRecoveryStats(out.faults, report.faults);
    out.per_function.emplace(deployment.name, std::move(report));
  }
  FoldSharedStores(out);
  return out;
}

SimulationReport SimEnvironment::TakeFlatReport() {
  Deployment& deployment = deployments_.front();
  SimulationReport report = std::move(deployment.report);
  deployment.report = SimulationReport{};
  FinishReport(deployment, report);
  FoldSharedStores(report);
  return report;
}

void SimEnvironment::FoldSharedStores(ReportCore& report) const {
  // The base snapshot store's accounting: for a flat build this is exactly
  // object_store_.accounting(); for a dedup build it carries the chunk-level
  // physical view alongside the identical digest-covered logical fields.
  report.object_store = base_snapshot_store_->accounting();
  report.database = db_.accounting();
  if (faulty_snapshot_store_.has_value()) {
    AccumulateStoreFaults(report.faults, faulty_snapshot_store_->stats());
  }
  if (faulty_db_.has_value()) {
    AccumulateDatabaseFaults(report.faults, faulty_db_->stats());
  }
}

Result<size_t> SimEnvironment::DeploymentIndex(std::string_view name) const {
  for (size_t i = 0; i < deployments_.size(); ++i) {
    if (deployments_[i].name == name) {
      return i;
    }
  }
  return NotFoundError("deployment '" + std::string(name) + "' is not registered");
}

}  // namespace pronghorn
