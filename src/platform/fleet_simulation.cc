#include "src/platform/fleet_simulation.h"

#include <algorithm>
#include <mutex>
#include <numeric>
#include <optional>
#include <utility>

#include "src/common/crc32.h"
#include "src/common/thread_pool.h"
#include "src/platform/report_io.h"
#include "src/platform/sim_checkpoint.h"
#include "src/service/orchestrator_service.h"

namespace pronghorn {

uint64_t FleetSimulation::FunctionSeed(uint64_t fleet_seed, std::string_view name) {
  return SimEnvironment::DeploymentSeed(fleet_seed, name);
}

uint32_t FleetReport::Digest() const {
  if (retention != ReportRetention::kAll) {
    // per_function is decimated; the accumulator's CRC-combined digest is
    // the canonical one (identical to what a keep-all run computes).
    return streaming_digest;
  }
  std::vector<NamedReportRef> rows;
  rows.reserve(per_function.size());
  for (const FleetFunctionResult& result : per_function) {
    rows.push_back(NamedReportRef{result.function, &result.report});
  }
  return ReportDigest(rows, *this);
}

const ClusterReport* FleetReport::Find(std::string_view name) const {
  for (const FleetFunctionResult& result : per_function) {
    if (result.function == name) {
      return &result.report;
    }
  }
  return nullptr;
}

FleetSimulation::FleetSimulation(const WorkloadRegistry& registry, SimOptions options)
    : registry_(registry), options_(options) {}

Status FleetSimulation::AddFunction(FleetFunctionSpec spec) {
  if (spec.name.empty()) {
    return InvalidArgumentError("deployment name must be non-empty");
  }
  if (spec.profile == nullptr || spec.policy == nullptr) {
    return InvalidArgumentError("deployment '" + spec.name +
                                "' needs a profile and a policy");
  }
  if (spec.requests == 0) {
    return InvalidArgumentError("deployment '" + spec.name +
                                "' needs a positive request count");
  }
  for (const FleetFunctionSpec& existing : functions_) {
    if (existing.name == spec.name) {
      return AlreadyExistsError("deployment '" + spec.name + "' already in fleet");
    }
  }
  functions_.push_back(std::move(spec));
  return OkStatus();
}

Result<ClusterReport> FleetSimulation::RunShard(
    const FleetFunctionSpec& spec, const SimOptions& base_options) const {
  // All shard randomness keys off (fleet seed, deployment name) — never off
  // the thread or shard index — so results are schedule-independent.
  const uint64_t function_seed = FunctionSeed(options_.seed, spec.name);
  PRONGHORN_ASSIGN_OR_RETURN(std::unique_ptr<EvictionModel> eviction,
                             options_.eviction.Instantiate(function_seed));
  // The shard inherits the fleet's options wholesale (including the obs sink,
  // which is thread-safe) and overrides only its own identity and topology.
  SimOptions cluster_options = base_options;
  cluster_options.seed = function_seed;
  cluster_options.worker_slots = spec.worker_slots;
  cluster_options.exploring_slots = spec.exploring_slots;
  // The shard's one deployment keeps its profile's name (it keys the state
  // store and its retry jitter, so the digest depends on it), but binds to a
  // shared service under the fleet deployment name: two shards of one
  // profile must not bind and unbind the same service endpoint.
  SimEnvironment env(registry_, cluster_options);
  PRONGHORN_RETURN_IF_ERROR(env.AddDeployment(
      spec.profile->name, *spec.profile, *spec.policy, *eviction, spec.worker_slots,
      spec.exploring_slots, function_seed, /*service_name=*/spec.name));
  PRONGHORN_RETURN_IF_ERROR(env.RunClosedLoop(spec.requests));
  env.RetireAllWorkers();
  return env.TakeFlatReport();
}

uint64_t FleetSimulation::Fingerprint() const {
  SimFingerprint fingerprint;
  fingerprint.seed = options_.seed;
  fingerprint.topology = 2;  // SimTopology::kFleet.
  for (const FleetFunctionSpec& spec : functions_) {
    fingerprint.AddFunction(spec.name, spec.requests, spec.worker_slots,
                            spec.exploring_slots);
  }
  fingerprint.AddOptions(options_);
  return fingerprint.value();
}

Result<FleetReport> FleetSimulation::Run() const {
  if (functions_.empty()) {
    return FailedPreconditionError("fleet has no deployments");
  }

  // Service mode: all shard environments are clients of one shared live
  // service for the whole run (each deployment still evolves independently —
  // its requests are serialized on its service shard and issued from one
  // client task, so the canonical merge stays schedule-independent).
  SimOptions base_options = options_;
  std::unique_ptr<OrchestratorService> shared_service;
  if (options_.service.enabled && options_.service.instance == nullptr) {
    ServiceConfig config;
    config.shards = options_.service.shards;
    config.queue_capacity = options_.service.queue_capacity;
    config.max_batch = options_.service.max_batch;
    config.flush_interval = options_.service.flush_interval;
    config.journal_dir = options_.service.journal_dir;
    config.shed_deadline_ms = options_.service.shed_deadline_ms;
    config.faults = options_.faults.service;
    config.obs = options_.obs;
    shared_service = std::make_unique<OrchestratorService>(config);
    base_options.service.instance = shared_service.get();
  }

  // The streaming fold: shards merge into the accumulator the moment they
  // complete, in completion order — the digest and every aggregate are
  // order-insensitive by construction, so nothing here depends on the
  // schedule. Peak memory is O(shards in flight + retained-K), never
  // O(functions x requests).
  StreamingAccumulator accumulator(options_.retention);

  // Resume: load the newest valid checkpoint and skip what it covers.
  const SimCheckpointOptions& ckpt_options = options_.sim_checkpoint;
  if (ckpt_options.enabled() && ckpt_options.resume) {
    auto payload = ReadSimCheckpointFile(FleetCheckpointer::FilePath(ckpt_options.dir),
                                         Fingerprint());
    if (payload.ok()) {
      ByteReader reader(*payload);
      PRONGHORN_RETURN_IF_ERROR(accumulator.RestoreState(reader));
      if (!reader.AtEnd()) {
        return DataLossError("trailing bytes after checkpointed accumulator state");
      }
    } else if (payload.status().code() != StatusCode::kNotFound) {
      // A corrupt or mismatched checkpoint must fail loudly, not silently
      // restart the experiment from scratch.
      return payload.status();
    }
  }
  std::optional<FleetCheckpointer> checkpointer;
  if (ckpt_options.enabled()) {
    checkpointer.emplace(ckpt_options, Fingerprint(), accumulator);
  }

  // Sharded execution. One task per deployment; the pool's work-stealing
  // balances wildly uneven shard runtimes. Failures are recorded per slot
  // (tiny — one optional Status per deployment) and reported canonically.
  // Each slot sits on its own cache line so concurrent shard completions
  // never false-share a line (adjacent optional<Status> writes would
  // otherwise ping-pong the line between cores).
  struct alignas(kCacheLineBytes) ShardSlot {
    std::optional<Status> failure;
  };
  std::vector<ShardSlot> slots(functions_.size());
  const auto run_one = [&](size_t i) {
    const FleetFunctionSpec& spec = functions_[i];
    if (accumulator.Contains(spec.name)) {
      return;  // Covered by the resumed checkpoint.
    }
    Result<ClusterReport> shard = RunShard(spec, base_options);
    if (!shard.ok()) {
      slots[i].failure = shard.status();
      return;
    }
    accumulator.Fold(spec.name, *std::move(shard));
    if (checkpointer.has_value()) {
      checkpointer->OnFold();
    }
  };
  // --threads is a parallelism cap, not a demand: shards are CPU-bound, so
  // workers beyond the hardware thread count only add context switches and
  // cache thrash (the old code ran 4 threads ~25% slower than 1 on a
  // single-core host). The caller-assist ParallelFor makes the calling
  // thread one of the execution streams, so `workers` counts it.
  const uint32_t workers = ThreadPool::EffectiveParallelism(options_.threads);
  if (workers <= 1 || functions_.size() == 1) {
    for (size_t i = 0; i < functions_.size(); ++i) {
      run_one(i);
    }
  } else {
    ThreadPoolOptions pool_options;
    pool_options.threads = workers - 1;  // The calling thread participates.
    pool_options.pin_threads = options_.pin_threads;
    ThreadPool pool(pool_options);
    pool.ParallelFor(functions_.size(), run_one);
  }

  // Canonical error report: the first failure in deployment-name order,
  // whatever order the shards actually failed in.
  std::vector<size_t> order(functions_.size());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [this](size_t a, size_t b) {
    return functions_[a].name < functions_[b].name;
  });
  for (const size_t index : order) {
    if (slots[index].failure.has_value()) {
      // Persist progress first: the failed deployment can be retried with
      // --resume without re-running its finished peers.
      if (checkpointer.has_value()) {
        (void)checkpointer->Finish();
      }
      return Status(slots[index].failure->code(),
                    "deployment '" + functions_[index].name +
                        "': " + slots[index].failure->message());
    }
  }

  if (checkpointer.has_value()) {
    PRONGHORN_RETURN_IF_ERROR(checkpointer->Finish());
  }

  // Final assembly from the accumulator, in canonical (name) order. Under
  // keep-all retention this reproduces the historical collect-then-merge
  // FleetReport bit-for-bit.
  StreamingAccumulator::Merged merged = accumulator.Take();
  FleetReport fleet;
  static_cast<ReportCore&>(fleet) = merged.core;
  fleet.worker_lifetimes = merged.worker_lifetimes;
  fleet.checkpoints = merged.checkpoints;
  fleet.restores = merged.restores;
  fleet.cold_starts = merged.cold_starts;
  fleet.retention = merged.retention;
  fleet.functions_total = merged.functions_total;
  fleet.invocations_total = merged.invocations_total;
  fleet.latency_hist = merged.latency_hist;
  fleet.streaming_digest = merged.digest;
  fleet.per_function.reserve(merged.retained.size());
  for (auto& [name, report] : merged.retained) {
    if (merged.retention == ReportRetention::kAll) {
      for (const RequestRecord& record : report.records) {
        fleet.fleet_latency.Add(static_cast<double>(record.latency.ToMicros()));
      }
    }
    fleet.per_function.push_back(FleetFunctionResult{name, std::move(report)});
  }
  return fleet;
}

}  // namespace pronghorn
