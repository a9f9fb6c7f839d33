#include "src/platform/simulate.h"

#include <algorithm>
#include <memory>
#include <numeric>
#include <optional>
#include <string_view>
#include <unordered_set>
#include <utility>

#include "src/common/thread_pool.h"
#include "src/platform/experiment.h"
#include "src/platform/report_io.h"
#include "src/platform/sim_checkpoint.h"
#include "src/platform/sim_environment.h"
#include "src/service/orchestrator_service.h"

namespace pronghorn {

namespace {

// Folds one function's report into the merged view. Callers visit functions
// in canonical (name) order, so the merged latency summary and counters are
// schedule-independent.
void FoldFunction(SimReport& out, std::string name, SimulationReport report) {
  for (const RequestRecord& record : report.records) {
    out.latency.Add(static_cast<double>(record.latency.ToMicros()));
    out.latency_hist.Add(static_cast<uint64_t>(record.latency.ToMicros()));
  }
  out.worker_lifetimes += report.worker_lifetimes;
  out.checkpoints += report.checkpoints;
  out.restores += report.restores;
  out.cold_starts += report.cold_starts;
  out.functions_total += 1;
  out.invocations_total += report.records.size();
  out.per_function.push_back(SimFunctionResult{std::move(name), std::move(report)});
}

Status ValidateSpecs(SimTopology topology,
                     std::span<const SimFunctionSpec> functions) {
  if (functions.empty()) {
    return InvalidArgumentError("Simulate() needs at least one function");
  }
  if (topology == SimTopology::kSingle && functions.size() != 1) {
    return InvalidArgumentError("kSingle topology takes exactly one function");
  }
  std::unordered_set<std::string_view> names;
  names.reserve(functions.size());
  for (const SimFunctionSpec& spec : functions) {
    if (spec.name.empty()) {
      return InvalidArgumentError("function name must be non-empty");
    }
    if (spec.profile == nullptr || spec.policy == nullptr) {
      return InvalidArgumentError("function '" + spec.name +
                                  "' needs a profile and a policy");
    }
    if (spec.requests == 0) {
      return InvalidArgumentError("function '" + spec.name +
                                  "' needs a positive request count");
    }
    if (!names.insert(spec.name).second) {
      return AlreadyExistsError("duplicate function '" + spec.name + "'");
    }
  }
  return OkStatus();
}

Result<SimReport> SimulateSingle(const WorkloadRegistry& registry,
                                 const SimFunctionSpec& spec,
                                 const SimOptions& options) {
  PRONGHORN_ASSIGN_OR_RETURN(std::unique_ptr<EvictionModel> eviction,
                             options.eviction.Instantiate(options.seed));
  SimEnvironment env(registry, options);
  PRONGHORN_RETURN_IF_ERROR(env.AddDeployment(
      spec.profile->name, *spec.profile, *spec.policy, *eviction,
      options.worker_slots, options.exploring_slots, /*sub_seed=*/options.seed));
  PRONGHORN_RETURN_IF_ERROR(env.RunClosedLoop(spec.requests));
  SimulationReport flat = env.TakeFlatReport();
  SimReport out;
  static_cast<ReportCore&>(out) = static_cast<const ReportCore&>(flat);
  FoldFunction(out, spec.name, std::move(flat));
  return out;
}

Result<SimReport> SimulatePlatform(const WorkloadRegistry& registry,
                                   std::span<const SimFunctionSpec> functions,
                                   const SimOptions& options) {
  PRONGHORN_ASSIGN_OR_RETURN(std::unique_ptr<EvictionModel> eviction,
                             options.eviction.Instantiate(options.seed));
  SimEnvironment env(registry, options);
  uint64_t total_requests = 0;
  for (const SimFunctionSpec& spec : functions) {
    PRONGHORN_RETURN_IF_ERROR(env.AddDeployment(
        spec.name, *spec.profile, *spec.policy, *eviction, /*worker_slots=*/1,
        /*exploring_slots=*/1,
        SimEnvironment::DeploymentSeed(options.seed, spec.name)));
    total_requests += spec.requests;
  }
  PRONGHORN_RETURN_IF_ERROR(env.RunClosedLoop(total_requests));
  EnvironmentReport harvested = env.TakeReport();
  SimReport out;
  static_cast<ReportCore&>(out) = static_cast<const ReportCore&>(harvested);
  // std::map iteration is already canonical (name) order.
  for (auto& [name, report] : harvested.per_function) {
    FoldFunction(out, name, std::move(report));
  }
  return out;
}

// One fleet shard: a fresh single-deployment environment whose every RNG
// substream keys off (options.seed, spec.name) — never off the thread or
// shard index — so its report does not depend on the schedule.
Result<SimulationReport> RunFleetShard(const WorkloadRegistry& registry,
                                       const SimFunctionSpec& spec,
                                       const SimOptions& options) {
  const uint64_t function_seed = SimEnvironment::DeploymentSeed(options.seed, spec.name);
  // Models with hidden RNG state (geometric) are per shard: sharing one would
  // race and couple the shards' draw sequences.
  PRONGHORN_ASSIGN_OR_RETURN(std::unique_ptr<EvictionModel> eviction,
                             options.eviction.Instantiate(function_seed));
  // The shard inherits the run's options wholesale (including the obs sink,
  // which is thread-safe) and overrides only its seed.
  SimOptions shard_options = options;
  shard_options.seed = function_seed;
  // The deployment keeps its profile's name (it keys the state store and its
  // retry jitter, so the digest depends on it), but binds to a shared
  // service under the function name: two shards of one profile must not bind
  // and unbind the same service endpoint.
  SimEnvironment env(registry, shard_options);
  PRONGHORN_RETURN_IF_ERROR(env.AddDeployment(
      spec.profile->name, *spec.profile, *spec.policy, *eviction,
      options.worker_slots, options.exploring_slots, function_seed,
      /*service_name=*/spec.name));
  PRONGHORN_RETURN_IF_ERROR(env.RunClosedLoop(spec.requests));
  return env.TakeFlatReport();
}

// Runs every function in its own shard across a work-stealing pool, folding
// each shard's report through a StreamingAccumulator the moment it
// completes, so peak memory is O(shards in flight + retained-K), never
// O(functions x requests). Shards share nothing, so no lock sits on a
// request's critical path.
//
// With options.sim_checkpoint enabled the run writes crash-consistent
// checkpoints at completed-shard granularity and, with resume set, skips
// the functions a loaded checkpoint already covers.
Result<SimReport> SimulateFleet(const WorkloadRegistry& registry,
                                std::span<const SimFunctionSpec> functions,
                                const SimOptions& options) {
  // Service mode: all shard environments are clients of one shared live
  // service for the whole run (each deployment still evolves independently:
  // its requests are serialized on its service shard and issued from one
  // client task, so the canonical merge stays schedule-independent).
  SimOptions shard_options = options;
  std::unique_ptr<OrchestratorService> shared_service;
  if (options.service.enabled && options.service.instance == nullptr) {
    ServiceConfig config;
    config.shards = options.service.shards;
    config.queue_capacity = options.service.queue_capacity;
    config.max_batch = options.service.max_batch;
    config.flush_interval = options.service.flush_interval;
    config.journal_dir = options.service.journal_dir;
    config.shed_deadline_ms = options.service.shed_deadline_ms;
    config.faults = options.faults.service;
    config.obs = options.obs;
    shared_service = std::make_unique<OrchestratorService>(config);
    shard_options.service.instance = shared_service.get();
  }

  // Shards fold in completion order; the digest and every aggregate are
  // order-insensitive by construction, so nothing here depends on the
  // schedule.
  StreamingAccumulator accumulator(options.retention);

  // Resume: load the newest valid checkpoint and skip what it covers.
  const SimCheckpointOptions& ckpt = options.sim_checkpoint;
  std::optional<FleetCheckpointer> checkpointer;
  if (ckpt.enabled()) {
    const uint64_t fingerprint =
        ExperimentFingerprint(SimTopology::kFleet, functions, options);
    if (ckpt.resume) {
      auto payload =
          ReadSimCheckpointFile(FleetCheckpointer::FilePath(ckpt.dir), fingerprint);
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
    checkpointer.emplace(ckpt, fingerprint, accumulator);
  }

  // One task per function; the pool's work-stealing balances wildly uneven
  // shard runtimes. Failures are recorded per slot and reported
  // canonically. Each slot sits on its own cache line so concurrent shard
  // completions never false-share one.
  struct alignas(kCacheLineBytes) ShardSlot {
    std::optional<Status> failure;
  };
  std::vector<ShardSlot> slots(functions.size());
  const auto run_one = [&](size_t i) {
    const SimFunctionSpec& spec = functions[i];
    if (accumulator.Contains(spec.name)) {
      return;  // Covered by the resumed checkpoint.
    }
    Result<SimulationReport> shard = RunFleetShard(registry, spec, shard_options);
    if (!shard.ok()) {
      slots[i].failure = shard.status();
      return;
    }
    accumulator.Fold(spec.name, *std::move(shard));
    if (checkpointer.has_value()) {
      checkpointer->OnFold();
    }
  };
  // options.threads is a parallelism cap, not a demand: shards are
  // CPU-bound, so workers beyond the hardware thread count only add context
  // switches. The caller-assist ParallelFor makes the calling thread one of
  // the execution streams, so `workers` counts it.
  const uint32_t workers = ThreadPool::EffectiveParallelism(options.threads);
  if (workers <= 1 || functions.size() == 1) {
    for (size_t i = 0; i < functions.size(); ++i) {
      run_one(i);
    }
  } else {
    ThreadPoolOptions pool_options;
    pool_options.threads = workers - 1;  // The calling thread participates.
    pool_options.pin_threads = options.pin_threads;
    ThreadPool pool(pool_options);
    pool.ParallelFor(functions.size(), run_one);
  }

  // Canonical error report: the first failure in name order, whatever order
  // the shards actually failed in.
  std::vector<size_t> order(functions.size());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [functions](size_t a, size_t b) {
    return functions[a].name < functions[b].name;
  });
  for (const size_t index : order) {
    if (slots[index].failure.has_value()) {
      // Persist progress first: the failed function can be retried with
      // --resume without re-running its finished peers.
      if (checkpointer.has_value()) {
        (void)checkpointer->Finish();
      }
      return Status(slots[index].failure->code(),
                    "deployment '" + functions[index].name +
                        "': " + slots[index].failure->message());
    }
  }
  if (checkpointer.has_value()) {
    PRONGHORN_RETURN_IF_ERROR(checkpointer->Finish());
  }

  // Final assembly in canonical (name) order. The aggregates come from the
  // streaming fold, which saw every function even when the retained bodies
  // were decimated.
  StreamingAccumulator::Merged merged = accumulator.Take();
  SimReport out;
  static_cast<ReportCore&>(out) = merged.core;
  out.worker_lifetimes = merged.worker_lifetimes;
  out.checkpoints = merged.checkpoints;
  out.restores = merged.restores;
  out.cold_starts = merged.cold_starts;
  out.retention = merged.retention;
  out.functions_total = merged.functions_total;
  out.invocations_total = merged.invocations_total;
  out.latency_hist = std::move(merged.latency_hist);
  out.streaming_digest = merged.digest;
  out.per_function.reserve(merged.retained.size());
  for (auto& [name, report] : merged.retained) {
    if (merged.retention == ReportRetention::kAll) {
      for (const RequestRecord& record : report.records) {
        out.latency.Add(static_cast<double>(record.latency.ToMicros()));
      }
    }
    out.per_function.push_back(SimFunctionResult{name, std::move(report)});
  }
  return out;
}

// Whole-run checkpoint payload for kSingle/kPlatform: the retained
// per-function reports (name order) followed by the shared core. The merged
// latency views and counters are rebuilt through FoldFunction on restore, so
// they never need a serialization of their own.
std::vector<uint8_t> EncodeWholeRunPayload(const SimReport& report) {
  ByteWriter writer;
  writer.WriteVarint(report.per_function.size());
  for (const SimFunctionResult& result : report.per_function) {
    writer.WriteString(result.function);
    SerializeFlatReport(result.report, writer);
  }
  SerializeReportCore(report, writer);
  return writer.data();
}

Result<SimReport> DecodeWholeRunPayload(std::span<const uint8_t> payload) {
  ByteReader reader(payload);
  PRONGHORN_ASSIGN_OR_RETURN(const uint64_t count, reader.ReadVarint());
  SimReport out;
  for (uint64_t i = 0; i < count; ++i) {
    PRONGHORN_ASSIGN_OR_RETURN(std::string name, reader.ReadString());
    PRONGHORN_ASSIGN_OR_RETURN(SimulationReport report,
                               DeserializeFlatReport(reader));
    FoldFunction(out, std::move(name), std::move(report));
  }
  PRONGHORN_RETURN_IF_ERROR(DeserializeReportCore(reader, out));
  if (!reader.AtEnd()) {
    return DataLossError("trailing bytes after checkpointed simulation report");
  }
  out.streaming_digest = out.Digest();
  return out;
}

}  // namespace

uint32_t SimReport::Digest() const {
  if (retention != ReportRetention::kAll) {
    // per_function is decimated; the streaming fold's CRC-combined digest is
    // the canonical one (identical to what a keep-all run computes).
    return streaming_digest;
  }
  std::vector<NamedReportRef> rows;
  rows.reserve(per_function.size());
  for (const SimFunctionResult& result : per_function) {
    rows.push_back(NamedReportRef{result.function, &result.report});
  }
  return ReportDigest(rows, *this);
}

const SimulationReport* SimReport::Find(std::string_view name) const {
  for (const SimFunctionResult& result : per_function) {
    if (result.function == name) {
      return &result.report;
    }
  }
  return nullptr;
}

Result<SimReport> Simulate(const WorkloadRegistry& registry, SimTopology topology,
                           std::span<const SimFunctionSpec> functions,
                           const SimOptions& options, ObsSink* obs) {
  PRONGHORN_RETURN_IF_ERROR(ValidateSpecs(topology, functions));
  SimOptions effective = options;
  if (obs != nullptr) {
    effective.obs = obs;
  }

  // Whole-run checkpointing for the single-environment topologies (kFleet
  // checkpoints incrementally inside SimulateFleet).
  const SimCheckpointOptions& ckpt = effective.sim_checkpoint;
  const bool whole_run_ckpt = ckpt.enabled() && topology != SimTopology::kFleet;
  uint64_t fingerprint = 0;
  if (whole_run_ckpt) {
    fingerprint = ExperimentFingerprint(topology, functions, effective);
    if (ckpt.resume) {
      auto payload =
          ReadSimCheckpointFile(WholeRunCheckpointPath(ckpt.dir), fingerprint);
      if (payload.ok()) {
        return DecodeWholeRunPayload(*payload);
      }
      if (payload.status().code() != StatusCode::kNotFound) {
        // A corrupt or mismatched checkpoint must fail loudly, not silently
        // restart the experiment from scratch.
        return payload.status();
      }
    }
  }

  Result<SimReport> report = [&]() -> Result<SimReport> {
    switch (topology) {
      case SimTopology::kSingle:
        return SimulateSingle(registry, functions.front(), effective);
      case SimTopology::kPlatform:
        return SimulatePlatform(registry, functions, effective);
      case SimTopology::kFleet:
        return SimulateFleet(registry, functions, effective);
    }
    return InvalidArgumentError("unknown topology");
  }();
  if (!report.ok()) {
    return report;
  }
  if (report->retention == ReportRetention::kAll) {
    report->streaming_digest = report->Digest();
  }
  if (whole_run_ckpt) {
    PRONGHORN_RETURN_IF_ERROR(
        WriteSimCheckpointFile(WholeRunCheckpointPath(ckpt.dir), fingerprint,
                               /*progress=*/report->functions_total,
                               EncodeWholeRunPayload(*report)));
  }
  if (effective.obs != nullptr) {
    report->metrics = effective.obs->SnapshotMetrics();
    report->trace = effective.obs->trace_recorder();
  }
  return report;
}

}  // namespace pronghorn
