#include "bench/suite/fixture.h"

#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string>
#include <utility>

#include "bench/suite/recorder.h"
#include "bench/suite/traced.h"
#include "src/checkpoint/criu_like_engine.h"
#include "src/common/crc32.h"
#include "src/common/rng.h"
#include "src/core/orchestrator.h"
#include "src/core/policy_state_store.h"
#include "src/core/request_centric_policy.h"
#include "src/platform/sim_environment.h"
#include "src/service/backend.h"
#include "src/store/kv_database.h"
#include "src/store/object_store.h"
#include "src/workloads/input_model.h"

namespace pronghorn::bench {

PolicyConfig PaperConfig(const WorkloadProfile& profile, uint32_t beta) {
  PolicyConfig config;
  config.beta = beta;
  config.pool_capacity = 12;
  config.max_checkpoint_request = profile.family == RuntimeFamily::kJvm ? 200 : 100;
  config.retain_top_percent = 40.0;
  config.retain_random_percent = 10.0;
  return config;
}

namespace {

double PerKilo(uint64_t count, uint64_t requests) {
  return requests == 0 ? 0.0
                       : 1000.0 * static_cast<double>(count) /
                             static_cast<double>(requests);
}

double Percent(uint64_t part, uint64_t whole) {
  return whole == 0 ? 0.0
                    : 100.0 * static_cast<double>(part) / static_cast<double>(whole);
}

void PutLe(uint8_t* out, uint64_t value) {
  for (int i = 0; i < 8; ++i) {
    out[i] = static_cast<uint8_t>(value >> (8 * i));
  }
}

}  // namespace

void CallLatencies::Merge(const CallLatencies& other) {
  start.Merge(other.start);
  serve.Merge(other.serve);
}

Slice SummarizeSlice(const CallLatencies& latencies, uint64_t requests, int64_t wall_ns) {
  Slice slice;
  slice.rps = static_cast<double>(requests) * 1e9 / static_cast<double>(wall_ns);
  slice.start_p50_ns = latencies.start.Quantile(50);
  slice.start_p99_ns = latencies.start.Quantile(99);
  slice.serve_p50_ns = latencies.serve.Quantile(50);
  slice.serve_p99_ns = latencies.serve.Quantile(99);
  slice.start_samples = latencies.start.count();
  slice.serve_samples = latencies.serve.count();
  return slice;
}

// --- Fleet ------------------------------------------------------------------

struct Fleet::Function {
  std::string name;
  const WorkloadProfile* profile = nullptr;
  CallContext context;
  std::unique_ptr<OrchestrationPolicy> policy;
  InMemoryKvDatabase kv;
  std::unique_ptr<InMemoryObjectStore> objects;
  std::unique_ptr<SnapshotStore> own_store;
  std::unique_ptr<CriuLikeEngine> engine;
  // Traced run only: what the Orchestrator talks to instead of the above.
  std::unique_ptr<TracedPolicy> traced_policy;
  std::unique_ptr<TracedEngine> traced_engine;
  std::unique_ptr<TracedSnapshotStore> traced_store;
  std::unique_ptr<TracedKvDatabase> traced_kv;
  SimClock clock;
  std::unique_ptr<PolicyStateStore> state;
  std::unique_ptr<Orchestrator> orchestrator;
  std::unique_ptr<WorkerBackend> backend;
  std::unique_ptr<InputModel> input;
  Rng client_rng{0};
  uint32_t index = 0;

  // Driver-side bookkeeping.
  uint64_t issued = 0;
  uint64_t restored_from = 0;
  uint32_t crc = kCrc32Init;
  std::vector<double> sim_ms;
};

Fleet::Fleet(const FleetConfig& config, bool traced, OrchestratorService* service)
    : config_(config), traced_(traced), service_(service) {
  const WorkloadRegistry& registry = WorkloadRegistry::Default();
  const std::vector<const WorkloadProfile*> profiles = registry.EvaluationSet();
  if (config_.store == StoreKind::kDedupShared) {
    SnapshotStoreOptions options;
    options.kind = SnapshotStoreOptions::Kind::kDedup;
    options.chunker.cdc = true;
    options.lazy_restore = true;
    shared_store_ = std::make_unique<DedupSnapshotStore>(options);
  }
  functions_.reserve(config_.functions);
  for (size_t i = 0; i < config_.functions; ++i) {
    auto f = std::make_unique<Function>();
    f->index = static_cast<uint32_t>(i);
    f->profile = profiles[i % profiles.size()];
    char name[64];
    std::snprintf(name, sizeof(name), "f%03zu-%s", i, f->profile->name.c_str());
    f->name = name;
    const uint64_t sub_seed = SimEnvironment::DeploymentSeed(config_.seed, f->name);

    auto policy = RequestCentricPolicy::Create(PaperConfig(*f->profile, config_.beta));
    if (!policy.ok()) {
      std::fprintf(stderr, "bad policy config: %s\n",
                   policy.status().ToString().c_str());
      std::exit(2);
    }
    f->policy = std::make_unique<RequestCentricPolicy>(*std::move(policy));
    SnapshotStore* store = shared_store_.get();
    if (store == nullptr) {
      f->objects = std::make_unique<InMemoryObjectStore>();
      f->own_store = std::make_unique<FlatSnapshotStore>(*f->objects);
      store = f->own_store.get();
    }
    f->engine = std::make_unique<CriuLikeEngine>(HashCombine(sub_seed, 0xe1ULL));

    const OrchestrationPolicy* policy_view = f->policy.get();
    CheckpointEngine* engine_view = f->engine.get();
    SnapshotStore* store_view = store;
    KvDatabase* kv_view = &f->kv;
    if (traced_) {
      f->traced_policy = std::make_unique<TracedPolicy>(*f->policy, f->context);
      f->traced_engine = std::make_unique<TracedEngine>(*f->engine, f->context);
      f->traced_store = std::make_unique<TracedSnapshotStore>(*store, f->context);
      f->traced_kv = std::make_unique<TracedKvDatabase>(f->kv, f->context);
      policy_view = f->traced_policy.get();
      engine_view = f->traced_engine.get();
      store_view = f->traced_store.get();
      kv_view = f->traced_kv.get();
    }
    f->state = std::make_unique<PolicyStateStore>(*kv_view, f->name, f->policy->config(),
                                                  &f->clock);
    f->orchestrator = std::make_unique<Orchestrator>(
        *f->profile, registry, *policy_view, *engine_view, *store_view, *f->state,
        f->clock, HashCombine(sub_seed, 0x0eULL));
    if (service_ != nullptr) {
      const Status bound = service_->Bind(f->name, 0, f->orchestrator.get(), &f->clock);
      if (!bound.ok()) {
        std::fprintf(stderr, "bind of %s failed: %s\n", f->name.c_str(),
                     bound.ToString().c_str());
        std::exit(2);
      }
      f->backend = std::make_unique<ServiceClient>(service_, f->name, 0);
    } else {
      f->backend = std::make_unique<LocalWorkerBackend>(f->orchestrator.get());
    }
    f->input = std::make_unique<InputModel>(*f->profile, /*enable_noise=*/true);
    f->client_rng = Rng(HashCombine(sub_seed, 0xc1ULL));
    functions_.push_back(std::move(f));
  }
}

Fleet::~Fleet() {
  if (service_ == nullptr) {
    return;
  }
  for (const auto& f : functions_) {
    const Status unbound = service_->Unbind(f->name);
    if (!unbound.ok()) {
      std::fprintf(stderr, "unbind of %s failed: %s\n", f->name.c_str(),
                   unbound.ToString().c_str());
    }
  }
}

namespace {

// Times one driver call and, in the traced run, records it as a span. In
// service mode the open span is published to the function's context so the
// shard-side spans of the call count as its children.
template <typename Call>
auto TimedCall(SpanKind kind, CallContext& context, bool traced, bool service,
               LatencyHistogram* histogram, Call&& call) {
  Frame frame;
  const int64_t begin = NowNs();
  if (traced) {
    Recorder::Get().Begin(frame, kind, &context, begin);
    if (service && frame.live) {
      context.caller.store(&frame, std::memory_order_release);
    }
  }
  auto result = call();
  const int64_t end = NowNs();
  if (traced) {
    if (service) {
      context.caller.store(nullptr, std::memory_order_relaxed);
    }
    Recorder::Get().End(frame, end);
  }
  if (histogram != nullptr) {
    histogram->Add(static_cast<uint64_t>(end - begin));
  }
  return result;
}

}  // namespace

void Fleet::RunLifetime(Function& f, DriverStats* stats) {
  const bool service = service_ != nullptr;
  const SpanKind start_kind = service ? SpanKind::kCallStart : SpanKind::kOrchestratorStart;
  const SpanKind serve_kind = service ? SpanKind::kCallServe : SpanKind::kOrchestratorServe;
  const SpanKind end_kind = service ? SpanKind::kCallEnd : SpanKind::kOrchestratorEnd;
  const auto publish = [&](uint64_t request) {
    if (traced_) {
      f.context.request_id.store((uint64_t{f.index} + 1) << 32 | request,
                                 std::memory_order_relaxed);
      f.context.counted.store(request > config_.warmup_requests &&
                                  request <= config_.verify_requests,
                              std::memory_order_relaxed);
    }
  };

  publish(f.issued + 1);
  auto view = TimedCall(start_kind, f.context, traced_, service,
                        stats != nullptr ? &stats->open.start : nullptr,
                        [&] { return f.backend->StartWorker(); });
  if (stats != nullptr) {
    stats->attempted += 1;
    stats->failed += view.ok() ? 0u : 1u;
  }
  if (!view.ok()) {
    std::fprintf(stderr, "%s: start failed: %s\n", f.name.c_str(),
                 view.status().ToString().c_str());
    // The lifetime's requests are lost (the digest check fails the run), but
    // the driver moves on rather than retrying forever.
    f.issued += config_.beta;
    return;
  }
  f.restored_from = view->restored_from;

  for (uint32_t k = 0; k < config_.beta; ++k) {
    const uint64_t request_index = ++f.issued;
    publish(request_index);
    FunctionRequest request;
    request.id = request_index;
    request.input_scale = f.input->NextScale(f.client_rng);
    auto outcome = TimedCall(serve_kind, f.context, traced_, service,
                             stats != nullptr ? &stats->open.serve : nullptr,
                             [&] { return f.backend->ServeRequest(request); });
    if (stats != nullptr) {
      stats->attempted += 1;
      stats->failed += outcome.ok() ? 0u : 1u;
      stats->requests += outcome.ok() ? 1u : 0u;
    }
    if (!outcome.ok()) {
      std::fprintf(stderr, "%s: request %llu failed: %s\n", f.name.c_str(),
                   static_cast<unsigned long long>(request_index),
                   outcome.status().ToString().c_str());
      break;
    }
    // Closed loop: the next request arrives when this one completes.
    f.clock.Advance(outcome->latency);
    if (request_index <= config_.verify_requests) {
      uint8_t record[24];
      PutLe(record, outcome->request_number);
      PutLe(record + 8, static_cast<uint64_t>(outcome->latency.ToMicros()));
      PutLe(record + 16, f.restored_from);
      f.crc = Crc32Update(f.crc, record);
      if (request_index > config_.warmup_requests) {
        f.sim_ms.push_back(outcome->latency.ToMillis());
      }
    }
  }
  TimedCall(end_kind, f.context, traced_, service, nullptr,
            [&] { return f.backend->EndSession(); });
  if (stats != nullptr) {
    stats->attempted += 1;
  }
}

void Fleet::Drive(size_t begin, size_t end, uint64_t min_requests, int64_t deadline_ns,
                  DriverStats* stats) {
  int64_t slice_begin = NowNs();
  uint64_t slice_requests = stats != nullptr ? stats->requests : 0;
  for (;;) {
    bool reached = true;
    for (size_t i = begin; i < end; ++i) {
      RunLifetime(*functions_[i], stats);
      reached = reached && functions_[i]->issued >= min_requests;
    }
    const int64_t now = NowNs();
    const bool done = reached && (deadline_ns == 0 || now >= deadline_ns);
    if (stats != nullptr && (done || now - slice_begin >= kSliceNs)) {
      if (now - slice_begin >= kSliceNs / 2) {
        stats->slices.push_back(SummarizeSlice(
            stats->open, stats->requests - slice_requests, now - slice_begin));
      }
      stats->open = CallLatencies{};
      slice_begin = now;
      slice_requests = stats->requests;
    }
    if (done) {
      return;
    }
  }
}

bool Fleet::Verified() const {
  for (const auto& f : functions_) {
    if (f->issued < config_.verify_requests ||
        f->sim_ms.size() != config_.verify_requests - config_.warmup_requests) {
      return false;
    }
  }
  return true;
}

uint32_t Fleet::Digest() const {
  uint32_t digest = kCrc32Init;
  for (const auto& f : functions_) {
    uint8_t bytes[8];
    PutLe(bytes, Crc32Finalize(f->crc));
    digest = Crc32Update(digest, std::span<const uint8_t>(bytes, 4));
  }
  return Crc32Finalize(digest);
}

std::vector<double> Fleet::SimLatenciesMs() const {
  std::vector<double> all;
  for (const auto& f : functions_) {
    all.insert(all.end(), f->sim_ms.begin(), f->sim_ms.end());
  }
  return all;
}

TrafficReport Fleet::Traffic(const OrchestratorService* service) const {
  TrafficReport traffic;
  uint64_t starts = 0;
  uint64_t restores = 0;
  uint64_t checkpoints = 0;
  uint64_t retries = 0;
  uint64_t fallbacks = 0;
  uint64_t quarantines = 0;
  uint64_t cas_conflicts = 0;
  uint64_t cache_hits = 0;
  uint64_t cache_lookups = 0;
  uint64_t pool_entries = 0;
  uint64_t pool_capacity = 0;
  std::vector<const SnapshotStore*> stores;
  if (shared_store_ != nullptr) {
    stores.push_back(shared_store_.get());
  }
  for (const auto& f : functions_) {
    const OrchestratorOverheads& overheads = f->orchestrator->overheads();
    const RecoveryStats& recovery = f->orchestrator->recovery_stats();
    starts += overheads.worker_starts;
    traffic.requests += overheads.requests_served;
    checkpoints += overheads.checkpoints_taken;
    restores += f->engine->restores_performed();
    retries += recovery.restore_transient_retries + f->state->stats().transient_retries;
    fallbacks += recovery.restore_fallbacks;
    quarantines += recovery.snapshots_quarantined;
    cas_conflicts += f->kv.accounting().cas_conflicts;
    cache_hits += f->state->cache_stats().hits;
    cache_lookups += f->state->cache_stats().hits + f->state->cache_stats().misses;
    if (auto state = f->state->Load(); state.ok()) {
      pool_entries += state->pool.size();
    }
    pool_capacity += f->policy->config().pool_capacity;
    if (f->own_store != nullptr) {
      stores.push_back(f->own_store.get());
    }
  }
  uint64_t snapshots = 0;
  uint64_t encoded_bytes = 0;
  uint64_t chunk_refs = 0;
  uint64_t resident_bytes = 0;
  uint64_t chunk_hits = 0;
  uint64_t chunk_fetches = 0;
  uint64_t peak_bytes = 0;
  uint64_t peak_flat_bytes = 0;
  for (const SnapshotStore* store : stores) {
    const PhysicalAccounting physical = store->accounting().physical;
    snapshots += store->ListSnapshots("").size();
    encoded_bytes += physical.flat_bytes_stored;
    chunk_refs += physical.chunk_refs;
    resident_bytes += physical.bytes_stored;
    chunk_hits += physical.cache_hits;
    chunk_fetches += physical.chunks_fetched;
    peak_bytes += physical.peak_bytes;
    peak_flat_bytes += physical.peak_flat_bytes;
  }
  traffic.restore_pct = Percent(restores, starts);
  traffic.checkpoints_per_kreq = PerKilo(checkpoints, traffic.requests);
  if (snapshots > 0) {
    traffic.bytes_per_snapshot =
        static_cast<double>(encoded_bytes) / static_cast<double>(snapshots);
    // A flat store keeps each snapshot as one whole blob.
    traffic.chunks_per_snapshot =
        chunk_refs == 0 ? 1.0
                        : static_cast<double>(chunk_refs) / static_cast<double>(snapshots);
  }
  traffic.dedup_ratio = peak_bytes == 0 ? 1.0
                                        : static_cast<double>(peak_flat_bytes) /
                                              static_cast<double>(peak_bytes);
  traffic.resident_mb = static_cast<double>(resident_bytes) / (1024.0 * 1024.0);
  traffic.chunk_cache_hit_pct = Percent(chunk_hits, chunk_hits + chunk_fetches);
  traffic.pool_occupancy_pct = Percent(pool_entries, pool_capacity);
  traffic.state_cache_hit_pct = Percent(cache_hits, cache_lookups);
  traffic.cas_conflicts_per_kreq = PerKilo(cas_conflicts, traffic.requests);
  traffic.retries_per_kreq = PerKilo(retries, traffic.requests);
  traffic.fallbacks_per_kreq = PerKilo(fallbacks, traffic.requests);
  traffic.quarantines_per_kreq = PerKilo(quarantines, traffic.requests);
  if (service != nullptr) {
    traffic.commits_per_kreq = PerKilo(service->stats().batches_committed, traffic.requests);
  }
  return traffic;
}

Reference RunReference(const FleetConfig& config) {
  FleetConfig reference_config = config;
  reference_config.store = StoreKind::kFlatPerFunction;
  Fleet fleet(reference_config, /*traced=*/false, /*service=*/nullptr);
  fleet.Drive(0, fleet.size(), config.verify_requests, 0, nullptr);
  return Reference{fleet.Digest(), fleet.SimLatenciesMs()};
}

}  // namespace pronghorn::bench
