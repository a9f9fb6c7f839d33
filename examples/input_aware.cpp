// Scenario: input-aware meta-orchestration (the paper's §6 future-work
// direction). A function receives two distinct request classes whose code
// paths diverge, so speculative optimizations specialized for one class keep
// deoptimizing on the other. We compare:
//
//   unified      — one deployment, one snapshot pool for all traffic;
//   specialized  — a gateway classifies requests and routes each class to
//                  its own deployment (own orchestrator, Database scope, and
//                  snapshot pool), as §6 sketches ("different orchestrators
//                  can be specialized towards specific patterns").

#include <cstdio>
#include <string>

#include "src/checkpoint/criu_like_engine.h"
#include "src/common/stats.h"
#include "src/core/orchestrator.h"
#include "src/core/request_centric_policy.h"
#include "src/store/kv_database.h"
#include "src/store/object_store.h"
#include "src/store/snapshot_store.h"

using namespace pronghorn;

namespace {

constexpr uint64_t kRequests = 2400;
constexpr uint64_t kEvictionEvery = 4;

WorkloadProfile SensitiveProfile() {
  WorkloadProfile p;
  p.name = "PolyglotRender";  // Renders two very different template families.
  p.family = RuntimeFamily::kPyPy;
  p.compute_base = Duration::Millis(40);
  p.converged_speedup = 3.0;
  p.convergence_requests = 300;
  p.hot_method_count = 12;
  p.baseline_speedup_fraction = 0.6;
  p.deopt_rate = 0.02;
  p.class_sensitivity = 80.0;  // Cross-class requests trip speculation guards.
  p.checkpoint_mean = Duration::Millis(80);
  p.checkpoint_stddev = Duration::Millis(15);
  p.restore_mean = Duration::Millis(60);
  p.restore_stddev = Duration::Millis(5);
  p.snapshot_mb = 50;
  p.cold_init = Duration::Millis(180);
  p.lazy_init_cost = Duration::Millis(20);
  return p;
}

// One deployment: an orchestrator plus its worker, evicted every k requests.
class Deployment {
 public:
  Deployment(const WorkloadProfile& profile, const WorkloadRegistry& registry,
             const OrchestrationPolicy& policy, KvDatabase& db,
             InMemoryObjectStore& store, CheckpointEngine& engine, SimClock& clock,
             std::string scope, uint64_t seed)
      : state_store_(db, std::move(scope), policy.config()),
        snapshot_store_(store),
        orchestrator_(profile, registry, policy, engine, snapshot_store_,
                      state_store_, clock, seed) {}

  Result<Duration> Serve(const FunctionRequest& request) {
    if (!session_.has_value()) {
      PRONGHORN_ASSIGN_OR_RETURN(WorkerSession session, orchestrator_.StartWorker());
      session_.emplace(std::move(session));
      served_in_lifetime_ = 0;
    }
    PRONGHORN_ASSIGN_OR_RETURN(RequestOutcome outcome,
                               orchestrator_.ServeRequest(*session_, request));
    if (++served_in_lifetime_ >= kEvictionEvery) {
      session_.reset();
    }
    total_deopts_ = session_.has_value() ? session_->process.total_deopts()
                                         : total_deopts_;
    return outcome.latency;
  }

 private:
  PolicyStateStore state_store_;
  FlatSnapshotStore snapshot_store_;
  Orchestrator orchestrator_;
  std::optional<WorkerSession> session_;
  uint64_t served_in_lifetime_ = 0;
  uint64_t total_deopts_ = 0;
};

int Fail(const Status& status) {
  std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
  return 1;
}

}  // namespace

int main() {
  const WorkloadProfile profile = SensitiveProfile();
  auto registry = WorkloadRegistry::Create({profile});
  if (!registry.ok()) {
    return Fail(registry.status());
  }
  const WorkloadProfile& p = **registry->Find("PolyglotRender");

  PolicyConfig config;
  config.beta = kEvictionEvery;
  config.pool_capacity = 12;
  config.max_checkpoint_request = 100;
  auto policy = RequestCentricPolicy::Create(config);
  if (!policy.ok()) {
    return Fail(policy.status());
  }

  std::printf("Input-aware orchestration on a class-sensitive workload\n"
              "(two request classes, 50/50 traffic, %llu requests, eviction "
              "every %llu)\n\n",
              static_cast<unsigned long long>(kRequests),
              static_cast<unsigned long long>(kEvictionEvery));

  for (const bool specialized : {false, true}) {
    SimClock clock;
    InMemoryKvDatabase db;
    InMemoryObjectStore store;
    CriuLikeEngine engine(7);
    Rng traffic(99);

    Deployment unified(p, *registry, *policy, db, store, engine, clock,
                       "PolyglotRender", 11);
    Deployment class_a(p, *registry, *policy, db, store, engine, clock,
                       "PolyglotRender#classA", 12);
    Deployment class_b(p, *registry, *policy, db, store, engine, clock,
                       "PolyglotRender#classB", 13);

    DistributionSummary latencies;
    for (uint64_t i = 0; i < kRequests; ++i) {
      FunctionRequest request;
      request.id = i;
      request.input_class = traffic.Bernoulli(0.5) ? 1u : 0u;
      Deployment& target =
          !specialized ? unified : (request.input_class == 0 ? class_a : class_b);
      auto latency = target.Serve(request);
      if (!latency.ok()) {
        return Fail(latency.status());
      }
      latencies.Add(static_cast<double>(latency->ToMicros()));
    }

    std::printf("  %-12s median %8.0f us   p90 %8.0f us   p99 %8.0f us\n",
                specialized ? "specialized" : "unified", latencies.Median(),
                latencies.Quantile(90), latencies.Quantile(99));
  }

  std::printf("\nThe unified deployment keeps deoptimizing: snapshots optimized for\n"
              "one class serve the other class and trip their speculation guards.\n"
              "Routing each class to its own orchestrator (own pool, own learned\n"
              "weights) lets both converge -- the meta-optimization the paper's §6\n"
              "envisions.\n");
  return 0;
}
