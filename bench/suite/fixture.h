// The driver fleet behind the steady, churn and service workloads.
//
// A Fleet is what a serverless platform holds: one Orchestrator per function
// over that function's policy, checkpoint engine, policy-state store and
// key-value database, plus a snapshot store (one per function, or one shared
// by the fleet). The platform drives it in a closed loop: a worker of a
// function starts, serves `beta` requests and is evicted, and no call is
// issued before the previous one has answered. Every call goes either
// straight to the Orchestrator or through a ServiceClient of a live
// OrchestratorService.
//
// A function's outcomes depend only on the seed and on its own call
// sequence, so they are the same whatever the store, the service, the
// tracing or the timing. The outcome digest folds the first
// `verify_requests` outcomes of every function and is the check that proves
// it.

#ifndef PRONGHORN_BENCH_SUITE_FIXTURE_H_
#define PRONGHORN_BENCH_SUITE_FIXTURE_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "src/core/policy_config.h"
#include "src/obs/metrics.h"
#include "src/service/orchestrator_service.h"
#include "src/store/snapshot_store.h"
#include "src/workloads/workload_profile.h"

namespace pronghorn::bench {

// The evaluation's policy parameters (§5.1): p = 40%, gamma = 10%, C = 12,
// W = 100 (PyPy) / 200 (JVM), beta = requests per worker lifetime.
PolicyConfig PaperConfig(const WorkloadProfile& profile, uint32_t beta);

// Start and serve call latencies, in nanoseconds.
struct CallLatencies {
  LatencyHistogram start;
  LatencyHistogram serve;

  void Merge(const CallLatencies& other);
};

// A timed phase is measured in slices of about kSliceNs, and each metric is
// reported as its median over the slices, so a burst of load from outside
// the benchmark moves a few slices and not the result.
inline constexpr int64_t kSliceNs = 500'000'000;

struct Slice {
  double rps = 0;
  double start_p50_ns = 0;
  double start_p99_ns = 0;
  double serve_p50_ns = 0;
  double serve_p99_ns = 0;
  uint64_t start_samples = 0;
  uint64_t serve_samples = 0;
};

Slice SummarizeSlice(const CallLatencies& latencies, uint64_t requests, int64_t wall_ns);

// What one driver thread measured in a timed phase.
struct DriverStats {
  uint64_t attempted = 0;  // Calls issued: starts, serves and ends.
  uint64_t failed = 0;     // Calls that returned a non-OK status.
  uint64_t requests = 0;   // Requests served.
  std::vector<Slice> slices;
  CallLatencies open;      // The slice being recorded.
};

enum class StoreKind {
  kFlatPerFunction,  // FlatSnapshotStore over one InMemoryObjectStore each.
  kDedupShared,      // One DedupSnapshotStore (CDC, lazy restore) for all.
};

struct FleetConfig {
  size_t functions = 64;
  uint32_t beta = 4;  // Requests per worker lifetime; also the policy's beta.
  StoreKind store = StoreKind::kFlatPerFunction;
  // Requests per function served during set-up.
  uint64_t warmup_requests = 256;
  // Requests per function folded into the digest. The window
  // (warmup_requests, verify_requests] gives the simulated latencies and the
  // traced run's exact call counts.
  uint64_t verify_requests = 2048;
  uint64_t seed = 1;
};

// Workload properties read from public getters (see README.md).
struct TrafficReport {
  uint64_t requests = 0;
  double restore_pct = 0;          // Worker starts that restored a snapshot.
  double checkpoints_per_kreq = 0;
  double bytes_per_snapshot = 0;   // Mean encoded bytes of resident snapshots.
  double chunks_per_snapshot = 0;
  double dedup_ratio = 1;
  double resident_mb = 0;          // Bytes the snapshot store holds.
  double chunk_cache_hit_pct = 0;  // Lazy restore: chunks served by the cache.
  double pool_occupancy_pct = 0;   // Mean pool size over capacity.
  double state_cache_hit_pct = 0;  // Decoded policy-state cache.
  double cas_conflicts_per_kreq = 0;
  double retries_per_kreq = 0;
  double fallbacks_per_kreq = 0;
  double quarantines_per_kreq = 0;
  double commits_per_kreq = 0;     // Service group commits.
};

class Fleet {
 public:
  // `service`, when non-null, is borrowed: every function is bound into it
  // and driven through a ServiceClient. `traced` installs the decorators of
  // traced.h and opens a span around every driver call.
  Fleet(const FleetConfig& config, bool traced, OrchestratorService* service);
  ~Fleet();

  Fleet(const Fleet&) = delete;
  Fleet& operator=(const Fleet&) = delete;

  // Runs whole worker lifetimes round-robin over functions [begin, end)
  // until each has issued at least `min_requests` and, when `deadline_ns` is
  // nonzero, the steady clock has passed it. `stats` (may be null) receives
  // call counts and one Slice per kSliceNs; a final slice shorter than half
  // of that is dropped. Functions are only ever driven by one thread.
  void Drive(size_t begin, size_t end, uint64_t min_requests, int64_t deadline_ns,
             DriverStats* stats);

  size_t size() const { return functions_.size(); }
  // True when every function served its first verify_requests requests.
  bool Verified() const;
  // CRC32 over each function's outcome CRC, in function order.
  uint32_t Digest() const;
  // Simulated latencies of the window, in function order.
  std::vector<double> SimLatenciesMs() const;
  TrafficReport Traffic(const OrchestratorService* service) const;

 private:
  struct Function;

  void RunLifetime(Function& function, DriverStats* stats);

  const FleetConfig config_;
  const bool traced_;
  OrchestratorService* const service_;
  std::unique_ptr<SnapshotStore> shared_store_;
  std::vector<std::unique_ptr<Function>> functions_;
};

// Runs a fresh untraced, in-process, flat-store fleet to verify_requests per
// function: the reference every workload's digest must equal.
struct Reference {
  uint32_t digest = 0;
  std::vector<double> sim_ms;
};
Reference RunReference(const FleetConfig& config);

}  // namespace pronghorn::bench

#endif  // PRONGHORN_BENCH_SUITE_FIXTURE_H_
