// Unified perf-regression suite: one binary, five sections, one versioned
// JSON. CI runs this and diffs BENCH_perf_suite.json against the committed
// baseline with tools/bench_compare.py, so a PR that quietly regresses a hot
// path by more than the per-metric budget fails the perf-regression job.
//
// Sections (each warmup + median-of-N; see exhibit_common.h):
//   fleet_wallclock    end-to-end simulator throughput, 1 thread and the
//                      hardware-clamped worker count; also re-proves the
//                      standing invariant that digests are bit-identical at
//                      --threads {1, 2, 8} both clean and under chaos.
//   micro_policy_ops   the vectorized kernels vs their scalar-reference
//                      reimplementations (softmax n=13, weight-fold n=200).
//   service_throughput the live-service mode end to end through Simulate.
//   fleet_scale        a bounded-retention many-function fleet (decision
//                      throughput at scale).
//   storage_dedup      DedupSnapshotStore put+restore bandwidth.
//
// Every metric row carries {name, value, unit, direction, spread_pct}:
// `direction` tells the comparator which way regressions point, and
// `spread_pct` is the min..max envelope of the timed reps so the comparator
// can refuse to trust a delta inside the noise floor.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench/exhibit_common.h"
#include "src/common/mathutil.h"
#include "src/common/rng.h"
#include "src/common/thread_pool.h"
#include "src/store/snapshot_store.h"

namespace pronghorn::bench {
namespace {

constexpr const char* kJsonPath = "BENCH_perf_suite.json";
constexpr uint64_t kSeed = 42;

struct Metric {
  std::string name;
  double value = 0.0;
  const char* unit = "";
  // "higher" = bigger is better (throughput); "lower" = smaller is better.
  const char* direction = "higher";
  double spread_pct = 0.0;
};

std::vector<Metric> g_metrics;
bool g_determinism_ok = true;

void AddMetric(const std::string& name, double value, const char* unit,
               const char* direction, double spread_pct) {
  g_metrics.push_back(Metric{name, value, unit, direction, spread_pct});
  std::printf("  %-38s %14.1f %-10s (spread ±%.1f%%)\n", name.c_str(), value, unit,
              spread_pct);
}

// --- Section: fleet_wallclock ----------------------------------------------

struct FleetFixture {
  std::vector<const WorkloadProfile*> profiles;
  std::vector<std::unique_ptr<OrchestrationPolicy>> policies;
  std::vector<SimFunctionSpec> specs;
  uint64_t total_requests = 0;

  FleetFixture(size_t fleet_size, uint64_t requests_per_function,
               uint32_t eviction_k) {
    const auto evaluation = WorkloadRegistry::Default().EvaluationSet();
    profiles.reserve(fleet_size);
    policies.reserve(fleet_size);
    specs.reserve(fleet_size);
    for (size_t i = 0; i < fleet_size; ++i) {
      const auto* profile = evaluation[i % evaluation.size()];
      profiles.push_back(profile);
      policies.push_back(MakePolicy(PolicyKind::kRequestCentric,
                                    PaperConfig(*profile, eviction_k)));
      SimFunctionSpec spec;
      char name[48];
      std::snprintf(name, sizeof(name), "f%03zu-%s", i, profile->name.c_str());
      spec.name = name;
      spec.profile = profile;
      spec.policy = policies.back().get();
      spec.requests = requests_per_function;
      specs.push_back(std::move(spec));
    }
    total_requests = fleet_size * requests_per_function;
  }
};

uint32_t RunFleetOnce(const FleetFixture& fixture, const SimOptions& options) {
  auto report = Simulate(WorkloadRegistry::Default(), SimTopology::kFleet,
                         fixture.specs, options);
  if (!report.ok()) {
    std::fprintf(stderr, "fleet run failed: %s\n",
                 report.status().ToString().c_str());
    std::exit(1);
  }
  return report->Digest();
}

SimOptions FleetOptions(uint32_t threads, bool chaos) {
  SimOptions options;
  options.seed = kSeed;
  options.threads = threads;
  options.worker_slots = 4;
  options.exploring_slots = 1;
  options.eviction.kind = FleetEvictionSpec::Kind::kEveryK;
  options.eviction.k = 4;
  if (chaos) {
    options.faults.get_failure_rate = 0.01;
    options.faults.put_failure_rate = 0.01;
    options.faults.corruption_rate = 0.002;
    options.faults.seed = 7;
  }
  return options;
}

void SectionFleetWallclock() {
  std::printf("\n[fleet_wallclock]\n");
  FleetFixture fixture(32, 160, 4);

  // Role-named metrics (not thread-count-named): on a 1-core host the
  // clamped "all cores" run degenerates to 1 worker and the names must not
  // collide with the serial row.
  const struct {
    const char* name;
    uint32_t threads;
  } configs[] = {
      {"fleet_wallclock_rps_serial", 1},
      {"fleet_wallclock_rps_allcores", 0},
  };
  for (const auto& config : configs) {
    const SimOptions options = FleetOptions(config.threads, /*chaos=*/false);
    const TimingSample timing = MeasureMedianSeconds(
        1, 5, [&]() { (void)RunFleetOnce(fixture, options); });
    const double rps =
        static_cast<double>(fixture.total_requests) / timing.median_seconds;
    AddMetric(config.name, rps, "req/s", "higher",
              timing.SpreadFraction() * 100.0);
  }

  // Standing invariant: digests bit-identical at --threads {1, 2, 8}, clean
  // and under chaos. A perf suite that silently traded determinism for speed
  // must fail here, not in a downstream experiment.
  for (const bool chaos : {false, true}) {
    uint32_t reference = 0;
    bool first = true;
    for (const uint32_t threads : {1u, 2u, 8u}) {
      const uint32_t digest =
          RunFleetOnce(fixture, FleetOptions(threads, chaos));
      if (first) {
        reference = digest;
        first = false;
      } else if (digest != reference) {
        std::fprintf(stderr,
                     "DETERMINISM VIOLATION: digest %08x at %u threads != %08x "
                     "(chaos=%d)\n",
                     digest, threads, reference, chaos ? 1 : 0);
        g_determinism_ok = false;
      }
    }
    std::printf("  digests across threads {1,2,8}%s: %s\n",
                chaos ? " under chaos" : "",
                g_determinism_ok ? "bit-identical" : "DIVERGED");
  }
}

// --- Section: micro_policy_ops ----------------------------------------------

std::vector<double> RandomValues(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<double> values(n);
  for (double& v : values) {
    v = rng.UniformDouble() * 20.0;
  }
  return values;
}

// The pre-optimization softmax, verbatim: allocate per call, scalar loops.
std::vector<double> SoftmaxScalarReference(std::span<const double> logits,
                                           double temperature) {
  std::vector<double> out;
  if (logits.empty()) {
    return out;
  }
  const double max_logit = *std::max_element(logits.begin(), logits.end());
  out.reserve(logits.size());
  double total = 0.0;
  for (double logit : logits) {
    const double e = std::exp((logit - max_logit) / temperature);
    out.push_back(e);
    total += e;
  }
  for (double& p : out) {
    p /= total;
  }
  return out;
}

void SectionMicroPolicyOps() {
  std::printf("\n[micro_policy_ops]\n");
  constexpr int kIters = 200000;

  // Softmax at the policy's candidate count (pool capacity 12 + cold start).
  {
    const auto logits = RandomValues(13, 11);
    std::vector<double> out(logits.size());
    const TimingSample optimized = MeasureMedianSeconds(1, 5, [&]() {
      for (int i = 0; i < kIters; ++i) {
        SoftmaxInto(logits, 1.0, out);
      }
    });
    volatile double sink = 0.0;
    const TimingSample scalar = MeasureMedianSeconds(1, 5, [&]() {
      for (int i = 0; i < kIters; ++i) {
        auto probs = SoftmaxScalarReference(logits, 1.0);
        sink = sink + probs[0];
      }
    });
    const double mops = kIters / optimized.median_seconds / 1e6;
    AddMetric("softmax13_optimized_mops", mops, "Mops/s", "higher",
              optimized.SpreadFraction() * 100.0);
    AddMetric("softmax13_speedup_vs_scalar",
              scalar.median_seconds / optimized.median_seconds, "x", "higher",
              (optimized.SpreadFraction() + scalar.SpreadFraction()) * 100.0);
  }

  // The weight-fold kernel over the JVM learning window W = 200.
  {
    const auto values = RandomValues(200, 12);
    std::vector<double> out(values.size());
    const TimingSample optimized = MeasureMedianSeconds(1, 5, [&]() {
      for (int i = 0; i < kIters; ++i) {
        InverseWeightsInto(values, 0.01, out);
      }
    });
    const TimingSample scalar = MeasureMedianSeconds(1, 5, [&]() {
      for (int i = 0; i < kIters; ++i) {
        for (size_t j = 0; j < values.size(); ++j) {
          out[j] = InverseWeight(values[j], 0.01);
        }
      }
    });
    const double melem =
        kIters * static_cast<double>(values.size()) / optimized.median_seconds / 1e6;
    AddMetric("weight_fold200_optimized_melems", melem, "Melem/s", "higher",
              optimized.SpreadFraction() * 100.0);
    AddMetric("weight_fold200_speedup_vs_scalar",
              scalar.median_seconds / optimized.median_seconds, "x", "higher",
              (optimized.SpreadFraction() + scalar.SpreadFraction()) * 100.0);
  }
}

// --- Section: service_throughput --------------------------------------------

void SectionServiceThroughput() {
  std::printf("\n[service_throughput]\n");
  FleetFixture fixture(16, 120, 4);
  SimOptions options = FleetOptions(0, /*chaos=*/false);
  options.service.enabled = true;
  options.service.shards = 4;
  const TimingSample timing =
      MeasureMedianSeconds(1, 3, [&]() { (void)RunFleetOnce(fixture, options); });
  AddMetric("service_mode_rps",
            static_cast<double>(fixture.total_requests) / timing.median_seconds,
            "req/s", "higher", timing.SpreadFraction() * 100.0);
}

// --- Section: fleet_scale ---------------------------------------------------

void SectionFleetScale() {
  std::printf("\n[fleet_scale]\n");
  FleetFixture fixture(600, 24, 4);
  SimOptions options = FleetOptions(0, /*chaos=*/false);
  options.retention.mode = ReportRetention::kTopLatency;
  options.retention.k = 32;
  const TimingSample timing =
      MeasureMedianSeconds(1, 3, [&]() { (void)RunFleetOnce(fixture, options); });
  AddMetric("fleet_scale_600fn_rps",
            static_cast<double>(fixture.total_requests) / timing.median_seconds,
            "req/s", "higher", timing.SpreadFraction() * 100.0);
}

// --- Section: storage_dedup -------------------------------------------------

void SectionStorageDedup() {
  std::printf("\n[storage_dedup]\n");
  constexpr size_t kImages = 48;
  constexpr size_t kImageBytes = 192 * 1024;
  constexpr size_t kMutationBytes = 4096;

  // Synthetic snapshot lineage: each image is the previous one with a small
  // dirty region, the dedup store's designed-for workload.
  Rng rng(kSeed);
  std::vector<std::vector<uint8_t>> images;
  images.reserve(kImages);
  std::vector<uint8_t> base(kImageBytes);
  for (uint8_t& b : base) {
    b = static_cast<uint8_t>(rng.UniformUint64(256));
  }
  for (size_t i = 0; i < kImages; ++i) {
    const size_t offset =
        rng.UniformUint64(kImageBytes - kMutationBytes);
    for (size_t j = 0; j < kMutationBytes; ++j) {
      base[offset + j] = static_cast<uint8_t>(rng.UniformUint64(256));
    }
    images.push_back(base);
  }

  SnapshotStoreOptions store_options;
  store_options.kind = SnapshotStoreOptions::Kind::kDedup;
  const double total_mb = static_cast<double>(kImages * kImageBytes) / (1024.0 * 1024.0);

  const TimingSample put_timing = MeasureMedianSeconds(1, 5, [&]() {
    DedupSnapshotStore store(store_options);
    for (size_t i = 0; i < kImages; ++i) {
      auto ref = store.PutSnapshot("snapshots/bench/" + std::to_string(i),
                                   ObjectBlob(std::vector<uint8_t>(images[i]),
                                              images[i].size()));
      if (!ref.ok()) {
        std::fprintf(stderr, "put failed: %s\n", ref.status().ToString().c_str());
        std::exit(1);
      }
    }
  });
  AddMetric("dedup_put_mbps", total_mb / put_timing.median_seconds, "MB/s",
            "higher", put_timing.SpreadFraction() * 100.0);

  DedupSnapshotStore store(store_options);
  for (size_t i = 0; i < kImages; ++i) {
    auto ref = store.PutSnapshot("snapshots/bench/" + std::to_string(i),
                                 ObjectBlob(std::vector<uint8_t>(images[i]),
                                            images[i].size()));
    if (!ref.ok()) {
      std::exit(1);
    }
  }
  const TimingSample restore_timing = MeasureMedianSeconds(1, 5, [&]() {
    for (size_t i = 0; i < kImages; ++i) {
      auto reader = store.OpenSnapshot("snapshots/bench/" + std::to_string(i));
      if (!reader.ok()) {
        std::exit(1);
      }
      auto blob = (*reader)->ReadAll();
      if (!blob.ok()) {
        std::exit(1);
      }
    }
  });
  AddMetric("dedup_restore_mbps", total_mb / restore_timing.median_seconds,
            "MB/s", "higher", restore_timing.SpreadFraction() * 100.0);
}

// --- JSON -------------------------------------------------------------------

bool WriteJson() {
  std::FILE* out = std::fopen(kJsonPath, "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot open %s for writing\n", kJsonPath);
    return false;
  }
  std::fprintf(out, "{\n");
  std::fprintf(out, "  \"benchmark\": \"perf_suite\",\n");
  std::fprintf(out, "  \"schema_version\": 2,\n");
  EmitMachineJson(out, "  ");
  std::fprintf(out, "  \"seed\": %llu,\n", static_cast<unsigned long long>(kSeed));
  std::fprintf(out, "  \"determinism_ok\": %s,\n",
               g_determinism_ok ? "true" : "false");
  std::fprintf(out, "  \"metrics\": [\n");
  for (size_t i = 0; i < g_metrics.size(); ++i) {
    const Metric& metric = g_metrics[i];
    std::fprintf(out,
                 "    {\"name\": \"%s\", \"value\": %.3f, \"unit\": \"%s\", "
                 "\"direction\": \"%s\", \"spread_pct\": %.2f}%s\n",
                 metric.name.c_str(), metric.value, metric.unit,
                 metric.direction, metric.spread_pct,
                 i + 1 < g_metrics.size() ? "," : "");
  }
  std::fprintf(out, "  ]\n}\n");
  std::fclose(out);
  return true;
}

}  // namespace
}  // namespace pronghorn::bench

int main() {
  using namespace pronghorn::bench;
  std::printf("=== Perf suite (regression-gated) ===\n");
  std::printf("host: %u hardware thread(s), governor %s\n",
              QueryMachineInfo().hardware_threads,
              QueryMachineInfo().cpu_governor.c_str());

  SectionFleetWallclock();
  SectionMicroPolicyOps();
  SectionServiceThroughput();
  SectionFleetScale();
  SectionStorageDedup();

  const bool wrote = WriteJson();
  std::printf("\nwrote %s; determinism %s\n", kJsonPath,
              g_determinism_ok ? "OK" : "VIOLATED");
  return wrote && g_determinism_ok ? 0 : 1;
}
