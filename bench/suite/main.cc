// pronghorn_bench: runs one benchmark workload and prints one JSON object.
//
//   pronghorn_bench --workload=<steady|churn|service|replay> --seed=<n>
//                   [--seconds=<s>] [--trace=<file>]
//
// Without --trace the object's metrics are the end-to-end metrics, measured
// with the raw layers installed. With --trace the process measures the
// workload twice for seconds/2 each, raw and then through the span
// decorators, reports the per-layer metrics and writes the raw-span window
// to <file> as Chrome trace JSON. Every run also checks its outputs against
// a reference computed in the same process; see README.md.

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "bench/suite/fixture.h"
#include "bench/suite/recorder.h"
#include "bench/suite/replay.h"
#include "src/common/logging.h"
#include "src/common/thread_pool.h"

namespace pronghorn::bench {
namespace {

// Set-up is repeated at least kSetupRepeats times and for at least
// kSetupBudgetS seconds, and its median reported, so a slow allocation or a
// burst of load from outside does not decide setup_s.
constexpr size_t kSetupRepeats = 5;
constexpr double kSetupBudgetS = 1.0;
constexpr uint32_t kServiceShards = 2;
// Worker starts, the scarcest call, a timed phase records at the least.
constexpr uint64_t kMinStarts = 100000;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 8.0;
  std::string trace_path;
};

std::optional<Args> ParseArgs(int argc, char** argv) {
  Args args;
  bool has_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    const size_t eq = arg.find('=');
    if (arg.substr(0, 2) != "--" || eq == std::string_view::npos) {
      std::fprintf(stderr, "expected --key=value, got '%s'\n", argv[i]);
      return std::nullopt;
    }
    const std::string_view key = arg.substr(2, eq - 2);
    const std::string value(arg.substr(eq + 1));
    char* end = nullptr;
    if (key == "workload") {
      args.workload = value;
    } else if (key == "seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
      has_seed = !value.empty() && *end == '\0';
      if (!has_seed) {
        std::fprintf(stderr, "bad --seed '%s'\n", value.c_str());
        return std::nullopt;
      }
    } else if (key == "seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
      if (value.empty() || *end != '\0' || !(args.seconds > 0.0)) {
        std::fprintf(stderr, "bad --seconds '%s'\n", value.c_str());
        return std::nullopt;
      }
    } else if (key == "trace") {
      args.trace_path = value;
    } else {
      std::fprintf(stderr, "unknown flag --%.*s\n", static_cast<int>(key.size()),
                   key.data());
      return std::nullopt;
    }
  }
  if (args.workload.empty() || !has_seed) {
    std::fprintf(stderr, "--workload and --seed are required\n");
    return std::nullopt;
  }
  return args;
}

int64_t CpuNs() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

// The peak resident set of this process image. Linux's VmHWM starts afresh
// at exec, unlike getrusage's ru_maxrss, which keeps the peak of the
// process that forked us (a Python driver's own footprint, for one).
double PeakRssMb() {
  if (std::FILE* status = std::fopen("/proc/self/status", "r"); status != nullptr) {
    char line[256];
    unsigned long long kib = 0;
    bool found = false;
    while (!found && std::fgets(line, sizeof(line), status) != nullptr) {
      found = std::sscanf(line, "VmHWM: %llu kB", &kib) == 1;
    }
    std::fclose(status);
    if (found) {
      return static_cast<double>(kib) / 1024.0;
    }
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB.
}

// Linear interpolation between closest ranks (Hyndman-Fan type 7); q in [0, 1].
double Quantile(std::vector<double> values, double q) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const double rank = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(rank);
  const size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (rank - static_cast<double>(lo));
}

double Seconds(int64_t ns) { return static_cast<double>(ns) / 1e9; }

bool MoreSetups(const std::vector<double>& setup_s) {
  double total = 0;
  for (const double s : setup_s) {
    total += s;
  }
  return setup_s.size() < kSetupRepeats || total < kSetupBudgetS;
}

// A flat JSON object with keys in insertion order.
class Json {
 public:
  Json& Number(std::string_view key, double value) {
    char buffer[64];
    std::snprintf(buffer, sizeof(buffer), "%.17g", std::isfinite(value) ? value : 0.0);
    return Raw(key, buffer);
  }
  Json& Count(std::string_view key, uint64_t value) {
    return Raw(key, std::to_string(value));
  }
  Json& Bool(std::string_view key, bool value) { return Raw(key, value ? "true" : "false"); }
  Json& String(std::string_view key, std::string_view value) {
    std::string quoted(1, '"');
    quoted.append(value).push_back('"');
    return Raw(key, quoted);
  }
  Json& Metric(std::string_view key, double value, std::string_view unit) {
    Json metric;
    metric.Number("value", value).String("unit", unit);
    return Raw(key, metric.str());
  }
  Json& Raw(std::string_view key, std::string_view json) {
    if (!body_.empty()) {
      body_.append(", ");
    }
    body_.append(1, '"').append(key).append("\": ").append(json);
    return *this;
  }
  std::string str() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

std::string Hex(uint32_t value) {
  char buffer[16];
  std::snprintf(buffer, sizeof(buffer), "%08x", value);
  return buffer;
}

// Everything one run reports; printed as the process's one JSON object.
struct RunOutput {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::pair<std::string, bool>> checks;
  Json info;     // Digests, sample counts, traffic report.
  Json metrics;

  void Check(std::string name, bool ok) { checks.emplace_back(std::move(name), ok); }

  void Print(const Args& args) const {
    bool correct = failed == 0 && attempted > 0;
    Json check_json;
    for (const auto& [name, ok] : checks) {
      check_json.Bool(name, ok);
      correct = correct && ok;
    }
    Json out;
    out.String("workload", args.workload)
        .Count("seed", args.seed)
        .Bool("traced", !args.trace_path.empty())
        .Bool("correct", correct)
        .Count("attempted", attempted)
        .Count("failed", failed)
        .Number("error_rate", attempted == 0 ? 1.0
                                             : static_cast<double>(failed) /
                                                   static_cast<double>(attempted))
        .Raw("checks", check_json.str())
        .Raw("info", info.str())
        .Raw("metrics", metrics.str());
    std::printf("%s\n", out.str().c_str());
  }
};

Json TrafficJson(const TrafficReport& t) {
  Json json;
  json.Count("requests", t.requests)
      .Number("restore_pct", t.restore_pct)
      .Number("checkpoints_per_kreq", t.checkpoints_per_kreq)
      .Number("bytes_per_snapshot", t.bytes_per_snapshot)
      .Number("chunks_per_snapshot", t.chunks_per_snapshot)
      .Number("dedup_ratio", t.dedup_ratio)
      .Number("resident_mb", t.resident_mb)
      .Number("chunk_cache_hit_pct", t.chunk_cache_hit_pct)
      .Number("pool_occupancy_pct", t.pool_occupancy_pct)
      .Number("state_cache_hit_pct", t.state_cache_hit_pct);
  return json;
}

// One timed phase: its counts, its wall and CPU time, and its slices.
struct Phase {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t requests = 0;
  int64_t wall_ns = 0;
  int64_t cpu_ns = 0;
  std::vector<std::vector<Slice>> slices;  // One list per driver thread.

  // The median slice rate, summed over the driver threads.
  double Rps() const {
    double rps = 0;
    for (const std::vector<Slice>& thread : slices) {
      std::vector<double> rates;
      for (const Slice& slice : thread) {
        rates.push_back(slice.rps);
      }
      rps += Quantile(rates, 0.5);
    }
    return rps;
  }
};

// Each latency percentile is the median over all slices of the slice's
// percentile.
void LatencyMetrics(RunOutput& out, const Phase& phase) {
  std::vector<double> start_p50;
  std::vector<double> start_p99;
  std::vector<double> serve_p50;
  std::vector<double> serve_p99;
  uint64_t start_samples = 0;
  uint64_t serve_samples = 0;
  for (const std::vector<Slice>& thread : phase.slices) {
    for (const Slice& slice : thread) {
      start_p50.push_back(slice.start_p50_ns);
      start_p99.push_back(slice.start_p99_ns);
      serve_p50.push_back(slice.serve_p50_ns);
      serve_p99.push_back(slice.serve_p99_ns);
      start_samples += slice.start_samples;
      serve_samples += slice.serve_samples;
    }
  }
  out.info.Count("slices", start_p50.size())
      .Count("start_samples", start_samples)
      .Count("serve_samples", serve_samples);
  out.metrics.Metric("start_p50_us", Quantile(start_p50, 0.5) / 1e3, "us")
      .Metric("start_p99_us", Quantile(start_p99, 0.5) / 1e3, "us")
      .Metric("serve_p50_us", Quantile(serve_p50, 0.5) / 1e3, "us")
      .Metric("serve_p99_us", Quantile(serve_p99, 0.5) / 1e3, "us");
}

// What the per-layer shares and rates are relative to.
struct LayerBasis {
  double window_requests = 0;  // Requests whose calls are counted.
  double requests = 0;         // Requests served in the traced phase.
  double wall_ns = 0;          // Traced phase wall time.
  double cpu_ns = 0;           // Process CPU time in the traced phase.
  uint32_t span_threads = 0;   // Threads whose wall the spans partition.
  uint32_t busy_threads = 0;   // Threads the workload keeps busy.
  double untraced_rps = 0;
  double traced_rps = 0;
};

void LayerMetrics(Json& metrics, const SpanTotals& totals, const TrafficReport& traffic,
                  const LayerBasis& basis) {
  const double span_wall = basis.wall_ns * basis.span_threads;
  int64_t policy_ns = 0;
  for (size_t k = 0; k < kSpanKinds; ++k) {
    const std::string name(SpanName(static_cast<SpanKind>(k)));
    metrics.Metric(name + ".calls_per_kreq",
                   1000.0 * static_cast<double>(totals.calls[k]) / basis.window_requests,
                   "count");
    metrics.Metric(name + ".self_pct",
                   100.0 * static_cast<double>(totals.self_ns[k]) / span_wall, "%");
    if (name.starts_with("core.policy.")) {
      policy_ns += totals.self_ns[k];
    }
  }
  metrics.Metric("trace.wall_ns_per_req", span_wall / basis.requests, "ns")
      .Metric("residual_pct",
              100.0 * (span_wall - static_cast<double>(totals.top_level_ns)) / span_wall,
              "%")
      .Metric("trace_overhead_pct",
              100.0 * (basis.untraced_rps - basis.traced_rps) / basis.untraced_rps, "%")
      .Metric("store.snapshot.bytes_per_snapshot", traffic.bytes_per_snapshot, "B")
      .Metric("store.snapshot.chunks_per_snapshot", traffic.chunks_per_snapshot, "count")
      .Metric("store.snapshot.resident_mb", traffic.resident_mb, "MB")
      .Metric("store.snapshot.dedup_ratio", traffic.dedup_ratio, "x")
      .Metric("store.snapshot.cache_hit_pct", traffic.chunk_cache_hit_pct, "%")
      .Metric("store.kv.cas_conflicts_per_kreq", traffic.cas_conflicts_per_kreq, "count")
      .Metric("core.state.cache_hit_pct", traffic.state_cache_hit_pct, "%")
      .Metric("core.orchestrator.restore_pct", traffic.restore_pct, "%")
      .Metric("core.orchestrator.checkpoints_per_kreq", traffic.checkpoints_per_kreq,
              "count")
      .Metric("core.policy.pool_occupancy_pct", traffic.pool_occupancy_pct, "%")
      .Metric("core.recovery.retries_per_kreq", traffic.retries_per_kreq, "count")
      .Metric("core.recovery.fallbacks_per_kreq", traffic.fallbacks_per_kreq, "count")
      .Metric("core.recovery.quarantines_per_kreq", traffic.quarantines_per_kreq, "count")
      .Metric("service.commits_per_kreq", traffic.commits_per_kreq, "count")
      .Metric("platform.cpu_ns_per_req", basis.cpu_ns / basis.requests, "ns")
      .Metric("platform.self_ns_per_req",
              (basis.cpu_ns - static_cast<double>(policy_ns)) / basis.requests, "ns")
      .Metric("common.thread_pool.cpu_util",
              basis.cpu_ns / (basis.wall_ns * basis.busy_threads), "fraction");
}

// --- steady / churn / service ------------------------------------------------

struct DriverWorkload {
  FleetConfig config;
  bool service = false;
  uint32_t threads = 1;  // Driver threads; each owns a contiguous slice.
  // Requests per function a timed phase serves whatever --seconds says: the
  // verification prefix, kMinStarts starts and, on churn, enough snapshot
  // deletes for the store to collect its garbage once. So sample counts and
  // peak_rss_mb do not depend on how fast the machine is.
  uint64_t min_requests = 0;
};

std::optional<DriverWorkload> FindDriverWorkload(std::string_view name, uint64_t seed) {
  DriverWorkload w;
  w.config.seed = seed;
  if (name == "steady" || name == "service") {
    w.config.functions = 64;
    w.config.beta = 4;
    w.config.store = StoreKind::kFlatPerFunction;
    w.config.warmup_requests = 256;
    w.config.verify_requests = 2048;
    w.service = name == "service";
    w.threads = w.service ? 2 : 1;
    w.min_requests = w.config.warmup_requests +
                     kMinStarts * w.config.beta / w.config.functions;  // 6506
    return w;
  }
  if (name == "churn") {
    w.config.functions = 256;
    w.config.beta = 1;
    w.config.store = StoreKind::kDedupShared;
    w.config.warmup_requests = 64;
    w.config.verify_requests = 512;
    w.min_requests = 1024;
    return w;
  }
  return std::nullopt;
}

// A warmed-up fleet ready for its timed phase. The service outlives the
// fleet, whose destructor unbinds every function from it.
struct Rig {
  std::unique_ptr<OrchestratorService> service;
  std::unique_ptr<Fleet> fleet;
};

void DriveAll(Fleet& fleet, uint32_t threads, uint64_t min_requests, int64_t deadline_ns,
              std::vector<DriverStats>* stats) {
  const auto slice = [&](uint32_t t) { return fleet.size() * t / threads; };
  const auto drive = [&](uint32_t t) {
    fleet.Drive(slice(t), slice(t + 1), min_requests, deadline_ns,
                stats != nullptr ? &(*stats)[t] : nullptr);
  };
  std::vector<std::thread> workers;
  for (uint32_t t = 1; t < threads; ++t) {
    workers.emplace_back(drive, t);
  }
  drive(0);
  for (std::thread& worker : workers) {
    worker.join();
  }
}

std::unique_ptr<Rig> BuildRig(const DriverWorkload& w, bool traced) {
  auto rig = std::make_unique<Rig>();
  if (w.service) {
    ServiceConfig config;
    config.shards = kServiceShards;
    rig->service = std::make_unique<OrchestratorService>(config);
  }
  rig->fleet = std::make_unique<Fleet>(w.config, traced, rig->service.get());
  DriveAll(*rig->fleet, w.threads, w.config.warmup_requests, 0, nullptr);
  return rig;
}

Phase TimedPhase(Fleet& fleet, const DriverWorkload& w, double seconds) {
  std::vector<DriverStats> per_thread(w.threads);
  Phase phase;
  const int64_t cpu_begin = CpuNs();
  const int64_t begin = NowNs();
  DriveAll(fleet, w.threads, w.min_requests, begin + static_cast<int64_t>(seconds * 1e9),
           &per_thread);
  phase.wall_ns = NowNs() - begin;
  phase.cpu_ns = CpuNs() - cpu_begin;
  for (DriverStats& stats : per_thread) {
    phase.attempted += stats.attempted;
    phase.failed += stats.failed;
    phase.requests += stats.requests;
    phase.slices.push_back(std::move(stats.slices));
  }
  return phase;
}

void CheckFleet(RunOutput& out, const std::string& label, const Fleet& fleet,
                uint32_t reference) {
  const uint32_t digest = fleet.Digest();
  out.info.String(label + "_digest", Hex(digest));
  out.Check(label + "_served_verify_window", fleet.Verified());
  out.Check(label + "_digest_matches_reference", digest == reference);
}

void RunDriver(const Args& args, const DriverWorkload& w, RunOutput& out) {
  const size_t window = w.config.functions * (w.config.verify_requests -
                                               w.config.warmup_requests);
  // The reference runs first: it also gets the process and the CPU past
  // their cold start before anything is timed.
  const Reference reference = RunReference(w.config);
  out.info.String("reference_digest", Hex(reference.digest));
  if (args.trace_path.empty()) {
    std::vector<double> setup_s;
    std::unique_ptr<Rig> rig;
    while (MoreSetups(setup_s)) {
      rig.reset();
      const int64_t begin = NowNs();
      rig = BuildRig(w, /*traced=*/false);
      setup_s.push_back(Seconds(NowNs() - begin));
    }
    const Phase phase = TimedPhase(*rig->fleet, w, args.seconds);
    const double rss_mb = PeakRssMb();
    out.info.Raw("traffic", TrafficJson(rig->fleet->Traffic(rig->service.get())).str());
    CheckFleet(out, "run", *rig->fleet, reference.digest);
    rig.reset();

    out.attempted = phase.attempted;
    out.failed = phase.failed;
    out.info.Count("sim_samples", reference.sim_ms.size())
        .Count("setup_repeats", setup_s.size())
        .Number("timed_s", Seconds(phase.wall_ns));
    out.metrics.Metric("setup_s", Quantile(setup_s, 0.5), "s")
        .Metric("throughput_rps", phase.Rps(), "req/s");
    LatencyMetrics(out, phase);
    out.metrics.Metric("peak_rss_mb", rss_mb, "MB")
        .Metric("sim_p50_ms", Quantile(reference.sim_ms, 0.50), "ms")
        .Metric("sim_p99_ms", Quantile(reference.sim_ms, 0.99), "ms");
    return;
  }

  std::unique_ptr<Rig> rig = BuildRig(w, /*traced=*/false);
  const Phase untraced = TimedPhase(*rig->fleet, w, args.seconds / 2);
  CheckFleet(out, "untraced", *rig->fleet, reference.digest);
  rig.reset();

  rig = BuildRig(w, /*traced=*/true);
  Recorder::Get().set_active(true);
  const Phase traced = TimedPhase(*rig->fleet, w, args.seconds / 2);
  Recorder::Get().set_active(false);
  CheckFleet(out, "traced", *rig->fleet, reference.digest);
  const TrafficReport traffic = rig->fleet->Traffic(rig->service.get());
  out.info.Raw("traffic", TrafficJson(traffic).str());
  rig.reset();

  out.attempted = untraced.attempted + traced.attempted;
  out.failed = untraced.failed + traced.failed;
  out.Check("trace_written", Recorder::Get().WriteChromeTrace(args.trace_path));
  LayerBasis basis;
  basis.window_requests = static_cast<double>(window);
  basis.requests = static_cast<double>(traced.requests);
  basis.wall_ns = static_cast<double>(traced.wall_ns);
  basis.cpu_ns = static_cast<double>(traced.cpu_ns);
  basis.span_threads = w.threads;
  basis.busy_threads = w.threads + (w.service ? kServiceShards : 0);
  basis.untraced_rps = untraced.Rps();
  basis.traced_rps = traced.Rps();
  LayerMetrics(out.metrics, Recorder::Get().Harvest(), traffic, basis);
}

// --- replay ------------------------------------------------------------------

TrafficReport ReplayTraffic(const SimReport& report) {
  const auto per_kilo = [&](uint64_t count) {
    return 1000.0 * static_cast<double>(count) /
           static_cast<double>(report.invocations_total);
  };
  const PhysicalAccounting& physical = report.object_store.physical;
  TrafficReport t;
  t.requests = report.invocations_total;
  t.restore_pct = 100.0 * static_cast<double>(report.restores) /
                  static_cast<double>(report.worker_lifetimes);
  t.checkpoints_per_kreq = per_kilo(report.checkpoints);
  t.bytes_per_snapshot =
      report.object_store.put_count == 0
          ? 0.0
          : static_cast<double>(physical.flat_bytes_stored) /
                static_cast<double>(report.object_store.put_count -
                                    report.object_store.delete_count);
  t.chunks_per_snapshot = 1.0;
  t.dedup_ratio = physical.DedupRatio();
  t.resident_mb = static_cast<double>(physical.bytes_stored) / (1024.0 * 1024.0);
  t.cas_conflicts_per_kreq = per_kilo(report.faults.cas_conflicts);
  t.retries_per_kreq = per_kilo(report.faults.restore_retries +
                                report.faults.db_transient_retries);
  t.fallbacks_per_kreq = per_kilo(report.faults.restore_fallbacks);
  t.quarantines_per_kreq = per_kilo(report.faults.snapshots_quarantined);
  return t;
}

struct ReplayPhase {
  Phase phase;  // One Simulate call per slice.
  bool digests_repeat = true;
  std::optional<SimReport> first;  // The first call's report.
};

// Replays chunks 0, 1, ... cyclically until `seconds` have passed. Chunk 0's
// digest must equal `reference`; a chunk replayed again must repeat its digest.
ReplayPhase TimedReplay(Replay& replay, double seconds, uint32_t reference) {
  ReplayPhase out;
  Phase& phase = out.phase;
  phase.slices.resize(1);
  std::vector<std::optional<uint32_t>> digests(replay.chunks());
  digests[0] = reference;
  (void)LifecycleClock::Get().Take();
  const int64_t cpu_begin = CpuNs();
  const int64_t begin = NowNs();
  const int64_t deadline = begin + static_cast<int64_t>(seconds * 1e9);
  for (size_t i = 0;; ++i) {
    const size_t chunk = i % replay.chunks();
    replay.context().counted.store(i == 0, std::memory_order_relaxed);
    const int64_t chunk_begin = NowNs();
    Result<SimReport> report = replay.RunChunk(chunk, kReplayThreads, &LifecycleClock::Get());
    const int64_t now = NowNs();
    const CallLatencies latencies = LifecycleClock::Get().Take();
    const uint64_t requests = kReplayChunkFunctions * kReplayRequests;
    phase.attempted += requests;
    if (!report.ok()) {
      std::fprintf(stderr, "replay chunk %zu failed: %s\n", chunk,
                   report.status().ToString().c_str());
      phase.failed += requests;
    } else {
      phase.requests += report->invocations_total;
      phase.slices[0].push_back(
          SummarizeSlice(latencies, report->invocations_total, now - chunk_begin));
      if (!digests[chunk].has_value()) {
        digests[chunk] = report->Digest();
      }
      out.digests_repeat = out.digests_repeat && *digests[chunk] == report->Digest();
      if (i == 0) {
        out.first = *std::move(report);
      }
    }
    if (now >= deadline) {
      break;
    }
  }
  replay.context().counted.store(false, std::memory_order_relaxed);
  phase.wall_ns = NowNs() - begin;
  phase.cpu_ns = CpuNs() - cpu_begin;
  return out;
}

// Builds the fleet and replays chunk 0 once, so lazy set-up is paid here.
std::unique_ptr<Replay> BuildReplay(uint64_t seed, bool traced, uint32_t* digest) {
  auto replay = std::make_unique<Replay>(seed, traced);
  Result<SimReport> warm = replay->RunChunk(0, kReplayThreads, &LifecycleClock::Get());
  *digest = warm.ok() ? warm->Digest() : 0;
  return replay;
}

void RunReplay(const Args& args, RunOutput& out) {
  // Thread-count independence: the reference replays chunk 0 on one thread
  // with no sink; every other run of it uses kReplayThreads and the clock.
  const Result<SimReport> reference = Replay(args.seed, false).RunChunk(0, 1, nullptr);
  if (!reference.ok()) {
    std::fprintf(stderr, "reference replay failed: %s\n",
                 reference.status().ToString().c_str());
    out.Check("reference_replay", false);
    return;
  }
  const uint32_t reference_digest = reference->Digest();
  out.info.String("reference_digest", Hex(reference_digest));
  const uint32_t streams = ThreadPool::EffectiveParallelism(kReplayThreads);

  if (args.trace_path.empty()) {
    std::vector<double> setup_s;
    std::unique_ptr<Replay> replay;
    bool setups_match = true;
    while (MoreSetups(setup_s)) {
      replay.reset();
      const int64_t begin = NowNs();
      uint32_t digest = 0;
      replay = BuildReplay(args.seed, false, &digest);
      setup_s.push_back(Seconds(NowNs() - begin));
      setups_match = setups_match && digest == reference_digest;
    }
    const ReplayPhase run = TimedReplay(*replay, args.seconds, reference_digest);
    const double rss_mb = PeakRssMb();
    out.Check("setup_digest_matches_reference", setups_match);
    out.Check("run_digests_repeat", run.digests_repeat);
    out.attempted = run.phase.attempted;
    out.failed = run.phase.failed;
    out.info.Count("sim_samples", reference->latency_hist.count())
        .Count("setup_repeats", setup_s.size())
        .Count("threads", streams)
        .Number("timed_s", Seconds(run.phase.wall_ns));
    if (run.first.has_value()) {
      out.info.Raw("traffic", TrafficJson(ReplayTraffic(*run.first)).str());
    }
    out.metrics.Metric("setup_s", Quantile(setup_s, 0.5), "s")
        .Metric("throughput_rps", run.phase.Rps(), "req/s");
    LatencyMetrics(out, run.phase);
    out.metrics.Metric("peak_rss_mb", rss_mb, "MB")
        .Metric("sim_p50_ms", reference->latency_hist.Quantile(50) / 1e3, "ms")
        .Metric("sim_p99_ms", reference->latency_hist.Quantile(99) / 1e3, "ms");
    return;
  }

  uint32_t warm_digest = 0;
  std::unique_ptr<Replay> replay = BuildReplay(args.seed, false, &warm_digest);
  const ReplayPhase untraced = TimedReplay(*replay, args.seconds / 2, reference_digest);
  replay.reset();
  replay = BuildReplay(args.seed, true, &warm_digest);
  Recorder::Get().set_active(true);
  ReplayPhase traced = TimedReplay(*replay, args.seconds / 2, reference_digest);
  Recorder::Get().set_active(false);
  out.Check("untraced_digests_repeat", untraced.digests_repeat);
  out.Check("traced_digests_repeat", traced.digests_repeat);
  out.attempted = untraced.phase.attempted + traced.phase.attempted;
  out.failed = untraced.phase.failed + traced.phase.failed;
  out.Check("trace_written", Recorder::Get().WriteChromeTrace(args.trace_path));
  if (!traced.first.has_value()) {
    out.Check("traced_first_chunk", false);
    return;
  }
  const TrafficReport traffic = ReplayTraffic(*traced.first);
  out.info.Raw("traffic", TrafficJson(traffic).str());
  LayerBasis basis;
  basis.window_requests = static_cast<double>(traced.first->invocations_total);
  basis.requests = static_cast<double>(traced.phase.requests);
  basis.wall_ns = static_cast<double>(traced.phase.wall_ns);
  basis.cpu_ns = static_cast<double>(traced.phase.cpu_ns);
  basis.span_threads = streams;
  basis.busy_threads = streams;
  basis.untraced_rps = untraced.phase.Rps();
  basis.traced_rps = traced.phase.Rps();
  LayerMetrics(out.metrics, Recorder::Get().Harvest(), traffic, basis);
}

}  // namespace
}  // namespace pronghorn::bench

int main(int argc, char** argv) {
  using namespace pronghorn::bench;
  const std::optional<Args> args = ParseArgs(argc, argv);
  if (!args.has_value()) {
    return 2;
  }
  // Replay's injected faults make recovery warnings the expected case;
  // logging each one would time the terminal, not the system.
  pronghorn::SetLogLevel(pronghorn::LogLevel::kError);
  RunOutput out;
  if (args->workload == "replay") {
    RunReplay(*args, out);
  } else if (const auto w = FindDriverWorkload(args->workload, args->seed); w.has_value()) {
    RunDriver(*args, *w, out);
  } else {
    std::fprintf(stderr, "unknown workload '%s'\n", args->workload.c_str());
    return 2;
  }
  out.Print(*args);
  return 0;
}
