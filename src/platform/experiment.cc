#include "src/platform/experiment.h"

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <limits>
#include <type_traits>
#include <utility>

#include "src/common/flags.h"
#include "src/common/rng.h"
#include "src/common/thread_pool.h"
#include "src/core/baseline_policies.h"
#include "src/core/request_centric_policy.h"
#include "src/core/stop_condition_policy.h"

namespace pronghorn {

namespace {

constexpr int64_t kU32Max = std::numeric_limits<uint32_t>::max();
constexpr int64_t kI64Max = std::numeric_limits<int64_t>::max();
// Bounds that keep a typo from becoming a huge allocation or an overflowed
// simulated time.
constexpr int64_t kMaxFunctions = 10'000'000;
constexpr int64_t kMaxRequests = 1'000'000'000;
constexpr int64_t kMaxSlots = 1 << 16;
constexpr int64_t kMaxServiceShards = 256;
constexpr int64_t kMaxMillis = 1'000'000'000;
constexpr double kMaxSeconds = 1e9;

template <typename T>
std::string Field(const T& value) {
  if constexpr (std::is_same_v<T, Duration> || std::is_same_v<T, TimePoint>) {
    return std::to_string(value.ToMicros());
  } else if constexpr (std::is_enum_v<T>) {
    return std::to_string(static_cast<int64_t>(value));
  } else if constexpr (std::is_floating_point_v<T>) {
    char text[32];
    const auto result = std::to_chars(text, text + sizeof(text), value);
    return std::string(text, result.ptr);  // Shortest exact round trip.
  } else {
    return std::to_string(value);
  }
}

// "a,b,c," — every field as exact text.
template <typename... T>
std::string Canon(const T&... fields) {
  std::string out;
  ((out += Field(fields), out += ','), ...);
  return out;
}

std::string WindowsText(const std::vector<FaultWindow>& windows,
                        FaultWindow::Kind kind) {
  std::string out;
  for (const FaultWindow& w : windows) {
    if (w.kind == kind) {
      out += Canon(w.domain, w.start, w.end, w.extra_latency) + ';';
    }
  }
  return out;
}

std::string PolicyText(const OrchestrationPolicy& policy) {
  const PolicyConfig& c = policy.config();
  std::string out = std::string(policy.name()) + ':' +
                    Canon(c.beta, c.pool_capacity, c.max_checkpoint_request, c.alpha,
                          c.retain_top_percent, c.retain_random_percent, c.mu,
                          c.softmax_temperature);
  if (const auto* stop = dynamic_cast<const StopConditionPolicy*>(&policy)) {
    out += Canon(stop->explore_requests()) + '(' + PolicyText(stop->inner()) + ')';
  }
  return out;
}

// A field added to one of these structs must join its canonical text below
// (and so the fingerprint); the size check makes that impossible to miss.
static_assert(sizeof(PolicyConfig) == 56, "hash the new field in PolicyText");
static_assert(sizeof(RecoveryOptions) == 56, "hash the new field in LibraryOnlyText");
static_assert(sizeof(LifecycleOptions) == 16, "hash the new field in LibraryOnlyText");
static_assert(sizeof(OrchestratorCostModel) == 40, "hash the new field in LibraryOnlyText");
static_assert(sizeof(FaultWindow) == 32, "hash the new field in WindowsText");

// The SimOptions inputs no flag sets. Library callers change them, and they
// change digests, so they are identity like any kOptions row.
std::string LibraryOnlyText(const SimOptions& o) {
  const RecoveryOptions& r = o.recovery;
  const LifecycleOptions& l = o.lifecycle;
  const OrchestratorCostModel& c = o.costs;
  return Canon(r.max_transient_retries, r.backoff_base, r.backoff_multiplier, r.backoff_cap,
               r.max_restore_candidates, r.quarantine_threshold, r.max_buffered_observations) +
         Canon(l.startup_on_critical_path, l.checkpoint_blocks_requests, l.idle_resource_hold) +
         Canon(c.db_read_latency, c.db_write_latency, c.decision_base_cost,
               c.decision_per_snapshot_cost, c.object_store_mb_per_sec);
}

using Text = std::string_view;

// Parses `text` into `out` within [min, max]; by default, within the range
// of T, so the value never narrows.
template <typename T>
Status ParseInto(Text text, T& out, int64_t min = 0,
                 int64_t max = static_cast<int64_t>(
                     std::min<uint64_t>(std::numeric_limits<T>::max(), kI64Max))) {
  PRONGHORN_ASSIGN_OR_RETURN(const int64_t value, ParseInt(text, min, max));
  out = static_cast<T>(value);
  return OkStatus();
}

Status ParseRate(Text text, double& out) {
  PRONGHORN_ASSIGN_OR_RETURN(out, ParseNumber(text, 0.0, 1.0));
  return OkStatus();
}

template <typename T, typename V>
Status Set(T& field, V&& value) {
  field = std::forward<V>(value);
  return OkStatus();
}

bool On(Text text) { return text == "true"; }

// The index of `text` among `choices`.
Result<size_t> ParseChoice(Text text, std::initializer_list<Text> choices) {
  std::string list;
  for (size_t i = 0; i < choices.size(); ++i) {
    if (choices.begin()[i] == text) {
      return i;
    }
    list += (i == 0 ? "" : " | ") + std::string(choices.begin()[i]);
  }
  return InvalidArgumentError("unknown value '" + std::string(text) + "' (expected " +
                              list + ")");
}

// The grammar of every comma-separated list flag: empty items are skipped,
// and each item splits at ':' into exactly as many fields as `shape` has.
template <typename Fn>
Status ForEachItem(Text spec, Text shape, Fn&& fn) {
  const size_t arity = Split(shape, ':').size();
  for (const Text item : Split(spec, ',')) {
    const std::vector<Text> fields = Split(item, ':');
    if (item.empty()) {
      continue;
    }
    if (fields.size() != arity) {
      return InvalidArgumentError("expected '" + std::string(shape) + "', got '" +
                                  std::string(item) + "'");
    }
    PRONGHORN_RETURN_IF_ERROR(fn(fields));
  }
  return OkStatus();
}

// Appends the window "start:end" (simulated seconds).
Status AddWindow(Text start_text, Text end_text, FaultWindow window,
                 std::vector<FaultWindow>& windows) {
  PRONGHORN_ASSIGN_OR_RETURN(const double start, ParseNumber(start_text, 0, kMaxSeconds));
  PRONGHORN_ASSIGN_OR_RETURN(const double end, ParseNumber(end_text, 0, kMaxSeconds));
  if (end <= start) {
    return InvalidArgumentError("window end must be after start");
  }
  window.start = TimePoint() + Duration::Seconds(start);
  window.end = TimePoint() + Duration::Seconds(end);
  windows.push_back(window);
  return OkStatus();
}

// k | geometric:<mean> | idle:<seconds>. Every deployment instantiates its
// own model from its sub-seed inside Simulate().
Status ParseEviction(Text spec, Experiment& e) {
  FleetEvictionSpec& eviction = e.sim.eviction;
  e.eviction = std::string(spec);
  if (spec.starts_with("geometric:")) {
    eviction.kind = FleetEvictionSpec::Kind::kGeometric;
    PRONGHORN_ASSIGN_OR_RETURN(eviction.mean_requests,
                               ParseNumber(spec.substr(10), 1.0, kMaxSeconds));
    return OkStatus();
  }
  if (spec.starts_with("idle:")) {
    eviction.kind = FleetEvictionSpec::Kind::kIdleTimeout;
    PRONGHORN_ASSIGN_OR_RETURN(const double seconds,
                               ParseNumber(spec.substr(5), 1e-6, kMaxSeconds));
    eviction.idle_timeout = Duration::Seconds(seconds);
    return OkStatus();
  }
  eviction.kind = FleetEvictionSpec::Kind::kEveryK;
  return ParseInto(spec, eviction.k, 1, kU32Max);
}

Status ParseTopology(Text text, SimTopology topology, Experiment& e) {
  uint64_t count = 0;
  PRONGHORN_RETURN_IF_ERROR(ParseInto(text, count, 0, kMaxFunctions));
  if (count > 0) {
    if (e.topology != SimTopology::kSingle) {
      return InvalidArgumentError("--fleet and --platform are mutually exclusive");
    }
    e.topology = topology;
    e.functions = count;
  }
  return OkStatus();
}

using Role = FingerprintRole;

constexpr Text kScheduling = "scheduling only: every fleet RNG substream keys off (seed, "
                             "name), so results are bit-identical at any thread count or pinning";
constexpr Text kServiceNeutral = "digest-neutral: simulation clients are synchronous, so the "
                                 "service runs the same operations in the same order "
                                 "(service_equivalence_test)";
constexpr Text kServiceFaultNeutral = "digest-neutral: simulation clients never defer an "
                                      "observation, so crashes, stalls and sheds change no "
                                      "outcome (service_crash_test)";
constexpr Text kCheckpointKnob = "configures the checkpoint itself";
constexpr Text kOutput = "an output: Simulate() never reads it";
constexpr Text kAction = "prints and exits before any run";

// Rows leave unused members to their initializers; GCC before 14 warns about
// that even for designated initializers.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmissing-field-initializers"
const ExperimentParam kTable[] = {
    {.name = "benchmark", .default_value = "DynamicHTML", .help = "workload name (see --list)",
     .scope = kSingleRun, .role = Role::kSpecs,
     .parse = [](Text t, Experiment& e) { return Set(e.benchmark, std::string(t)); }},
    {.name = "policy", .default_value = "request-centric",
     .help = "cold | after-first | request-centric | stop-condition", .role = Role::kSpecs,
     .parse = [](Text t, Experiment& e) {
       PRONGHORN_RETURN_IF_ERROR(
           ParseChoice(t, {"cold", "after-first", "request-centric", "stop-condition"})
               .status());
       return Set(e.policy, std::string(t));
     }},
    {.name = "eviction", .default_value = "1", .help = "k | geometric:<mean> | idle:<seconds>",
     .parse = ParseEviction,
     .canonical = [](const SimOptions& o) {
       const FleetEvictionSpec& v = o.eviction;
       return Canon(v.kind, v.k, v.mean_requests, v.idle_timeout);
     }},
    {.name = "requests", .default_value = "500",
     .help = "number of invocations (per function in fleet mode)", .role = Role::kSpecs,
     .parse = [](Text t, Experiment& e) { return ParseInto(t, e.requests, 1, kMaxRequests); }},
    {.name = "seed", .default_value = "42", .help = "experiment seed",
     .parse = [](Text t, Experiment& e) {
       PRONGHORN_RETURN_IF_ERROR(ParseInto(t, e.sim.seed, INT64_MIN, kI64Max));
       return Set(e.sim.retention.seed, e.sim.seed);
     },
     .canonical = [](const SimOptions& o) { return Canon(o.seed); }},
    {.name = "beta", .default_value = "0", .help = "policy beta (0 = derive from eviction k)",
     .role = Role::kSpecs,
     .parse = [](Text t, Experiment& e) { return ParseInto(t, e.beta); }},
    {.name = "pool", .default_value = "12", .help = "snapshot pool capacity C",
     .role = Role::kSpecs,
     .parse = [](Text t, Experiment& e) { return ParseInto(t, e.pool_capacity, 1); }},
    {.name = "w", .default_value = "0", .help = "max checkpoint request W (0 = per-family default)",
     .role = Role::kSpecs,
     .parse = [](Text t, Experiment& e) { return ParseInto(t, e.max_checkpoint_request); }},
    {.name = "explore-budget", .default_value = "0",
     .help = "stop-condition: freeze after this many requests (0 = W+100)", .role = Role::kSpecs,
     .parse = [](Text t, Experiment& e) { return ParseInto(t, e.explore_budget); }},
    {.name = "engine", .default_value = "criu", .help = "checkpoint engine: criu | delta",
     .parse = [](Text t, Experiment& e) {
       PRONGHORN_ASSIGN_OR_RETURN(const size_t engine, ParseChoice(t, {"criu", "delta"}));
       return Set(e.sim.engine_kind, engine == 0 ? EngineKind::kCriuLike : EngineKind::kDelta);
     },
     .canonical = [](const SimOptions& o) { return Canon(o.engine_kind); }},
    {.name = "fleet", .default_value = "0",
     .help = "deploy this many functions (cycling the evaluation set) and run them as parallel "
             "shards; 0 = single-function mode",
     .role = Role::kSpecs,
     .parse = [](Text t, Experiment& e) { return ParseTopology(t, SimTopology::kFleet, e); }},
    {.name = "platform", .default_value = "0",
     .help = "deploy this many evaluation functions into one shared control plane and run a "
             "closed loop; 0 = single-function mode",
     .role = Role::kSpecs,
     .parse = [](Text t, Experiment& e) { return ParseTopology(t, SimTopology::kPlatform, e); }},
    {.name = "threads", .default_value = "0",
     .help = "fleet shard threads (0 = hardware concurrency); results are bit-identical for any "
             "value",
     .scope = kFleetRun, .role = Role::kExcluded, .why = kScheduling,
     .parse = [](Text t, Experiment& e) {
       return ParseInto(t, e.sim.threads, 0, ThreadPool::kMaxThreads);
     }},
    {.name = "pin-threads", .is_switch = true,
     .help = "pin fleet shard threads to cores (Linux; scheduling-only, results are "
             "bit-identical with or without)",
     .scope = kFleetRun, .role = Role::kExcluded, .why = kScheduling,
     .parse = [](Text t, Experiment& e) { return Set(e.sim.pin_threads, On(t)); }},
    {.name = "slots", .default_value = "4", .help = "fleet: worker slots per function",
     .scope = kFleetRun,
     .parse = [](Text t, Experiment& e) { return ParseInto(t, e.sim.worker_slots, 1, kMaxSlots); },
     .canonical = [](const SimOptions& o) { return Canon(o.worker_slots); }},
    {.name = "exploring", .default_value = "1", .help = "fleet: exploring slots per function",
     .scope = kFleetRun,
     .parse = [](Text t, Experiment& e) {
       return ParseInto(t, e.sim.exploring_slots, 0, kMaxSlots);
     },
     .canonical = [](const SimOptions& o) { return Canon(o.exploring_slots); }},
    {.name = "csv", .help = "write per-request records to this CSV file",
     .scope = kSingleRun | kFleetRun, .role = Role::kExcluded, .why = kOutput,
     .parse = [](Text t, Experiment& e) { return Set(e.outputs.csv, std::string(t)); }},
    {.name = "summary-csv",
     .help = "single mode: write key,value summary (incl. fault/recovery counters) to this CSV "
             "file",
     .scope = kSingleRun, .role = Role::kExcluded, .why = kOutput,
     .parse = [](Text t, Experiment& e) { return Set(e.outputs.summary_csv, std::string(t)); }},
    {.name = "trace-out",
     .help = "write worker-lifecycle spans as Chrome trace JSON to this file (open in "
             "chrome://tracing)",
     .role = Role::kExcluded, .why = kOutput,
     .parse = [](Text t, Experiment& e) { return Set(e.outputs.trace_out, std::string(t)); }},
    {.name = "metrics-out", .help = "write counters/gauges/histograms as JSON to this file",
     .role = Role::kExcluded, .why = kOutput,
     .parse = [](Text t, Experiment& e) { return Set(e.outputs.metrics_out, std::string(t)); }},
    {.name = "fault-rate", .default_value = "0",
     .help = "transient failure probability per store/db op, in [0,1]",
     .parse = [](Text t, Experiment& e) {
       FaultPlan& f = e.sim.faults;
       PRONGHORN_RETURN_IF_ERROR(ParseRate(t, f.get_failure_rate));
       f.put_failure_rate = f.delete_failure_rate = f.get_failure_rate;
       return Set(f.metadata_failure_rate, f.get_failure_rate);
     },
     .canonical = [](const SimOptions& o) {
       const FaultPlan& f = o.faults;
       return Canon(f.get_failure_rate, f.put_failure_rate, f.delete_failure_rate,
                    f.metadata_failure_rate);
     }},
    {.name = "fault-corrupt", .default_value = "0",
     .help = "probability a stored blob gets one bit flipped, in [0,1]",
     .parse = [](Text t, Experiment& e) { return ParseRate(t, e.sim.faults.corruption_rate); },
     .canonical = [](const SimOptions& o) { return Canon(o.faults.corruption_rate); }},
    {.name = "fault-torn", .default_value = "0",
     .help = "probability a put is torn (half-written + failed), in [0,1]",
     .parse = [](Text t, Experiment& e) { return ParseRate(t, e.sim.faults.torn_write_rate); },
     .canonical = [](const SimOptions& o) { return Canon(o.faults.torn_write_rate); }},
    {.name = "fault-outage",
     .help = "outage windows 'start:end[@store|db]' in seconds, comma-separated",
     .parse = [](Text t, Experiment& e) {
       return ForEachItem(t, "start:end[@store|db]", [&](const auto& f) -> Status {
         FaultWindow window;  // kOutage over both domains unless '@' narrows it.
         const size_t at = f[1].find('@');
         if (at != Text::npos) {
           PRONGHORN_ASSIGN_OR_RETURN(const size_t domain,
                                      ParseChoice(f[1].substr(at + 1), {"store", "db"}));
           window.domain = domain == 0 ? FaultDomain::kObjectStore : FaultDomain::kDatabase;
         }
         return AddWindow(f[0], f[1].substr(0, at), window, e.sim.faults.windows);
       });
     },
     .canonical = [](const SimOptions& o) {
       return WindowsText(o.faults.windows, FaultWindow::Kind::kOutage);
     }},
    {.name = "fault-latency",
     .help = "latency spikes 'start:end:ms' (seconds, extra ms), comma-separated",
     .parse = [](Text t, Experiment& e) {
       return ForEachItem(t, "start:end:ms", [&](const auto& f) -> Status {
         PRONGHORN_ASSIGN_OR_RETURN(const double ms,
                                    ParseNumber(f[2], 1e-9, static_cast<double>(kMaxMillis)));
         FaultWindow window;
         window.kind = FaultWindow::Kind::kLatency;
         window.extra_latency = Duration::Millis(static_cast<int64_t>(ms));
         return AddWindow(f[0], f[1], window, e.sim.faults.windows);
       });
     },
     .canonical = [](const SimOptions& o) {
       return WindowsText(o.faults.windows, FaultWindow::Kind::kLatency);
     }},
    {.name = "fault-seed", .default_value = "0", .help = "extra seed folded into the fault streams",
     .parse = [](Text t, Experiment& e) {
       return ParseInto(t, e.sim.faults.seed, INT64_MIN, kI64Max);
     },
     .canonical = [](const SimOptions& o) { return Canon(o.faults.seed); }},
    {.name = "fault-chunk-corrupt", .default_value = "0",
     .help = "dedup store: probability a stored chunk gets one bit flipped after a successful "
             "put, in [0,1]",
     .scope = kEveryRun | kDedupOnly,
     .parse = [](Text t, Experiment& e) {
       return ParseRate(t, e.sim.faults.chunk_corruption_rate);
     },
     .canonical = [](const SimOptions& o) { return Canon(o.faults.chunk_corruption_rate); }},
    {.name = "fault-manifest-corrupt", .default_value = "0",
     .help = "dedup store: probability a snapshot manifest gets one bit flipped after a "
             "successful put, in [0,1]",
     .scope = kEveryRun | kDedupOnly,
     .parse = [](Text t, Experiment& e) {
       return ParseRate(t, e.sim.faults.manifest_corruption_rate);
     },
     .canonical = [](const SimOptions& o) { return Canon(o.faults.manifest_corruption_rate); }},
    // The store build is digest-neutral, but it decides the physical
    // accounting a resumed frame carries (--summary-csv store_* columns).
    {.name = "store", .default_value = "flat",
     .help = "snapshot store build: flat (one whole-blob object per snapshot) | dedup "
             "(content-addressed chunks; digests are bit-identical either way)",
     .parse = [](Text t, Experiment& e) {
       // In SnapshotStoreOptions::Kind order.
       PRONGHORN_ASSIGN_OR_RETURN(const size_t store, ParseChoice(t, {"flat", "dedup"}));
       return Set(e.sim.store.kind, static_cast<SnapshotStoreOptions::Kind>(store));
     },
     .canonical = [](const SimOptions& o) { return Canon(o.store.kind); }},
    {.name = "chunk-size", .default_value = "4096",
     .help = "dedup store: fixed cut size / CDC target average, in bytes",
     .scope = kEveryRun | kDedupOnly,
     .parse = [](Text t, Experiment& e) {
       ChunkerOptions& chunker = e.sim.store.chunker;
       PRONGHORN_RETURN_IF_ERROR(ParseInto(t, chunker.chunk_size, 64, 64 << 20));
       chunker.min_size = std::max<uint32_t>(64, chunker.chunk_size / 4);
       return Set(chunker.max_size, chunker.chunk_size * 4);
     },
     .canonical = [](const SimOptions& o) {
       const ChunkerOptions& c = o.store.chunker;
       return Canon(c.chunk_size, c.min_size, c.max_size);
     }},
    {.name = "cdc", .is_switch = true,
     .help = "dedup store: content-defined chunk boundaries (Gear rolling hash) instead of "
             "fixed-size cuts",
     .scope = kEveryRun | kDedupOnly,
     .parse = [](Text t, Experiment& e) { return Set(e.sim.store.chunker.cdc, On(t)); },
     .canonical = [](const SimOptions& o) { return Canon(o.store.chunker.cdc); }},
    {.name = "lazy-restore", .is_switch = true,
     .help = "dedup store: record-then-prefetch restores (REAP-style); digest-neutral, changes "
             "only physical fetch counters",
     .scope = kEveryRun | kDedupOnly,
     .parse = [](Text t, Experiment& e) { return Set(e.sim.store.lazy_restore, On(t)); },
     .canonical = [](const SimOptions& o) {
       return Canon(o.store.lazy_restore, o.store.chunk_cache_bytes);
     }},
    {.name = "service", .is_switch = true,
     .help = "run the live orchestrator service: all worker-lifecycle operations go over its "
             "wire format (digest-neutral)",
     .role = Role::kExcluded, .why = kServiceNeutral,
     .parse = [](Text t, Experiment& e) { return Set(e.sim.service.enabled, On(t)); }},
    {.name = "service-shards", .default_value = "4", .help = "service mode: shard threads",
     .scope = kEveryRun | kServiceOnly, .role = Role::kExcluded, .why = kServiceNeutral,
     .parse = [](Text t, Experiment& e) {
       return ParseInto(t, e.sim.service.shards, 1, kMaxServiceShards);
     }},
    {.name = "service-batch", .default_value = "16",
     .help = "service mode: deferred observations per group-commit batch",
     .scope = kEveryRun | kServiceOnly, .role = Role::kExcluded, .why = kServiceNeutral,
     .parse = [](Text t, Experiment& e) { return ParseInto(t, e.sim.service.max_batch, 1); }},
    {.name = "flush-interval", .default_value = "5",
     .help = "service mode: max simulated-time age (ms) of a deferred observation before its "
             "batch flushes",
     .scope = kEveryRun | kServiceOnly, .role = Role::kExcluded, .why = kServiceNeutral,
     .parse = [](Text t, Experiment& e) {
       PRONGHORN_ASSIGN_OR_RETURN(const int64_t ms, ParseInt(t, 0, kMaxMillis));
       return Set(e.sim.service.flush_interval, Duration::Millis(ms));
     }},
    // Identity, though only as on/off: a journaled Bind reads the commit
    // high-water mark, and the Database read accounting is digest-covered.
    {.name = "journal-dir",
     .help = "service mode: directory for per-slot write-ahead observation journals (created "
             "if missing; empty disables journaling)",
     .scope = kEveryRun | kServiceOnly,
     .parse = [](Text t, Experiment& e) { return Set(e.sim.service.journal_dir, std::string(t)); },
     .canonical = [](const SimOptions& o) {
       return Canon(o.service.enabled && !o.service.journal_dir.empty());
     }},
    {.name = "shed-deadline", .default_value = "0",
     .help = "service mode: host-time budget (ms) for enqueueing a start decision before it is "
             "shed with kResourceExhausted; 0 blocks",
     .scope = kEveryRun | kServiceOnly, .role = Role::kExcluded, .why = kServiceFaultNeutral,
     .parse = [](Text t, Experiment& e) { return ParseInto(t, e.sim.service.shed_deadline_ms); }},
    {.name = "crash-plan",
     .help = "service mode: scheduled shard crashes 'shard:op:stage', comma-separated; stage is "
             "enqueue, mid-batch, or pre-truncate (errors if a named shard does not exist)",
     .scope = kEveryRun | kServiceOnly, .role = Role::kExcluded, .why = kServiceFaultNeutral,
     .parse = [](Text t, Experiment& e) {
       return ForEachItem(t, "shard:op:stage", [&](const auto& f) -> Status {
         ServiceCrash crash;
         PRONGHORN_RETURN_IF_ERROR(ParseInto(f[0], crash.shard));
         PRONGHORN_RETURN_IF_ERROR(ParseInto(f[1], crash.at_op, 1));  // 1-based.
         // Stage names in ServiceCrashStage order.
         PRONGHORN_ASSIGN_OR_RETURN(const size_t stage,
                                    ParseChoice(f[2], {"enqueue", "mid-batch", "pre-truncate"}));
         crash.stage = static_cast<ServiceCrashStage>(stage);
         e.sim.faults.service.crashes.push_back(crash);
         return OkStatus();
       });
     }},
    {.name = "stall-plan",
     .help = "service mode: scheduled shard stalls 'shard:op:wall_ms', comma-separated",
     .scope = kEveryRun | kServiceOnly, .role = Role::kExcluded, .why = kServiceFaultNeutral,
     .parse = [](Text t, Experiment& e) {
       return ForEachItem(t, "shard:op:wall_ms", [&](const auto& f) -> Status {
         ServiceStall stall;
         PRONGHORN_RETURN_IF_ERROR(ParseInto(f[0], stall.shard));
         PRONGHORN_RETURN_IF_ERROR(ParseInto(f[1], stall.at_op, 1));
         PRONGHORN_RETURN_IF_ERROR(ParseInto(f[2], stall.wall_millis, 1));
         e.sim.faults.service.stalls.push_back(stall);
         return OkStatus();
       });
     }},
    {.name = "retention", .default_value = "all",
     .help = "fleet mode: per-function detail kept in the merged report — all (bit-identical to "
             "collect-then-merge) | top-latency (K slowest by median) | reservoir "
             "(deterministic K-sample); digests cover ALL functions in every mode",
     .scope = kFleetRun,
     .parse = [](Text t, Experiment& e) {
       PRONGHORN_ASSIGN_OR_RETURN(e.sim.retention.mode, ParseRetention(t));
       return OkStatus();
     },
     .canonical = [](const SimOptions& o) { return Canon(o.retention.mode, o.retention.seed); }},
    {.name = "retention-k", .default_value = "64",
     .help = "fleet mode: per-function reports kept under a bounded --retention mode",
     .scope = kFleetRun,
     .parse = [](Text t, Experiment& e) { return ParseInto(t, e.sim.retention.k, 1); },
     .canonical = [](const SimOptions& o) { return Canon(o.retention.k); }},
    {.name = "arrival-mix", .default_value = "steady",
     .help = "fleet mode: request-volume mix across deployments — steady (homogeneous) | "
             "diurnal | bursty | multi-tenant",
     .scope = kFleetRun, .role = Role::kSpecs,
     .parse = [](Text t, Experiment& e) {
       PRONGHORN_ASSIGN_OR_RETURN(e.arrival_mix, ParseArrivalMix(t));
       return OkStatus();
     }},
    {.name = "sim-checkpoint-dir",
     .help = "write crash-consistent simulation checkpoints to this directory (created if "
             "missing; empty disables)",
     .role = Role::kExcluded, .why = kCheckpointKnob,
     .parse = [](Text t, Experiment& e) { return Set(e.sim.sim_checkpoint.dir, std::string(t)); }},
    {.name = "sim-checkpoint-every", .default_value = "1",
     .help = "fleet mode: completed deployments between checkpoint frames",
     .scope = kFleetRun, .role = Role::kExcluded, .why = kCheckpointKnob,
     .parse = [](Text t, Experiment& e) { return ParseInto(t, e.sim.sim_checkpoint.every, 1); }},
    {.name = "resume", .is_switch = true,
     .help = "resume from the checkpoint in --sim-checkpoint-dir (same experiment only; digest "
             "matches an uninterrupted run)",
     .role = Role::kExcluded, .why = kCheckpointKnob,
     .parse = [](Text t, Experiment& e) { return Set(e.sim.sim_checkpoint.resume, On(t)); }},
    {.name = "histogram", .is_switch = true, .help = "print latency histograms to stdout",
     .role = Role::kExcluded, .why = kOutput,
     .parse = [](Text t, Experiment& e) { return Set(e.outputs.histogram, On(t)); }},
    {.name = "no-noise", .is_switch = true, .help = "disable client input-size noise",
     .parse = [](Text t, Experiment& e) { return Set(e.sim.input_noise, !On(t)); },
     .canonical = [](const SimOptions& o) { return Canon(o.input_noise); }},
    {.name = "no-state-cache", .is_switch = true,
     .help = "disable the decoded policy-state cache (digest-neutral)", .role = Role::kExcluded,
     .why = "CPU only: the decoded policy-state cache is digest-neutral "
            "(hot_path_equivalence_test)",
     .parse = [](Text t, Experiment& e) { return Set(e.sim.state_cache, !On(t)); }},
    {.name = "list", .is_switch = true, .help = "list benchmarks and exit",
     .role = Role::kExcluded, .why = kAction,
     .parse = [](Text t, Experiment& e) { return Set(e.outputs.list, On(t)); }},
    {.name = "help", .is_switch = true, .help = "show usage", .role = Role::kExcluded,
     .why = kAction,
     .parse = [](Text t, Experiment& e) { return Set(e.outputs.help, On(t)); }},
};
#pragma GCC diagnostic pop

FlagParser DeclareFlags() {
  FlagParser flags;
  for (const ExperimentParam& param : kTable) {
    if (param.is_switch) {
      flags.AddSwitch(std::string(param.name), std::string(param.help));
    } else {
      flags.AddFlag(std::string(param.name), std::string(param.default_value),
                    std::string(param.help));
    }
  }
  return flags;
}

// Scales one fleet deployment's closed-loop request count by how much busier
// or quieter the arrival mix says it is than the model's median function.
// Deterministic in (mix, seed, index, count); the scale is clamped to
// [1/8, 8]x so a 99th-percentile tenant cannot swamp the run.
uint64_t MixScaledRequests(uint64_t requests, ArrivalMix mix, uint64_t seed,
                           uint64_t index, uint64_t count) {
  if (mix == ArrivalMix::kSteady) {
    return requests;  // Homogeneous: the historical default, digest-stable.
  }
  const AzureTraceModel model;
  const FunctionArrivalSpec arrival = ArrivalSpecFor(mix, seed, index, count);
  const Result<double> daily = model.DailyInvocationsAtPercentile(arrival.percentile);
  const Result<double> median = model.DailyInvocationsAtPercentile(50.0);
  if (!daily.ok() || !median.ok() || *median <= 0.0) {
    return requests;
  }
  const double scale = std::clamp(*daily / *median, 0.125, 8.0);
  const double scaled = static_cast<double>(requests) * scale;
  return std::max<uint64_t>(1, static_cast<uint64_t>(scaled));
}

// Appends the experiment's policy for one deployment (a stop-condition
// policy after the request-centric policy it wraps) and returns it.
Result<const OrchestrationPolicy*> AddPolicy(
    const Experiment& experiment, const PolicyConfig& config,
    std::vector<std::unique_ptr<OrchestrationPolicy>>& policies) {
  const std::string& name = experiment.policy;
  if (name == "cold") {
    policies.push_back(std::make_unique<ColdStartPolicy>(config));
  } else if (name == "after-first") {
    policies.push_back(std::make_unique<CheckpointAfterFirstPolicy>(config));
  } else {
    PRONGHORN_ASSIGN_OR_RETURN(auto rc, RequestCentricPolicy::Create(config));
    policies.push_back(std::make_unique<RequestCentricPolicy>(std::move(rc)));
    if (name == "stop-condition") {
      const uint64_t budget = experiment.explore_budget != 0
                                  ? experiment.explore_budget
                                  : config.max_checkpoint_request + 100;  // The paper's bound.
      policies.push_back(std::make_unique<StopConditionPolicy>(*policies.back(), budget));
    }
  }
  return policies.back().get();
}

}  // namespace

std::span<const ExperimentParam> ExperimentTable() { return kTable; }

std::string ExperimentUsage(std::string_view program) {
  return DeclareFlags().UsageText(program);
}

Result<Experiment> ParseExperiment(int argc, const char* const* argv) {
  FlagParser flags = DeclareFlags();
  PRONGHORN_RETURN_IF_ERROR(flags.Parse(argc, argv));
  if (!flags.positional().empty()) {
    // Every input is a flag; a stray positional is a value that lost its
    // `--name`, and must not be ignored.
    return InvalidArgumentError("unexpected argument '" + flags.positional().front() + "'");
  }
  Experiment e;
  std::vector<const ExperimentParam*> given;  // Rows set to a non-default value.
  for (const ExperimentParam& param : kTable) {
    PRONGHORN_ASSIGN_OR_RETURN(const std::string text, flags.GetString(param.name));
    if (Status s = param.parse(text, e); !s.ok()) {
      return InvalidArgumentError("--" + std::string(param.name) + ": " + s.message());
    }
    if (text != (param.is_switch ? "false" : param.default_value)) {
      given.push_back(&param);
    }
  }
  if (e.outputs.help || e.outputs.list) {
    return e;
  }

  // A value the run would ignore is a typo or a misunderstanding, not a
  // measurement: refuse it rather than run without it.
  const bool fleet = e.topology == SimTopology::kFleet;
  const bool platform = e.topology == SimTopology::kPlatform;
  const uint8_t run = fleet ? kFleetRun : platform ? kPlatformRun : kSingleRun;
  const char* run_name = fleet ? "--fleet" : platform ? "--platform" : "single-function";
  for (const ExperimentParam* param : given) {
    const std::string flag = "--" + std::string(param->name);
    if ((param->scope & run) == 0) {
      return InvalidArgumentError(flag + " does not apply to " + run_name + " runs");
    }
    if ((param->scope & kDedupOnly) != 0 &&
        e.sim.store.kind != SnapshotStoreOptions::Kind::kDedup) {
      return InvalidArgumentError(flag + " requires --store=dedup");
    }
    if ((param->scope & kServiceOnly) != 0 && !e.sim.service.enabled) {
      return InvalidArgumentError(flag + " requires --service");
    }
  }
  // A fault that can never fire is a typo, not chaos.
  const ServiceFaultPlan& service_faults = e.sim.faults.service;
  if (service_faults.Active() && service_faults.MaxShardNamed() >= e.sim.service.shards) {
    return InvalidArgumentError(
        "crash/stall plan names shard " + std::to_string(service_faults.MaxShardNamed()) +
        " but the service only has " + std::to_string(e.sim.service.shards) +
        " shards (0-" + std::to_string(e.sim.service.shards - 1) + ")");
  }
  if (e.sim.sim_checkpoint.resume && !e.sim.sim_checkpoint.enabled()) {
    return InvalidArgumentError("--resume requires --sim-checkpoint-dir");
  }
  if (e.topology == SimTopology::kSingle) {
    // The paper's single-function setup: one worker slot.
    e.sim.worker_slots = 1;
    e.sim.exploring_slots = 1;
  }
  return e;
}

Result<Deployments> BuildDeployments(const Experiment& experiment,
                                     const WorkloadRegistry& registry) {
  std::vector<const WorkloadProfile*> profiles;
  uint64_t count = experiment.functions;
  if (experiment.topology == SimTopology::kSingle) {
    PRONGHORN_ASSIGN_OR_RETURN(const WorkloadProfile* profile,
                               registry.Find(experiment.benchmark));
    profiles.push_back(profile);
    count = 1;
  } else {
    profiles = registry.EvaluationSet();
    if (experiment.topology == SimTopology::kPlatform && count > profiles.size()) {
      // Platform deployments are keyed by profile name, so each evaluation
      // function can be deployed at most once.
      return InvalidArgumentError(
          "--platform must be <= " + std::to_string(profiles.size()) +
          " (the evaluation set; deployments are keyed by function name)");
    }
  }
  const FleetEvictionSpec& eviction = experiment.sim.eviction;
  const uint32_t derived_beta =
      eviction.kind == FleetEvictionSpec::Kind::kEveryK ? static_cast<uint32_t>(eviction.k) : 4;

  Deployments out;
  out.specs.reserve(count);
  for (uint64_t i = 0; i < count; ++i) {
    const WorkloadProfile& profile = *profiles[i % profiles.size()];
    PolicyConfig config;
    config.beta = experiment.beta != 0 ? experiment.beta : derived_beta;
    config.pool_capacity = experiment.pool_capacity;
    config.max_checkpoint_request = experiment.max_checkpoint_request;
    if (config.max_checkpoint_request == 0) {
      config.max_checkpoint_request = profile.family == RuntimeFamily::kJvm ? 200 : 100;
    }
    if (Status s = config.Validate(); !s.ok()) {
      return InvalidArgumentError("--beta/--pool/--w: " + s.message());
    }

    SimFunctionSpec spec;
    PRONGHORN_ASSIGN_OR_RETURN(spec.policy, AddPolicy(experiment, config, out.policies));
    spec.profile = &profile;
    spec.requests = experiment.requests;
    if (experiment.topology == SimTopology::kSingle) {
      spec.name = experiment.benchmark;
    } else if (experiment.topology == SimTopology::kPlatform) {
      spec.name = profile.name;
    } else {
      char name[64];
      std::snprintf(name, sizeof(name), "f%04llu-%s", static_cast<unsigned long long>(i),
                    profile.name.c_str());
      spec.name = name;
      spec.requests = MixScaledRequests(experiment.requests, experiment.arrival_mix,
                                        experiment.sim.seed, i, count);
    }
    out.specs.push_back(std::move(spec));
  }
  return out;
}

uint64_t ExperimentFingerprint(SimTopology topology,
                               std::span<const SimFunctionSpec> functions,
                               const SimOptions& options) {
  uint64_t h = HashCombine(0x70534b43u, static_cast<uint64_t>(topology));
  for (const ExperimentParam& param : kTable) {
    if (param.role == Role::kOptions) {
      h = HashCombine(h, StableNameHash(param.name));
      h = HashCombine(h, StableNameHash(param.canonical(options)));
    }
  }
  h = HashCombine(h, StableNameHash(LibraryOnlyText(options)));
  // XOR-fold the deployments so their order is irrelevant (names are
  // unique, so no two entries cancel).
  uint64_t deployments = 0;
  for (const SimFunctionSpec& spec : functions) {
    const std::string text = spec.name + '|' + Canon(spec.requests) + spec.profile->name +
                             '|' + PolicyText(*spec.policy);
    deployments ^= HashCombine(0x5fb7ULL, StableNameHash(text));
  }
  return HashCombine(h, deployments);
}

}  // namespace pronghorn
