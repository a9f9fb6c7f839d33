// Resumable-simulation and streaming-accumulator guarantees:
//
//  1. Streaming-vs-materialized equivalence: the StreamingAccumulator's
//     CRC-combined digest equals ReportDigest over the same reports, in any
//     fold order and any retention mode.
//  2. Resume equivalence: a fleet run killed at a checkpoint boundary and
//     resumed reproduces the uninterrupted run's digest bit-for-bit — at
//     thread counts {1, 2, 8}, with the live service on and off, and under a
//     chaos plan.
//  3. Checkpoint safety: corrupt frames are kDataLoss, a different
//     experiment's frame is kFailedPrecondition, and neither is silently
//     resumed from.
//  4. Serializer round trips: the report deserializers are exact inverses of
//     the canonical serializers (byte-identical re-serialization), and the
//     LatencyHistogram wire format round-trips.

#include "src/platform/sim_checkpoint.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <random>
#include <string>
#include <vector>

#include "src/core/baseline_policies.h"
#include "src/core/request_centric_policy.h"
#include "src/core/stop_condition_policy.h"
#include "src/jit/method_model.h"
#include "src/platform/experiment.h"
#include "src/platform/report_io.h"
#include "src/platform/simulate.h"

namespace pronghorn {
namespace {

constexpr uint64_t kSeed = 42;
constexpr size_t kFunctions = 6;
constexpr uint64_t kRequests = 120;

PolicyConfig SmallConfig() {
  PolicyConfig config;
  config.beta = 4;
  config.pool_capacity = 6;
  config.max_checkpoint_request = 30;
  return config;
}

RequestCentricPolicy MakePolicy() {
  auto policy = RequestCentricPolicy::Create(SmallConfig());
  EXPECT_TRUE(policy.ok());
  return *std::move(policy);
}

std::string FreshDir(const std::string& tag) {
  const std::string dir =
      (std::filesystem::temp_directory_path() / ("pronghorn_simckpt_" + tag))
          .string();
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

struct FleetRunConfig {
  uint32_t threads = 1;
  RetentionOptions retention;
  SimCheckpointOptions checkpoint;
  bool service = false;
  bool chaos = false;
};

FleetRunConfig WithThreads(uint32_t threads) {
  FleetRunConfig config;
  config.threads = threads;
  return config;
}

// ExperimentFingerprint of the FleetRunConfig{} experiment. Checkpoint
// frames are keyed by it, so a change here strands every frame written
// before it. It moved from 0x4ec6232df41676fa when the fingerprint started
// hashing every identity row of the experiment table and each function's
// profile and policy: frames written before that are refused
// (kFailedPrecondition), never spliced.
constexpr uint64_t kDefaultFleetFingerprint = 0x447510a7e3363ac4ULL;

SimOptions FleetOptions(const FleetRunConfig& config) {
  SimOptions options;
  options.seed = kSeed;
  options.threads = config.threads;
  options.worker_slots = 3;
  options.exploring_slots = 1;
  options.retention = config.retention;
  options.sim_checkpoint = config.checkpoint;
  options.service.enabled = config.service;
  if (config.chaos) {
    options.faults.get_failure_rate = 0.05;
    options.faults.put_failure_rate = 0.05;
    options.faults.corruption_rate = 0.02;
    options.faults.seed = 7;
  }
  return options;
}

std::vector<SimFunctionSpec> FleetSpecs(const OrchestrationPolicy& policy) {
  const auto evaluation = WorkloadRegistry::Default().EvaluationSet();
  std::vector<SimFunctionSpec> specs;
  for (size_t i = 0; i < kFunctions; ++i) {
    SimFunctionSpec spec;
    spec.name = "fn" + std::to_string(i) + "-" +
                evaluation[i % evaluation.size()]->name;
    spec.profile = evaluation[i % evaluation.size()];
    spec.policy = &policy;
    spec.requests = kRequests;
    specs.push_back(std::move(spec));
  }
  return specs;
}

Result<SimReport> RunFleet(const OrchestrationPolicy& policy,
                           const FleetRunConfig& config) {
  return Simulate(WorkloadRegistry::Default(), SimTopology::kFleet,
                  FleetSpecs(policy), FleetOptions(config));
}

uint64_t Fingerprint(const OrchestrationPolicy& policy, const FleetRunConfig& config) {
  return ExperimentFingerprint(SimTopology::kFleet, FleetSpecs(policy),
                               FleetOptions(config));
}

SimReport MustRun(const OrchestrationPolicy& policy, const FleetRunConfig& config) {
  auto report = RunFleet(policy, config);
  EXPECT_TRUE(report.ok()) << report.status().ToString();
  return *std::move(report);
}

// Writes a checkpoint file representing a run killed after folding exactly
// the first `completed` deployments (in the given order) — byte-equivalent
// to the frame FleetCheckpointer would have written at that boundary.
void WritePartialCheckpoint(const std::string& dir, uint64_t fingerprint,
                            const SimReport& full,
                            std::vector<size_t> fold_order, size_t completed,
                            RetentionOptions retention = RetentionOptions{}) {
  StreamingAccumulator accumulator(retention);
  for (size_t i = 0; i < completed; ++i) {
    const auto& [name, report] = full.per_function[fold_order[i]];
    accumulator.Fold(name, report);
  }
  ByteWriter writer;
  accumulator.SerializeState(writer);
  ASSERT_TRUE(WriteSimCheckpointFile(FleetCheckpointer::FilePath(dir),
                                     fingerprint, completed, writer.data())
                  .ok());
}

// --- 1. Streaming fold == materialized digest -------------------------------

TEST(StreamingAccumulatorTest, DigestMatchesMaterializedInAnyFoldOrder) {
  const RequestCentricPolicy policy = MakePolicy();
  const SimReport full = MustRun(policy, FleetRunConfig{});
  ASSERT_EQ(full.per_function.size(), kFunctions);

  std::vector<NamedReportRef> rows;
  for (const auto& [name, report] : full.per_function) {
    rows.push_back(NamedReportRef{name, &report});
  }
  const uint32_t materialized = ReportDigest(rows, full);

  std::vector<size_t> order(kFunctions);
  for (size_t i = 0; i < order.size(); ++i) {
    order[i] = i;
  }
  std::mt19937 shuffler(7);
  for (int trial = 0; trial < 5; ++trial) {
    std::shuffle(order.begin(), order.end(), shuffler);
    for (const RetentionOptions retention :
         {RetentionOptions{},
          RetentionOptions{ReportRetention::kTopLatency, 2, 1},
          RetentionOptions{ReportRetention::kReservoir, 2, 9}}) {
      StreamingAccumulator accumulator(retention);
      for (const size_t i : order) {
        const auto& [name, report] = full.per_function[i];
        accumulator.Fold(name, report);
      }
      EXPECT_EQ(accumulator.Digest(), materialized)
          << "retention " << RetentionLabel(retention.mode);
    }
  }
}

TEST(StreamingAccumulatorTest, KeepAllRetainsEveryReportBitForBit) {
  const RequestCentricPolicy policy = MakePolicy();
  const SimReport full = MustRun(policy, FleetRunConfig{});
  StreamingAccumulator accumulator{RetentionOptions{}};
  // Fold in reverse order; keep-all assembly must still be canonical.
  for (size_t i = full.per_function.size(); i-- > 0;) {
    const auto& [name, report] = full.per_function[i];
    accumulator.Fold(name, report);
  }
  StreamingAccumulator::Merged merged = accumulator.Take();
  ASSERT_EQ(merged.retained.size(), kFunctions);
  size_t index = 0;
  for (const auto& [name, report] : merged.retained) {
    EXPECT_EQ(name, full.per_function[index].function);
    EXPECT_EQ(FlatReportCrc32(report),
              FlatReportCrc32(full.per_function[index].report));
    ++index;
  }
  EXPECT_EQ(merged.digest, full.Digest());
}

TEST(StreamingAccumulatorTest, BoundedRetentionIsFoldOrderInsensitive) {
  const RequestCentricPolicy policy = MakePolicy();
  const SimReport full = MustRun(policy, FleetRunConfig{});
  for (const RetentionOptions retention :
       {RetentionOptions{ReportRetention::kTopLatency, 3, 1},
        RetentionOptions{ReportRetention::kReservoir, 3, 5}}) {
    std::vector<std::string> first_names;
    std::vector<size_t> order(kFunctions);
    for (size_t i = 0; i < order.size(); ++i) {
      order[i] = i;
    }
    std::mt19937 shuffler(11);
    for (int trial = 0; trial < 4; ++trial) {
      std::shuffle(order.begin(), order.end(), shuffler);
      StreamingAccumulator accumulator(retention);
      for (const size_t i : order) {
        const auto& [name, report] = full.per_function[i];
        accumulator.Fold(name, report);
      }
      StreamingAccumulator::Merged merged = accumulator.Take();
      EXPECT_LE(merged.retained.size(), retention.k);
      EXPECT_EQ(merged.functions_total, kFunctions);
      std::vector<std::string> names;
      for (const auto& [name, report] : merged.retained) {
        names.push_back(name);
      }
      if (trial == 0) {
        first_names = names;
      } else {
        EXPECT_EQ(names, first_names)
            << "retained set depends on fold order under "
            << RetentionLabel(retention.mode);
      }
    }
  }
}

TEST(FleetRetentionTest, BoundedModesReportTheKeepAllDigest) {
  const RequestCentricPolicy policy = MakePolicy();
  const SimReport keep_all = MustRun(policy, FleetRunConfig{});

  FleetRunConfig bounded;
  bounded.threads = 4;
  bounded.retention = RetentionOptions{ReportRetention::kTopLatency, 2, 1};
  const SimReport top = MustRun(policy, bounded);
  EXPECT_EQ(top.Digest(), keep_all.Digest());
  EXPECT_EQ(top.retention, ReportRetention::kTopLatency);
  EXPECT_LE(top.per_function.size(), 2u);
  EXPECT_EQ(top.functions_total, kFunctions);
  EXPECT_EQ(top.invocations_total, kFunctions * kRequests);
  EXPECT_EQ(top.latency_hist.count(), kFunctions * kRequests);
  // The retained subset must be the K slowest by median latency: every kept
  // function's median is >= every dropped one's.
  double kept_min = 1e300;
  for (const auto& [name, report] : top.per_function) {
    kept_min = std::min(kept_min, report.LatencySummary().Median());
  }
  for (const auto& [name, report] : keep_all.per_function) {
    if (top.Find(name) == nullptr) {
      EXPECT_LE(report.LatencySummary().Median(), kept_min) << name;
    }
  }

  bounded.retention = RetentionOptions{ReportRetention::kReservoir, 3, 9};
  const SimReport reservoir = MustRun(policy, bounded);
  EXPECT_EQ(reservoir.Digest(), keep_all.Digest());
  EXPECT_LE(reservoir.per_function.size(), 3u);
  // Exact-merge histogram agrees between modes (it is complete in both).
  EXPECT_EQ(reservoir.latency_hist.count(), keep_all.latency_hist.count());
  EXPECT_EQ(reservoir.latency_hist.Quantile(50), keep_all.latency_hist.Quantile(50));
}

// --- 2. Resume equivalence --------------------------------------------------

TEST(SimCheckpointTest, ResumedFleetReproducesUninterruptedDigest) {
  const RequestCentricPolicy policy = MakePolicy();
  for (const uint32_t threads : {1u, 2u, 8u}) {
    const FleetRunConfig base = WithThreads(threads);
    const SimReport full = MustRun(policy, base);
    const uint64_t fingerprint = Fingerprint(policy, base);

    // Kill at every checkpoint boundary 0..kFunctions and resume.
    std::vector<size_t> fold_order(kFunctions);
    for (size_t i = 0; i < fold_order.size(); ++i) {
      fold_order[i] = (i + threads) % kFunctions;  // Not name order.
    }
    for (size_t completed = 0; completed <= kFunctions; ++completed) {
      const std::string dir =
          FreshDir("resume_t" + std::to_string(threads) + "_c" +
                   std::to_string(completed));
      WritePartialCheckpoint(dir, fingerprint, full, fold_order, completed);
      FleetRunConfig resumed_config = base;
      resumed_config.checkpoint.dir = dir;
      resumed_config.checkpoint.resume = true;
      const SimReport resumed = MustRun(policy, resumed_config);
      EXPECT_EQ(resumed.Digest(), full.Digest())
          << "threads=" << threads << " completed=" << completed;
      EXPECT_EQ(resumed.per_function.size(), full.per_function.size());
      std::filesystem::remove_all(dir);
    }
  }
}

TEST(SimCheckpointTest, ResumeEquivalenceHoldsWithServiceAndChaos) {
  const RequestCentricPolicy policy = MakePolicy();
  for (const bool service : {false, true}) {
    for (const bool chaos : {false, true}) {
      FleetRunConfig base;
      base.threads = 4;
      base.service = service;
      base.chaos = chaos;
      const SimReport full = MustRun(policy, base);
      const uint64_t fingerprint = Fingerprint(policy, base);

      const std::string dir = FreshDir(std::string("svc_") +
                                       (service ? "on" : "off") +
                                       (chaos ? "_chaos" : "_clean"));
      std::vector<size_t> fold_order(kFunctions);
      for (size_t i = 0; i < fold_order.size(); ++i) {
        fold_order[i] = kFunctions - 1 - i;
      }
      WritePartialCheckpoint(dir, fingerprint, full, fold_order,
                             kFunctions / 2);
      FleetRunConfig resumed_config = base;
      resumed_config.checkpoint.dir = dir;
      resumed_config.checkpoint.resume = true;
      const SimReport resumed = MustRun(policy, resumed_config);
      EXPECT_EQ(resumed.Digest(), full.Digest())
          << "service=" << service << " chaos=" << chaos;
      std::filesystem::remove_all(dir);
    }
  }
}

TEST(SimCheckpointTest, CheckpointingRunWritesResumableFinalFrame) {
  // A full checkpointed run leaves a final frame covering everything; a
  // resume from it re-runs nothing and reproduces the digest.
  const RequestCentricPolicy policy = MakePolicy();
  const std::string dir = FreshDir("final_frame");
  FleetRunConfig config;
  config.threads = 2;
  config.checkpoint.dir = dir;
  config.checkpoint.every = 2;
  const SimReport checkpointed = MustRun(policy, config);
  const SimReport plain = MustRun(policy, WithThreads(2));
  EXPECT_EQ(checkpointed.Digest(), plain.Digest());
  ASSERT_TRUE(std::filesystem::exists(FleetCheckpointer::FilePath(dir)));

  config.checkpoint.resume = true;
  const SimReport resumed = MustRun(policy, config);
  EXPECT_EQ(resumed.Digest(), plain.Digest());
  std::filesystem::remove_all(dir);
}

TEST(SimCheckpointTest, WholeRunCheckpointRoundTripsSingleTopology) {
  const RequestCentricPolicy policy = MakePolicy();
  const auto evaluation = WorkloadRegistry::Default().EvaluationSet();
  SimFunctionSpec spec;
  spec.name = evaluation[0]->name;
  spec.profile = evaluation[0];
  spec.policy = &policy;
  spec.requests = 150;

  SimOptions options;
  options.seed = kSeed;
  options.worker_slots = 1;
  options.exploring_slots = 1;
  auto plain = Simulate(WorkloadRegistry::Default(), SimTopology::kSingle,
                        std::span<const SimFunctionSpec>(&spec, 1), options);
  ASSERT_TRUE(plain.ok()) << plain.status().ToString();

  const std::string dir = FreshDir("whole_run");
  options.sim_checkpoint.dir = dir;
  auto first = Simulate(WorkloadRegistry::Default(), SimTopology::kSingle,
                        std::span<const SimFunctionSpec>(&spec, 1), options);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_EQ(first->Digest(), plain->Digest());
  ASSERT_TRUE(std::filesystem::exists(WholeRunCheckpointPath(dir)));

  options.sim_checkpoint.resume = true;
  auto resumed = Simulate(WorkloadRegistry::Default(), SimTopology::kSingle,
                          std::span<const SimFunctionSpec>(&spec, 1), options);
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
  EXPECT_EQ(resumed->Digest(), plain->Digest());
  EXPECT_EQ(resumed->latency.count(), plain->latency.count());
  EXPECT_EQ(resumed->invocations_total, plain->invocations_total);
  std::filesystem::remove_all(dir);
}

// --- 3. Checkpoint safety ---------------------------------------------------

TEST(SimCheckpointTest, CorruptCheckpointFailsLoudly) {
  const RequestCentricPolicy policy = MakePolicy();
  const std::string dir = FreshDir("corrupt");
  FleetRunConfig config;
  config.checkpoint.dir = dir;
  (void)MustRun(policy, config);

  const std::string path = FleetCheckpointer::FilePath(dir);
  {
    std::fstream file(path, std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(file.good());
    file.seekp(10);
    file.put(static_cast<char>(0x5a));
  }
  config.checkpoint.resume = true;
  auto resumed = RunFleet(policy, config);
  ASSERT_FALSE(resumed.ok());
  EXPECT_EQ(resumed.status().code(), StatusCode::kDataLoss);
  std::filesystem::remove_all(dir);
}

TEST(SimCheckpointTest, DifferentExperimentCheckpointIsRefused) {
  const std::string dir = FreshDir("fingerprint");
  const std::vector<uint8_t> payload = {1, 2, 3};
  ASSERT_TRUE(WriteSimCheckpointFile(FleetCheckpointer::FilePath(dir),
                                     /*fingerprint=*/111, /*progress=*/0,
                                     payload)
                  .ok());
  auto read = ReadSimCheckpointFile(FleetCheckpointer::FilePath(dir),
                                    /*fingerprint=*/222);
  ASSERT_FALSE(read.ok());
  EXPECT_EQ(read.status().code(), StatusCode::kFailedPrecondition);
  // The matching fingerprint reads fine.
  auto ok_read = ReadSimCheckpointFile(FleetCheckpointer::FilePath(dir),
                                       /*fingerprint=*/111);
  ASSERT_TRUE(ok_read.ok());
  EXPECT_EQ(*ok_read, payload);
  std::filesystem::remove_all(dir);
}

// Each case writes a frame, then resumes with one changed input that moves
// the digest. Every such resume must be refused, never spliced onto the
// frame's report.
TEST(SimCheckpointTest, ResumeWithAnyChangedInputIsRefused) {
  const RequestCentricPolicy policy = MakePolicy();
  PolicyConfig larger_pool = SmallConfig();
  larger_pool.pool_capacity = 12;
  const Result<RequestCentricPolicy> pool_policy = RequestCentricPolicy::Create(larger_pool);
  ASSERT_TRUE(pool_policy.ok()) << pool_policy.status().ToString();
  const ColdStartPolicy cold(SmallConfig());
  const StopConditionPolicy stop_early(policy, 50);
  const StopConditionPolicy stop_late(policy, 60);
  struct Case {
    const char* name;
    const OrchestrationPolicy* writer;
    const OrchestrationPolicy* resumer;
    void (*change)(SimOptions&);
  };
  const auto keep = [](SimOptions&) {};
  const Case cases[] = {
      {"pool_capacity", &policy, &*pool_policy, keep},
      {"policy_kind", &cold, &policy, keep},
      {"stop_budget", &stop_early, &stop_late, keep},
      {"fault_window", &policy, &policy,
       [](SimOptions& o) {
         FaultWindow window;
         window.domain = FaultDomain::kDatabase;
         window.end = TimePoint() + Duration::Seconds(2);
         o.faults.windows.push_back(window);
       }},
      {"recovery", &policy, &policy,
       [](SimOptions& o) { o.recovery.max_restore_candidates = 1; }},
      {"lifecycle", &policy, &policy,
       [](SimOptions& o) { o.lifecycle.startup_on_critical_path = true; }},
      {"costs", &policy, &policy,
       [](SimOptions& o) { o.costs.db_read_latency = Duration::Millis(9); }},
  };
  for (const Case& c : cases) {
    const std::string dir = FreshDir(std::string("splice_") + c.name);
    SimOptions options = FleetOptions(FleetRunConfig{});
    options.sim_checkpoint.dir = dir;
    auto written = Simulate(WorkloadRegistry::Default(), SimTopology::kFleet,
                            FleetSpecs(*c.writer), options);
    ASSERT_TRUE(written.ok()) << c.name << ": " << written.status().ToString();
    c.change(options);
    options.sim_checkpoint.resume = true;
    auto resumed = Simulate(WorkloadRegistry::Default(), SimTopology::kFleet,
                            FleetSpecs(*c.resumer), options);
    EXPECT_EQ(resumed.status().code(), StatusCode::kFailedPrecondition)
        << c.name << ": " << resumed.status().ToString();
    std::filesystem::remove_all(dir);
  }
}

TEST(SimCheckpointTest, MissingCheckpointIsNotFound) {
  auto read = ReadSimCheckpointFile("/nonexistent-dir/nope.ckpt", 1);
  ASSERT_FALSE(read.ok());
  EXPECT_EQ(read.status().code(), StatusCode::kNotFound);
}

TEST(SimCheckpointTest, FingerprintPinsExperimentParameters) {
  const RequestCentricPolicy policy = MakePolicy();
  const uint64_t base = Fingerprint(policy, FleetRunConfig{});
  EXPECT_EQ(base, kDefaultFleetFingerprint);
  // Thread count is NOT part of the identity (digests are thread-invariant)…
  EXPECT_EQ(base, Fingerprint(policy, WithThreads(8)));
  // …but chaos and retention are (they change what the run means).
  FleetRunConfig chaos;
  chaos.chaos = true;
  EXPECT_NE(base, Fingerprint(policy, chaos));
  FleetRunConfig bounded;
  bounded.retention = RetentionOptions{ReportRetention::kTopLatency, 2, 1};
  EXPECT_NE(base, Fingerprint(policy, bounded));
}

// --- 4. Serializer round trips ----------------------------------------------

TEST(ReportSerializationTest, FlatReportRoundTripsByteIdentically) {
  const RequestCentricPolicy policy = MakePolicy();
  const SimReport full = MustRun(policy, FleetRunConfig{});
  for (const auto& [name, report] : full.per_function) {
    ByteWriter writer;
    SerializeFlatReport(report, writer);
    ByteReader reader(writer.data());
    auto restored = DeserializeFlatReport(reader);
    ASSERT_TRUE(restored.ok()) << restored.status().ToString();
    EXPECT_TRUE(reader.AtEnd());
    ByteWriter rewritten;
    SerializeFlatReport(*restored, rewritten);
    EXPECT_EQ(writer.data(), rewritten.data()) << name;
  }
}

TEST(ReportSerializationTest, ReportCoreRoundTripsByteIdentically) {
  const RequestCentricPolicy policy = MakePolicy();
  FleetRunConfig config;
  config.chaos = true;  // Nonzero fault counters exercise every field.
  const SimReport full = MustRun(policy, config);
  ByteWriter writer;
  SerializeReportCore(full, writer);
  ByteReader reader(writer.data());
  ReportCore restored;
  ASSERT_TRUE(DeserializeReportCore(reader, restored).ok());
  EXPECT_TRUE(reader.AtEnd());
  ByteWriter rewritten;
  SerializeReportCore(restored, rewritten);
  EXPECT_EQ(writer.data(), rewritten.data());
}

TEST(ReportSerializationTest, LatencyHistogramRoundTrips) {
  LatencyHistogram hist;
  hist.Add(0);
  hist.Add(1);
  hist.Add(17);
  hist.AddCount(12345, 41);
  hist.AddCount(1ull << 40, 3);
  ByteWriter writer;
  hist.Serialize(writer);
  ByteReader reader(writer.data());
  auto restored = LatencyHistogram::Deserialize(reader);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_TRUE(reader.AtEnd());
  EXPECT_EQ(*restored, hist);
  EXPECT_EQ(restored->count(), hist.count());
  EXPECT_EQ(restored->max(), hist.max());
  EXPECT_EQ(restored->Quantile(50), hist.Quantile(50));
}

TEST(ReportSerializationTest, AccumulatorStateRoundTripsAcrossRetentions) {
  const RequestCentricPolicy policy = MakePolicy();
  const SimReport full = MustRun(policy, FleetRunConfig{});
  for (const RetentionOptions retention :
       {RetentionOptions{},
        RetentionOptions{ReportRetention::kTopLatency, 2, 1},
        RetentionOptions{ReportRetention::kReservoir, 2, 9}}) {
    StreamingAccumulator original(retention);
    for (size_t i = 0; i < 4; ++i) {
      const auto& [name, report] = full.per_function[i];
      original.Fold(name, report);
    }
    ByteWriter writer;
    original.SerializeState(writer);

    StreamingAccumulator restored(retention);
    ByteReader reader(writer.data());
    ASSERT_TRUE(restored.RestoreState(reader).ok());
    EXPECT_TRUE(reader.AtEnd());
    EXPECT_EQ(restored.folded_count(), original.folded_count());
    EXPECT_EQ(restored.Digest(), original.Digest());
    // Folding the remaining shards into the restored accumulator must land
    // exactly where the uninterrupted accumulator lands.
    StreamingAccumulator uninterrupted(retention);
    for (const auto& [name, report] : full.per_function) {
      uninterrupted.Fold(name, report);
    }
    for (size_t i = 4; i < full.per_function.size(); ++i) {
      const auto& [name, report] = full.per_function[i];
      restored.Fold(name, report);
    }
    EXPECT_EQ(restored.Digest(), uninterrupted.Digest());
  }
}

TEST(ReportSerializationTest, RestoreRefusesMismatchedRetention) {
  StreamingAccumulator original(RetentionOptions{});
  ByteWriter writer;
  original.SerializeState(writer);
  StreamingAccumulator other(
      RetentionOptions{ReportRetention::kTopLatency, 2, 1});
  ByteReader reader(writer.data());
  auto status = other.RestoreState(reader);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition);
}

TEST(MethodStateTest, WidenedCountersRoundTripPast32Bits) {
  // Regression for the uint32 -> uint64 widening: a deopt count past 2^32
  // must survive serialization (the varint wire format never truncated, the
  // in-memory fields used to).
  MethodState method;
  method.weight = 0.25;
  method.tier = CompilationTier::kOptimized;
  method.invocations = (1ull << 33) + 17;
  method.deopt_count = (1ull << 32) + 5;
  method.compile_remaining = (1ull << 32) + 1;
  method.baseline_threshold = 2;
  method.optimize_threshold = 100;
  ByteWriter writer;
  method.Serialize(writer);
  ByteReader reader(writer.data());
  auto restored = MethodState::Deserialize(reader);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_EQ(*restored, method);
  EXPECT_EQ(restored->deopt_count, (1ull << 32) + 5);
  EXPECT_EQ(restored->compile_remaining, (1ull << 32) + 1);
}

}  // namespace
}  // namespace pronghorn
