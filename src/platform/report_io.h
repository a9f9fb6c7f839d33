// CSV persistence of simulation results, mirroring the artifact's results/
// directory layout: one row per request plus a summary block, so downstream
// plotting (the paper's Evaluation.ipynb equivalent) can consume the data.

#ifndef PRONGHORN_SRC_PLATFORM_REPORT_IO_H_
#define PRONGHORN_SRC_PLATFORM_REPORT_IO_H_

#include <map>
#include <mutex>
#include <optional>
#include <set>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/common/bytes.h"
#include "src/obs/metrics.h"
#include "src/platform/metrics.h"
#include "src/platform/sim_options.h"

namespace pronghorn {

// Per-request records as CSV:
//   global_index,request_number,latency_us,first_of_lifetime,cold_start,checkpoint_after
std::string RecordsToCsv(std::span<const RequestRecord> records);
Status WriteRecordsCsv(const SimulationReport& report, const std::string& path);
// Parses the format back (round trip for pipelines and tests).
Result<std::vector<RequestRecord>> RecordsFromCsv(std::string_view csv);
Result<std::vector<RequestRecord>> ReadRecordsCsv(const std::string& path);

// One-line key=value summary of a report (counters + medians) for logs.
// When fault/recovery counters are nonzero, a `faults=... recovered=...`
// block is appended.
std::string SummarizeReport(const SimulationReport& report);

// Key,value CSV of a report's scalar summary: latency percentiles, platform
// counters, store accountings, and every fault/recovery counter. The rows a
// results/ directory wants next to the per-request records.
std::string SummaryToCsv(const SimulationReport& report);
Status WriteSummaryCsv(const SimulationReport& report, const std::string& path);

// Canonical binary serialization of one deployment's SimulationReport: every
// record field, both role-split latency distributions (samples in recorded
// order), all lifecycle counters and durations, the control-plane overheads,
// and the fault/recovery stats. Deliberately excludes the store/database
// accountings, which belong to the environment (shared across functions in a
// platform run); digests serialize those once at the top level, which is what
// makes a one-function fleet digest comparable to a one-function platform
// digest. Two reports serialize to the same bytes iff the simulations behind
// them took identical decisions.
void SerializeFunctionReport(const SimulationReport& report, ByteWriter& writer);

// Building blocks for environment-level digests.
void SerializeStoreAccounting(const StoreAccounting& accounting, ByteWriter& writer);
void SerializeKvAccounting(const KvAccounting& accounting, ByteWriter& writer);
void SerializeFaultRecoveryStats(const FaultRecoveryStats& stats, ByteWriter& writer);

// The shared environment-level core, in the canonical digest order
// (object store, database, faults).
void SerializeReportCore(const ReportCore& core, ByteWriter& writer);

// Field-wise fold of one core into another (store/database accountings sum,
// fault counters sum). The one merge every multi-deployment driver uses.
void MergeReportCore(ReportCore& into, const ReportCore& from);

// One named per-function row of a multi-deployment digest.
struct NamedReportRef {
  std::string_view name;
  const SimulationReport* report = nullptr;
};

// CRC32 over the canonical multi-deployment serialization: every per-function
// report (name + SerializeFunctionReport) in the order given — callers pass
// name-sorted rows — followed by the shared core. SimReport::Digest() and the
// StreamingAccumulator both compute exactly this, which is what makes every
// topology's digests directly comparable.
uint32_t ReportDigest(std::span<const NamedReportRef> per_function,
                      const ReportCore& core);

// Full flattened serialization of a single-environment report (a kSingle run,
// or one fleet shard): SerializeFunctionReport plus the store accountings folded
// into the flat report. What the fleet determinism guarantee (and its test)
// hashes per function.
void SerializeFlatReport(const SimulationReport& report, ByteWriter& writer);

// CRC32 over SerializeFlatReport's bytes.
uint32_t FlatReportCrc32(const SimulationReport& report);

// Exact inverses of the canonical serializers above, used by the simulation
// checkpoint (src/platform/sim_checkpoint.h) to restore folded reports after
// a crash. Round-trip contract: re-serializing a deserialized report yields
// byte-identical output (doubles travel as raw bits, samples in recorded
// order).
Status DeserializeStoreAccounting(ByteReader& reader, StoreAccounting& out);
Status DeserializeKvAccounting(ByteReader& reader, KvAccounting& out);
Status DeserializeFaultRecoveryStats(ByteReader& reader, FaultRecoveryStats& out);
Status DeserializeReportCore(ByteReader& reader, ReportCore& out);
Result<SimulationReport> DeserializeFunctionReport(ByteReader& reader);
Result<SimulationReport> DeserializeFlatReport(ByteReader& reader);

// Streaming, memory-bounded fold of per-function reports — the fleet-scale
// replacement for collect-then-merge. Shards call Fold() the moment their
// deployment finishes, in any order and from any thread; the accumulator
// keeps:
//   - the merged ReportCore + lifecycle counters (order-insensitive sums),
//   - an exact-merge LatencyHistogram over every request latency,
//   - one small digest row (name, CRC32, length) per folded function, and
//   - per-function report bodies only as the retention policy allows.
//
// Digest contract: Digest() equals ReportDigest() over ALL folded functions
// in canonical name order — in every retention mode — because each row's
// CRC covers exactly the bytes ReportDigest would have hashed for that
// function, and Crc32Combine stitches the rows (sorted by name) and the
// merged core back into the one-shot CRC without the bytes ever coexisting
// in memory. Keep-all mode additionally retains every report body, making
// the assembled fleet report bit-identical to a collect-then-merge run.
//
// Both bounded modes pick the retained subset as a pure function of the
// folded SET (never of fold order), so retained output is bit-stable across
// thread counts and shard completion orders.
class StreamingAccumulator {
 public:
  // One folded function's contribution to the canonical digest: the CRC32
  // and byte length of (WriteString(name) + SerializeFunctionReport(report)).
  struct DigestRow {
    std::string name;
    uint32_t crc = 0;
    uint64_t length = 0;
  };

  // Everything Take() hands back to the driver assembling the final report.
  struct Merged {
    ReportRetention retention = ReportRetention::kAll;
    ReportCore core;
    uint64_t worker_lifetimes = 0;
    uint64_t checkpoints = 0;
    uint64_t restores = 0;
    uint64_t cold_starts = 0;
    uint64_t functions_total = 0;
    uint64_t invocations_total = 0;
    LatencyHistogram latency_hist;
    // Retained report bodies in canonical (name) order; every folded
    // function under kAll, at most `k` under the bounded modes.
    std::map<std::string, SimulationReport> retained;
    // The canonical digest over all folded functions (see class comment).
    uint32_t digest = 0;
  };

  explicit StreamingAccumulator(RetentionOptions retention = RetentionOptions{});

  // Folds one finished deployment. Thread-safe; names must be unique.
  void Fold(std::string name, SimulationReport report);

  // True when `name` was already folded (the resume skip set).
  bool Contains(std::string_view name) const;

  uint64_t folded_count() const;
  uint64_t invocations_total() const;

  // The canonical digest over everything folded so far.
  uint32_t Digest() const;

  // Finalizes and moves the merged state out; the accumulator is empty after.
  Merged Take();

  // Checkpoint support: the full accumulator state as bytes, and its exact
  // restoration into a freshly constructed accumulator. Serialized state
  // embeds the retention options; RestoreState fails if they disagree with
  // this accumulator's (a resumed run must not silently change what the
  // report means), or if anything was already folded.
  void SerializeState(ByteWriter& writer) const;
  Status RestoreState(ByteReader& reader);

 private:
  void FoldLocked(std::string name, SimulationReport report);
  // Applies the retention bound after an insert (evicts the worst-ranked
  // retained entry when over budget).
  void EnforceRetentionLocked();

  RetentionOptions retention_;

  mutable std::mutex mutex_;
  ReportCore core_;
  uint64_t worker_lifetimes_ = 0;
  uint64_t checkpoints_ = 0;
  uint64_t restores_ = 0;
  uint64_t cold_starts_ = 0;
  uint64_t invocations_total_ = 0;
  LatencyHistogram latency_hist_;
  std::vector<DigestRow> rows_;
  std::set<std::string, std::less<>> folded_names_;
  std::map<std::string, SimulationReport> retained_;
  // Eviction ranks for the bounded modes: kTopLatency evicts the smallest
  // (median latency, name); kReservoir evicts the largest (hash, name).
  std::set<std::pair<double, std::string>> latency_rank_;
  std::set<std::pair<uint64_t, std::string>> hash_rank_;
};

}  // namespace pronghorn

#endif  // PRONGHORN_SRC_PLATFORM_REPORT_IO_H_
