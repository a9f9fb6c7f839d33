#include "src/platform/report_io.h"

#include <algorithm>
#include <charconv>
#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <utility>

#include "src/common/crc32.h"
#include "src/common/rng.h"

namespace pronghorn {

namespace {

constexpr std::string_view kHeader =
    "global_index,request_number,latency_us,first_of_lifetime,cold_start,"
    "checkpoint_after";

Result<int64_t> ParseField(std::string_view text) {
  int64_t value = 0;
  const auto [ptr, ec] = std::from_chars(text.data(), text.data() + text.size(), value);
  if (ec != std::errc() || ptr != text.data() + text.size()) {
    return DataLossError("bad CSV field '" + std::string(text) + "'");
  }
  return value;
}

}  // namespace

std::string RecordsToCsv(std::span<const RequestRecord> records) {
  std::string out(kHeader);
  out += '\n';
  char line[128];
  for (const RequestRecord& record : records) {
    std::snprintf(line, sizeof(line), "%" PRIu64 ",%" PRIu64 ",%" PRId64 ",%d,%d,%d\n",
                  record.global_index, record.request_number,
                  record.latency.ToMicros(), record.first_of_lifetime ? 1 : 0,
                  record.cold_start ? 1 : 0, record.checkpoint_after ? 1 : 0);
    out += line;
  }
  return out;
}

Status WriteRecordsCsv(const SimulationReport& report, const std::string& path) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) {
    return InternalError("cannot open '" + path + "' for writing");
  }
  out << RecordsToCsv(report.records);
  out.flush();
  if (!out) {
    return InternalError("short write to '" + path + "'");
  }
  return OkStatus();
}

Result<std::vector<RequestRecord>> RecordsFromCsv(std::string_view csv) {
  std::vector<RequestRecord> records;
  size_t pos = 0;
  size_t line_number = 0;
  while (pos < csv.size()) {
    size_t end = csv.find('\n', pos);
    if (end == std::string_view::npos) {
      end = csv.size();
    }
    const std::string_view line = csv.substr(pos, end - pos);
    pos = end + 1;
    ++line_number;
    if (line.empty()) {
      continue;
    }
    if (line_number == 1) {
      if (line != kHeader) {
        return DataLossError("bad records CSV header");
      }
      continue;
    }
    // Split into exactly 6 comma-separated fields.
    int64_t fields[6];
    size_t field_index = 0;
    size_t field_start = 0;
    for (size_t i = 0; i <= line.size(); ++i) {
      if (i == line.size() || line[i] == ',') {
        if (field_index >= 6) {
          return DataLossError("too many fields on records CSV line " +
                               std::to_string(line_number));
        }
        PRONGHORN_ASSIGN_OR_RETURN(fields[field_index],
                                   ParseField(line.substr(field_start, i - field_start)));
        ++field_index;
        field_start = i + 1;
      }
    }
    if (field_index != 6) {
      return DataLossError("too few fields on records CSV line " +
                           std::to_string(line_number));
    }
    RequestRecord record;
    record.global_index = static_cast<uint64_t>(fields[0]);
    record.request_number = static_cast<uint64_t>(fields[1]);
    record.latency = Duration::Micros(fields[2]);
    record.first_of_lifetime = fields[3] != 0;
    record.cold_start = fields[4] != 0;
    record.checkpoint_after = fields[5] != 0;
    records.push_back(record);
  }
  return records;
}

Result<std::vector<RequestRecord>> ReadRecordsCsv(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    return NotFoundError("cannot open records CSV '" + path + "'");
  }
  std::stringstream buffer;
  buffer << in.rdbuf();
  return RecordsFromCsv(buffer.str());
}

namespace {

void SerializeSummary(const DistributionSummary& summary, ByteWriter& writer) {
  writer.WriteVarint(summary.count());
  for (const double sample : summary.samples()) {
    writer.WriteDouble(sample);
  }
}

}  // namespace

void SerializeStoreAccounting(const StoreAccounting& accounting, ByteWriter& writer) {
  writer.WriteUint64(accounting.logical_bytes_stored);
  writer.WriteUint64(accounting.peak_logical_bytes);
  writer.WriteUint64(accounting.network_bytes_uploaded);
  writer.WriteUint64(accounting.network_bytes_downloaded);
  writer.WriteUint64(accounting.put_count);
  writer.WriteUint64(accounting.get_count);
  writer.WriteUint64(accounting.delete_count);
}

void SerializeKvAccounting(const KvAccounting& accounting, ByteWriter& writer) {
  writer.WriteUint64(accounting.reads);
  writer.WriteUint64(accounting.writes);
  writer.WriteUint64(accounting.cas_attempts);
  writer.WriteUint64(accounting.cas_conflicts);
}

void SerializeFaultRecoveryStats(const FaultRecoveryStats& stats, ByteWriter& writer) {
  writer.WriteUint64(stats.store_faults);
  writer.WriteUint64(stats.db_faults);
  writer.WriteUint64(stats.corrupted_puts);
  writer.WriteUint64(stats.torn_puts);
  writer.WriteUint64(stats.latency_injections);
  writer.WriteUint64(stats.restore_retries);
  writer.WriteUint64(stats.restore_failures);
  writer.WriteUint64(stats.restore_fallbacks);
  writer.WriteUint64(stats.snapshots_quarantined);
  writer.WriteUint64(stats.stale_entries_pruned);
  writer.WriteUint64(stats.degraded_starts);
  writer.WriteUint64(stats.observations_buffered);
  writer.WriteUint64(stats.observations_replayed);
  writer.WriteUint64(stats.observations_dropped);
  writer.WriteUint64(stats.checkpoints_skipped);
  writer.WriteUint64(stats.eviction_deletes_deferred);
  writer.WriteUint64(stats.orphans_collected);
  writer.WriteUint64(stats.cas_attempts);
  writer.WriteUint64(stats.cas_conflicts);
  writer.WriteUint64(stats.db_transient_retries);
}

void SerializeFunctionReport(const SimulationReport& report, ByteWriter& writer) {
  writer.WriteVarint(report.records.size());
  for (const RequestRecord& record : report.records) {
    writer.WriteVarint(record.global_index);
    writer.WriteVarint(record.request_number);
    writer.WriteInt64(record.latency.ToMicros());
    const uint8_t flags = static_cast<uint8_t>((record.first_of_lifetime ? 1 : 0) |
                                               (record.cold_start ? 2 : 0) |
                                               (record.checkpoint_after ? 4 : 0));
    writer.WriteUint8(flags);
  }
  SerializeSummary(report.exploring_latency, writer);
  SerializeSummary(report.exploiting_latency, writer);
  writer.WriteUint64(report.worker_lifetimes);
  writer.WriteUint64(report.checkpoints);
  writer.WriteUint64(report.restores);
  writer.WriteUint64(report.cold_starts);
  writer.WriteInt64(report.total_checkpoint_downtime.ToMicros());
  writer.WriteInt64(report.total_startup_latency.ToMicros());
  writer.WriteInt64(report.total_worker_alive_time.ToMicros());
  writer.WriteDouble(report.worker_memory_time_mb_s);
  writer.WriteInt64(report.end_time.ToMicros());
  writer.WriteUint64(report.overheads.worker_starts);
  writer.WriteUint64(report.overheads.requests_served);
  writer.WriteUint64(report.overheads.checkpoints_taken);
  writer.WriteInt64(report.overheads.total_startup_overhead.ToMicros());
  writer.WriteInt64(report.overheads.total_request_overhead.ToMicros());
  writer.WriteInt64(report.overheads.total_checkpoint_overhead.ToMicros());
  // Covering the fault/recovery counters means the fleet digest certifies
  // that chaos runs — not just fault-free ones — are schedule-independent.
  SerializeFaultRecoveryStats(report.faults, writer);
}

void SerializeReportCore(const ReportCore& core, ByteWriter& writer) {
  SerializeStoreAccounting(core.object_store, writer);
  SerializeKvAccounting(core.database, writer);
  SerializeFaultRecoveryStats(core.faults, writer);
}

void MergeReportCore(ReportCore& into, const ReportCore& from) {
  MergeAccounting(into.object_store, from.object_store);
  MergeAccounting(into.database, from.database);
  MergeFaultRecoveryStats(into.faults, from.faults);
}

uint32_t ReportDigest(std::span<const NamedReportRef> per_function,
                      const ReportCore& core) {
  ByteWriter writer;
  for (const NamedReportRef& row : per_function) {
    writer.WriteString(row.name);
    SerializeFunctionReport(*row.report, writer);
  }
  SerializeReportCore(core, writer);
  return Crc32(writer.data());
}

void SerializeFlatReport(const SimulationReport& report, ByteWriter& writer) {
  SerializeFunctionReport(report, writer);
  SerializeStoreAccounting(report.object_store, writer);
  SerializeKvAccounting(report.database, writer);
}

uint32_t FlatReportCrc32(const SimulationReport& report) {
  ByteWriter writer;
  writer.Reserve(report.records.size() * 12);
  SerializeFlatReport(report, writer);
  return Crc32(writer.data());
}

std::string SummarizeReport(const SimulationReport& report) {
  const DistributionSummary summary = report.LatencySummary();
  char out[512];
  std::snprintf(out, sizeof(out),
                "requests=%zu p50_us=%.0f p90_us=%.0f p99_us=%.0f lifetimes=%" PRIu64
                " cold=%" PRIu64 " restores=%" PRIu64 " checkpoints=%" PRIu64
                " storage_peak_mb=%.1f net_up_mb=%.1f net_down_mb=%.1f",
                report.records.size(), summary.Quantile(50), summary.Quantile(90),
                summary.Quantile(99), report.worker_lifetimes, report.cold_starts,
                report.restores, report.checkpoints,
                static_cast<double>(report.object_store.peak_logical_bytes) / 1048576.0,
                static_cast<double>(report.object_store.network_bytes_uploaded) /
                    1048576.0,
                static_cast<double>(report.object_store.network_bytes_downloaded) /
                    1048576.0);
  std::string summary_line(out);
  const FaultRecoveryStats& faults = report.faults;
  if (faults.store_faults + faults.db_faults + faults.restore_fallbacks +
          faults.degraded_starts + faults.snapshots_quarantined >
      0) {
    std::snprintf(out, sizeof(out),
                  " store_faults=%" PRIu64 " db_faults=%" PRIu64
                  " restore_fallbacks=%" PRIu64 " quarantined=%" PRIu64
                  " degraded_starts=%" PRIu64 " obs_replayed=%" PRIu64
                  " checkpoints_skipped=%" PRIu64,
                  faults.store_faults, faults.db_faults, faults.restore_fallbacks,
                  faults.snapshots_quarantined, faults.degraded_starts,
                  faults.observations_replayed, faults.checkpoints_skipped);
    summary_line += out;
  }
  return summary_line;
}

std::string SummaryToCsv(const SimulationReport& report) {
  const DistributionSummary summary = report.LatencySummary();
  std::string csv("key,value\n");
  char line[128];
  const auto add_u64 = [&](const char* key, uint64_t value) {
    std::snprintf(line, sizeof(line), "%s,%" PRIu64 "\n", key, value);
    csv += line;
  };
  const auto add_f64 = [&](const char* key, double value) {
    std::snprintf(line, sizeof(line), "%s,%.3f\n", key, value);
    csv += line;
  };
  add_u64("requests", report.records.size());
  add_f64("p50_us", summary.Quantile(50));
  add_f64("p90_us", summary.Quantile(90));
  add_f64("p99_us", summary.Quantile(99));
  add_u64("worker_lifetimes", report.worker_lifetimes);
  add_u64("cold_starts", report.cold_starts);
  add_u64("restores", report.restores);
  add_u64("checkpoints", report.checkpoints);
  add_u64("object_store_peak_bytes", report.object_store.peak_logical_bytes);
  add_u64("object_store_puts", report.object_store.put_count);
  add_u64("object_store_gets", report.object_store.get_count);
  // Digest-excluded physical (chunk-granular) storage view. For flat stores
  // physical mirrors logical and the dedup counters stay zero.
  const PhysicalAccounting& phys = report.object_store.physical;
  add_u64("store_logical_bytes", report.object_store.logical_bytes_stored);
  add_u64("store_physical_bytes", phys.bytes_stored);
  add_u64("store_physical_peak_bytes", phys.peak_bytes);
  add_u64("store_flat_bytes", phys.flat_bytes_stored);
  add_f64("store_dedup_ratio", phys.DedupRatio());
  add_u64("store_chunks_stored", phys.chunks_stored);
  add_u64("store_chunk_refs", phys.chunk_refs);
  add_u64("store_dedup_hits", phys.dedup_hits);
  add_u64("store_dedup_bytes_saved", phys.dedup_bytes_saved);
  add_u64("store_delta_bytes_shared", phys.delta_bytes_shared);
  add_u64("store_chunks_fetched", phys.chunks_fetched);
  add_u64("store_bytes_fetched", phys.bytes_fetched);
  add_u64("store_chunks_prefetched", phys.chunks_prefetched);
  add_u64("store_demand_faults", phys.demand_faults);
  add_u64("store_cache_hits", phys.cache_hits);
  add_u64("store_chunks_collected", phys.chunks_collected);
  add_u64("store_bytes_collected", phys.bytes_collected);
  add_u64("database_reads", report.database.reads);
  add_u64("database_writes", report.database.writes);
  const FaultRecoveryStats& faults = report.faults;
  add_u64("store_faults", faults.store_faults);
  add_u64("db_faults", faults.db_faults);
  add_u64("corrupted_puts", faults.corrupted_puts);
  add_u64("torn_puts", faults.torn_puts);
  add_u64("latency_injections", faults.latency_injections);
  add_u64("restore_retries", faults.restore_retries);
  add_u64("restore_failures", faults.restore_failures);
  add_u64("restore_fallbacks", faults.restore_fallbacks);
  add_u64("snapshots_quarantined", faults.snapshots_quarantined);
  add_u64("stale_entries_pruned", faults.stale_entries_pruned);
  add_u64("degraded_starts", faults.degraded_starts);
  add_u64("observations_buffered", faults.observations_buffered);
  add_u64("observations_replayed", faults.observations_replayed);
  add_u64("observations_dropped", faults.observations_dropped);
  add_u64("checkpoints_skipped", faults.checkpoints_skipped);
  add_u64("eviction_deletes_deferred", faults.eviction_deletes_deferred);
  add_u64("orphans_collected", faults.orphans_collected);
  add_u64("state_cas_attempts", faults.cas_attempts);
  add_u64("state_cas_conflicts", faults.cas_conflicts);
  add_u64("db_transient_retries", faults.db_transient_retries);
  return csv;
}

Status WriteSummaryCsv(const SimulationReport& report, const std::string& path) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) {
    return InternalError("cannot open '" + path + "' for writing");
  }
  out << SummaryToCsv(report);
  out.flush();
  if (!out) {
    return InternalError("short write to '" + path + "'");
  }
  return OkStatus();
}

namespace {

Result<DistributionSummary> DeserializeSummary(ByteReader& reader) {
  DistributionSummary out;
  PRONGHORN_ASSIGN_OR_RETURN(uint64_t count, reader.ReadVarint());
  if (count > reader.remaining() / sizeof(double)) {
    return DataLossError("summary sample count exceeds remaining bytes");
  }
  for (uint64_t i = 0; i < count; ++i) {
    PRONGHORN_ASSIGN_OR_RETURN(double sample, reader.ReadDouble());
    out.Add(sample);
  }
  return out;
}

Result<Duration> ReadDuration(ByteReader& reader) {
  PRONGHORN_ASSIGN_OR_RETURN(int64_t micros, reader.ReadInt64());
  return Duration::Micros(micros);
}

}  // namespace

Status DeserializeStoreAccounting(ByteReader& reader, StoreAccounting& out) {
  PRONGHORN_ASSIGN_OR_RETURN(out.logical_bytes_stored, reader.ReadUint64());
  PRONGHORN_ASSIGN_OR_RETURN(out.peak_logical_bytes, reader.ReadUint64());
  PRONGHORN_ASSIGN_OR_RETURN(out.network_bytes_uploaded, reader.ReadUint64());
  PRONGHORN_ASSIGN_OR_RETURN(out.network_bytes_downloaded, reader.ReadUint64());
  PRONGHORN_ASSIGN_OR_RETURN(out.put_count, reader.ReadUint64());
  PRONGHORN_ASSIGN_OR_RETURN(out.get_count, reader.ReadUint64());
  PRONGHORN_ASSIGN_OR_RETURN(out.delete_count, reader.ReadUint64());
  return OkStatus();
}

Status DeserializeKvAccounting(ByteReader& reader, KvAccounting& out) {
  PRONGHORN_ASSIGN_OR_RETURN(out.reads, reader.ReadUint64());
  PRONGHORN_ASSIGN_OR_RETURN(out.writes, reader.ReadUint64());
  PRONGHORN_ASSIGN_OR_RETURN(out.cas_attempts, reader.ReadUint64());
  PRONGHORN_ASSIGN_OR_RETURN(out.cas_conflicts, reader.ReadUint64());
  return OkStatus();
}

Status DeserializeFaultRecoveryStats(ByteReader& reader, FaultRecoveryStats& out) {
  PRONGHORN_ASSIGN_OR_RETURN(out.store_faults, reader.ReadUint64());
  PRONGHORN_ASSIGN_OR_RETURN(out.db_faults, reader.ReadUint64());
  PRONGHORN_ASSIGN_OR_RETURN(out.corrupted_puts, reader.ReadUint64());
  PRONGHORN_ASSIGN_OR_RETURN(out.torn_puts, reader.ReadUint64());
  PRONGHORN_ASSIGN_OR_RETURN(out.latency_injections, reader.ReadUint64());
  PRONGHORN_ASSIGN_OR_RETURN(out.restore_retries, reader.ReadUint64());
  PRONGHORN_ASSIGN_OR_RETURN(out.restore_failures, reader.ReadUint64());
  PRONGHORN_ASSIGN_OR_RETURN(out.restore_fallbacks, reader.ReadUint64());
  PRONGHORN_ASSIGN_OR_RETURN(out.snapshots_quarantined, reader.ReadUint64());
  PRONGHORN_ASSIGN_OR_RETURN(out.stale_entries_pruned, reader.ReadUint64());
  PRONGHORN_ASSIGN_OR_RETURN(out.degraded_starts, reader.ReadUint64());
  PRONGHORN_ASSIGN_OR_RETURN(out.observations_buffered, reader.ReadUint64());
  PRONGHORN_ASSIGN_OR_RETURN(out.observations_replayed, reader.ReadUint64());
  PRONGHORN_ASSIGN_OR_RETURN(out.observations_dropped, reader.ReadUint64());
  PRONGHORN_ASSIGN_OR_RETURN(out.checkpoints_skipped, reader.ReadUint64());
  PRONGHORN_ASSIGN_OR_RETURN(out.eviction_deletes_deferred, reader.ReadUint64());
  PRONGHORN_ASSIGN_OR_RETURN(out.orphans_collected, reader.ReadUint64());
  PRONGHORN_ASSIGN_OR_RETURN(out.cas_attempts, reader.ReadUint64());
  PRONGHORN_ASSIGN_OR_RETURN(out.cas_conflicts, reader.ReadUint64());
  PRONGHORN_ASSIGN_OR_RETURN(out.db_transient_retries, reader.ReadUint64());
  return OkStatus();
}

Status DeserializeReportCore(ByteReader& reader, ReportCore& out) {
  PRONGHORN_RETURN_IF_ERROR(DeserializeStoreAccounting(reader, out.object_store));
  PRONGHORN_RETURN_IF_ERROR(DeserializeKvAccounting(reader, out.database));
  return DeserializeFaultRecoveryStats(reader, out.faults);
}

Result<SimulationReport> DeserializeFunctionReport(ByteReader& reader) {
  SimulationReport out;
  PRONGHORN_ASSIGN_OR_RETURN(uint64_t record_count, reader.ReadVarint());
  // Each record takes at least 4 bytes on the wire (two varints, an int64...
  // actually >= 2+8+1); a loose floor guards against hostile counts.
  if (record_count > reader.remaining()) {
    return DataLossError("record count exceeds remaining bytes");
  }
  out.records.reserve(record_count);
  for (uint64_t i = 0; i < record_count; ++i) {
    RequestRecord record;
    PRONGHORN_ASSIGN_OR_RETURN(record.global_index, reader.ReadVarint());
    PRONGHORN_ASSIGN_OR_RETURN(record.request_number, reader.ReadVarint());
    PRONGHORN_ASSIGN_OR_RETURN(record.latency, ReadDuration(reader));
    PRONGHORN_ASSIGN_OR_RETURN(uint8_t flags, reader.ReadUint8());
    record.first_of_lifetime = (flags & 1) != 0;
    record.cold_start = (flags & 2) != 0;
    record.checkpoint_after = (flags & 4) != 0;
    out.records.push_back(record);
  }
  PRONGHORN_ASSIGN_OR_RETURN(out.exploring_latency, DeserializeSummary(reader));
  PRONGHORN_ASSIGN_OR_RETURN(out.exploiting_latency, DeserializeSummary(reader));
  PRONGHORN_ASSIGN_OR_RETURN(out.worker_lifetimes, reader.ReadUint64());
  PRONGHORN_ASSIGN_OR_RETURN(out.checkpoints, reader.ReadUint64());
  PRONGHORN_ASSIGN_OR_RETURN(out.restores, reader.ReadUint64());
  PRONGHORN_ASSIGN_OR_RETURN(out.cold_starts, reader.ReadUint64());
  PRONGHORN_ASSIGN_OR_RETURN(out.total_checkpoint_downtime, ReadDuration(reader));
  PRONGHORN_ASSIGN_OR_RETURN(out.total_startup_latency, ReadDuration(reader));
  PRONGHORN_ASSIGN_OR_RETURN(out.total_worker_alive_time, ReadDuration(reader));
  PRONGHORN_ASSIGN_OR_RETURN(out.worker_memory_time_mb_s, reader.ReadDouble());
  PRONGHORN_ASSIGN_OR_RETURN(int64_t end_us, reader.ReadInt64());
  out.end_time = TimePoint::FromMicros(end_us);
  PRONGHORN_ASSIGN_OR_RETURN(out.overheads.worker_starts, reader.ReadUint64());
  PRONGHORN_ASSIGN_OR_RETURN(out.overheads.requests_served, reader.ReadUint64());
  PRONGHORN_ASSIGN_OR_RETURN(out.overheads.checkpoints_taken, reader.ReadUint64());
  PRONGHORN_ASSIGN_OR_RETURN(out.overheads.total_startup_overhead, ReadDuration(reader));
  PRONGHORN_ASSIGN_OR_RETURN(out.overheads.total_request_overhead, ReadDuration(reader));
  PRONGHORN_ASSIGN_OR_RETURN(out.overheads.total_checkpoint_overhead,
                             ReadDuration(reader));
  PRONGHORN_RETURN_IF_ERROR(DeserializeFaultRecoveryStats(reader, out.faults));
  return out;
}

Result<SimulationReport> DeserializeFlatReport(ByteReader& reader) {
  PRONGHORN_ASSIGN_OR_RETURN(SimulationReport out, DeserializeFunctionReport(reader));
  PRONGHORN_RETURN_IF_ERROR(DeserializeStoreAccounting(reader, out.object_store));
  PRONGHORN_RETURN_IF_ERROR(DeserializeKvAccounting(reader, out.database));
  return out;
}

StreamingAccumulator::StreamingAccumulator(RetentionOptions retention)
    : retention_(retention) {}

void StreamingAccumulator::Fold(std::string name, SimulationReport report) {
  std::lock_guard<std::mutex> lock(mutex_);
  FoldLocked(std::move(name), std::move(report));
}

void StreamingAccumulator::FoldLocked(std::string name, SimulationReport report) {
  // Digest row first: the CRC covers exactly the bytes ReportDigest would
  // hash for this function (length-prefixed name + canonical report bytes).
  ByteWriter writer;
  writer.Reserve(report.records.size() * 12 + name.size() + 64);
  writer.WriteString(name);
  SerializeFunctionReport(report, writer);
  DigestRow row;
  row.name = name;
  row.crc = Crc32(writer.data());
  row.length = writer.data().size();
  rows_.push_back(std::move(row));

  // Order-insensitive aggregates.
  for (const RequestRecord& record : report.records) {
    latency_hist_.Add(static_cast<uint64_t>(record.latency.ToMicros()));
  }
  invocations_total_ += report.records.size();
  worker_lifetimes_ += report.worker_lifetimes;
  checkpoints_ += report.checkpoints;
  restores_ += report.restores;
  cold_starts_ += report.cold_starts;
  MergeReportCore(core_, report);

  // Retained detail, bounded by the retention policy.
  switch (retention_.mode) {
    case ReportRetention::kAll:
      break;
    case ReportRetention::kTopLatency:
      latency_rank_.emplace(report.MedianLatencyUs(), name);
      break;
    case ReportRetention::kReservoir:
      hash_rank_.emplace(HashCombine(retention_.seed, StableNameHash(name)), name);
      break;
  }
  folded_names_.insert(name);
  retained_.emplace(std::move(name), std::move(report));
  EnforceRetentionLocked();
}

void StreamingAccumulator::EnforceRetentionLocked() {
  if (retention_.mode == ReportRetention::kAll || retention_.k == 0) {
    return;
  }
  while (retained_.size() > retention_.k) {
    // kTopLatency keeps the k largest ranks (evict the smallest); kReservoir
    // keeps the k smallest hashes (evict the largest). Both evict a pure
    // function of the folded set, so the survivors are order-insensitive.
    std::string victim;
    if (retention_.mode == ReportRetention::kTopLatency) {
      victim = latency_rank_.begin()->second;
      latency_rank_.erase(latency_rank_.begin());
    } else {
      victim = std::prev(hash_rank_.end())->second;
      hash_rank_.erase(std::prev(hash_rank_.end()));
    }
    retained_.erase(victim);
  }
}

bool StreamingAccumulator::Contains(std::string_view name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  return folded_names_.find(name) != folded_names_.end();
}

uint64_t StreamingAccumulator::folded_count() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return rows_.size();
}

uint64_t StreamingAccumulator::invocations_total() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return invocations_total_;
}

uint32_t StreamingAccumulator::Digest() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<const DigestRow*> sorted;
  sorted.reserve(rows_.size());
  for (const DigestRow& row : rows_) {
    sorted.push_back(&row);
  }
  std::sort(sorted.begin(), sorted.end(),
            [](const DigestRow* a, const DigestRow* b) { return a->name < b->name; });
  // Stitch the per-function CRCs (in canonical name order) and the merged
  // core into the CRC of the concatenated serialization: exactly what
  // ReportDigest computes over the materialized reports.
  uint32_t digest = 0;  // CRC32 of the empty prefix.
  for (const DigestRow* row : sorted) {
    digest = Crc32Combine(digest, row->crc, row->length);
  }
  ByteWriter core_writer;
  SerializeReportCore(core_, core_writer);
  return Crc32Combine(digest, Crc32(core_writer.data()), core_writer.data().size());
}

StreamingAccumulator::Merged StreamingAccumulator::Take() {
  const uint32_t digest = Digest();
  std::lock_guard<std::mutex> lock(mutex_);
  Merged out;
  out.retention = retention_.mode;
  out.core = core_;
  out.worker_lifetimes = worker_lifetimes_;
  out.checkpoints = checkpoints_;
  out.restores = restores_;
  out.cold_starts = cold_starts_;
  out.functions_total = rows_.size();
  out.invocations_total = invocations_total_;
  out.latency_hist = latency_hist_;
  out.retained = std::move(retained_);
  out.digest = digest;
  core_ = ReportCore{};
  worker_lifetimes_ = checkpoints_ = restores_ = cold_starts_ = 0;
  invocations_total_ = 0;
  latency_hist_ = LatencyHistogram{};
  rows_.clear();
  folded_names_.clear();
  retained_.clear();
  latency_rank_.clear();
  hash_rank_.clear();
  return out;
}

void StreamingAccumulator::SerializeState(ByteWriter& writer) const {
  std::lock_guard<std::mutex> lock(mutex_);
  writer.WriteUint8(static_cast<uint8_t>(retention_.mode));
  writer.WriteVarint(retention_.k);
  writer.WriteUint64(retention_.seed);
  writer.WriteUint64(worker_lifetimes_);
  writer.WriteUint64(checkpoints_);
  writer.WriteUint64(restores_);
  writer.WriteUint64(cold_starts_);
  writer.WriteVarint(invocations_total_);
  SerializeReportCore(core_, writer);
  latency_hist_.Serialize(writer);
  writer.WriteVarint(rows_.size());
  for (const DigestRow& row : rows_) {
    writer.WriteString(row.name);
    writer.WriteUint32(row.crc);
    writer.WriteVarint(row.length);
  }
  writer.WriteVarint(retained_.size());
  for (const auto& [name, report] : retained_) {
    writer.WriteString(name);
    ByteWriter body;
    body.Reserve(report.records.size() * 12 + 128);
    SerializeFlatReport(report, body);
    writer.WriteBytes(body.data());
  }
}

Status StreamingAccumulator::RestoreState(ByteReader& reader) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (!rows_.empty()) {
    return FailedPreconditionError("RestoreState needs an empty accumulator");
  }
  PRONGHORN_ASSIGN_OR_RETURN(uint8_t mode, reader.ReadUint8());
  PRONGHORN_ASSIGN_OR_RETURN(uint64_t k, reader.ReadVarint());
  PRONGHORN_ASSIGN_OR_RETURN(uint64_t seed, reader.ReadUint64());
  if (mode != static_cast<uint8_t>(retention_.mode) || k != retention_.k ||
      seed != retention_.seed) {
    return FailedPreconditionError(
        "checkpointed retention options do not match this run (checkpoint: mode=" +
        std::to_string(mode) + " k=" + std::to_string(k) + ")");
  }
  PRONGHORN_ASSIGN_OR_RETURN(worker_lifetimes_, reader.ReadUint64());
  PRONGHORN_ASSIGN_OR_RETURN(checkpoints_, reader.ReadUint64());
  PRONGHORN_ASSIGN_OR_RETURN(restores_, reader.ReadUint64());
  PRONGHORN_ASSIGN_OR_RETURN(cold_starts_, reader.ReadUint64());
  PRONGHORN_ASSIGN_OR_RETURN(invocations_total_, reader.ReadVarint());
  PRONGHORN_RETURN_IF_ERROR(DeserializeReportCore(reader, core_));
  PRONGHORN_ASSIGN_OR_RETURN(latency_hist_, LatencyHistogram::Deserialize(reader));
  PRONGHORN_ASSIGN_OR_RETURN(uint64_t row_count, reader.ReadVarint());
  for (uint64_t i = 0; i < row_count; ++i) {
    DigestRow row;
    PRONGHORN_ASSIGN_OR_RETURN(row.name, reader.ReadString());
    PRONGHORN_ASSIGN_OR_RETURN(row.crc, reader.ReadUint32());
    PRONGHORN_ASSIGN_OR_RETURN(row.length, reader.ReadVarint());
    folded_names_.insert(row.name);
    rows_.push_back(std::move(row));
  }
  PRONGHORN_ASSIGN_OR_RETURN(uint64_t retained_count, reader.ReadVarint());
  for (uint64_t i = 0; i < retained_count; ++i) {
    PRONGHORN_ASSIGN_OR_RETURN(std::string name, reader.ReadString());
    PRONGHORN_ASSIGN_OR_RETURN(std::vector<uint8_t> body, reader.ReadBytes());
    ByteReader body_reader(body);
    PRONGHORN_ASSIGN_OR_RETURN(SimulationReport report,
                               DeserializeFlatReport(body_reader));
    if (!body_reader.AtEnd()) {
      return DataLossError("trailing bytes after retained report '" + name + "'");
    }
    switch (retention_.mode) {
      case ReportRetention::kAll:
        break;
      case ReportRetention::kTopLatency:
        latency_rank_.emplace(report.MedianLatencyUs(), name);
        break;
      case ReportRetention::kReservoir:
        hash_rank_.emplace(HashCombine(retention_.seed, StableNameHash(name)), name);
        break;
    }
    retained_.emplace(std::move(name), std::move(report));
  }
  return OkStatus();
}

}  // namespace pronghorn
