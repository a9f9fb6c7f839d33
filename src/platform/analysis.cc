#include "src/platform/analysis.h"

#include <algorithm>
#include <cmath>
#include <map>

#include "src/common/stats.h"

namespace pronghorn {

namespace {

double WindowMedian(std::span<const RequestRecord> records, size_t begin, size_t window) {
  std::vector<double> values;
  values.reserve(window);
  for (size_t i = begin; i < begin + window; ++i) {
    values.push_back(static_cast<double>(records[i].latency.ToMicros()));
  }
  return Percentile(values, 50.0);
}

}  // namespace

std::optional<uint64_t> ConvergenceRequest(std::span<const RequestRecord> records,
                                           size_t window, double tolerance) {
  if (window == 0 || records.size() < window) {
    return std::nullopt;
  }
  const double final_median = WindowMedian(records, records.size() - window, window);
  if (final_median <= 0.0) {
    return std::nullopt;
  }
  for (size_t begin = 0; begin + window <= records.size(); ++begin) {
    const double median = WindowMedian(records, begin, window);
    if (std::abs(median - final_median) / final_median <= tolerance) {
      return records[begin].global_index;
    }
  }
  return std::nullopt;
}

std::vector<MaturityLatency> LatencyByMaturity(std::span<const RequestRecord> records) {
  std::map<uint64_t, std::vector<double>> by_maturity;
  for (const RequestRecord& record : records) {
    by_maturity[record.request_number].push_back(
        static_cast<double>(record.latency.ToMicros()));
  }
  std::vector<MaturityLatency> out;
  out.reserve(by_maturity.size());
  for (const auto& [request_number, latencies] : by_maturity) {
    MaturityLatency row;
    row.request_number = request_number;
    // Percentile sorts a copy, so the bucket's insertion order is irrelevant:
    // the series is invariant under any reordering of the input records.
    row.median_latency_us = Percentile(latencies, 50.0);
    row.samples = latencies.size();
    out.push_back(row);
  }
  return out;
}

double MedianImprovementPercent(const SimulationReport& baseline,
                                const SimulationReport& ours) {
  const double baseline_median = baseline.MedianLatencyUs();
  if (baseline_median <= 0.0) {
    return 0.0;
  }
  return (baseline_median - ours.MedianLatencyUs()) / baseline_median * 100.0;
}

}  // namespace pronghorn
