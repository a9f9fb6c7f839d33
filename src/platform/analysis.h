// Post-hoc analysis helpers over simulation reports (Table 4 methodology).

#ifndef PRONGHORN_SRC_PLATFORM_ANALYSIS_H_
#define PRONGHORN_SRC_PLATFORM_ANALYSIS_H_

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "src/platform/metrics.h"

namespace pronghorn {

// The paper's Table 4 convergence metric: slide a window of `window` over the
// recorded latencies and report the global index of the first window whose
// median is within `tolerance` (fractional, e.g. 0.02) of the final value —
// the "final value" being the median of the last window. Returns nullopt when
// there are fewer than `window` records or no window qualifies.
std::optional<uint64_t> ConvergenceRequest(std::span<const RequestRecord> records,
                                           size_t window, double tolerance);

// Median latency (microseconds) per maturity request number, aggregated over
// all lifetimes in the report — the series Figure 1 plots.
struct MaturityLatency {
  uint64_t request_number = 0;
  double median_latency_us = 0.0;
  uint64_t samples = 0;
};
std::vector<MaturityLatency> LatencyByMaturity(std::span<const RequestRecord> records);

// Percentage improvement of `ours` over `baseline` medians: positive means
// `ours` is faster. Returns 0 when the baseline median is 0.
double MedianImprovementPercent(const SimulationReport& baseline,
                                const SimulationReport& ours);

}  // namespace pronghorn

#endif  // PRONGHORN_SRC_PLATFORM_ANALYSIS_H_
