// pronghorn_plot: terminal viewer for per-request records CSVs (the files
// tools/pronghorn_sim --csv and tools/pronghorn_eval emit). Prints percentile
// tables, an ASCII latency density on a log axis, the CDF series the paper's
// figures plot, and the per-maturity medians behind Figure 1.
//
//   pronghorn_plot results/BFS_request-centric_evict1.csv [more.csv ...]

#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "src/common/flags.h"
#include "src/common/stats.h"
#include "src/platform/analysis.h"
#include "src/platform/report_io.h"

using namespace pronghorn;

namespace {

void ShowFile(const std::string& path, bool show_cdf, bool show_maturity) {
  auto records = ReadRecordsCsv(path);
  if (!records.ok()) {
    std::fprintf(stderr, "%s: %s\n", path.c_str(),
                 records.status().ToString().c_str());
    return;
  }
  DistributionSummary summary;
  uint64_t checkpoints = 0;
  uint64_t lifetimes = 0;
  for (const RequestRecord& record : *records) {
    summary.Add(static_cast<double>(record.latency.ToMicros()));
    checkpoints += record.checkpoint_after ? 1 : 0;
    lifetimes += record.first_of_lifetime ? 1 : 0;
  }
  std::printf("%s\n", path.c_str());
  std::printf("  %zu requests, %llu lifetimes, %llu checkpoints\n", records->size(),
              static_cast<unsigned long long>(lifetimes),
              static_cast<unsigned long long>(checkpoints));
  if (summary.empty()) {
    return;
  }
  std::printf("  p10=%0.f p25=%.0f p50=%.0f p75=%.0f p90=%.0f p99=%.0f us\n",
              summary.Quantile(10), summary.Quantile(25), summary.Quantile(50),
              summary.Quantile(75), summary.Quantile(90), summary.Quantile(99));

  const double log_lo = std::floor(std::log10(std::max(summary.Quantile(1), 1.0)));
  const double log_hi = std::ceil(std::log10(std::max(summary.Quantile(99), 10.0)));
  LogHistogram histogram(log_lo, log_hi, 64);
  for (double v : summary.samples()) {
    histogram.Add(v);
  }
  std::printf("  density |%s| 1e%.0f..1e%.0f us (log axis)\n",
              histogram.ToAsciiArt(64).c_str(), log_lo, log_hi);

  if (show_cdf) {
    std::printf("  CDF:\n");
    for (const auto& point : summary.Cdf(20)) {
      const int bar = static_cast<int>(point.probability * 50);
      std::printf("    %9.0f us  %5.2f %s\n", point.value, point.probability,
                  std::string(static_cast<size_t>(bar), '#').c_str());
    }
  }
  if (show_maturity) {
    std::printf("  median latency by JIT maturity (request number):\n");
    const auto rows = LatencyByMaturity(*records);
    // Print at most 20 evenly spaced rows.
    const size_t step = std::max<size_t>(1, rows.size() / 20);
    for (size_t i = 0; i < rows.size(); i += step) {
      std::printf("    request %5llu  median %9.0f us  (%llu samples)\n",
                  static_cast<unsigned long long>(rows[i].request_number),
                  rows[i].median_latency_us,
                  static_cast<unsigned long long>(rows[i].samples));
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  FlagParser flags;
  flags.AddSwitch("cdf", "print the 20-point CDF series");
  flags.AddSwitch("maturity", "print median latency by request number");
  flags.AddSwitch("help", "show usage");
  if (Status s = flags.Parse(argc - 1, argv + 1); !s.ok()) {
    std::fprintf(stderr, "%s\n%s", s.ToString().c_str(),
                 flags.UsageText("pronghorn_plot <records.csv>...").c_str());
    return 2;
  }
  if (flags.GetBool("help").value_or(false) || flags.positional().empty()) {
    std::printf("%s", flags.UsageText("pronghorn_plot <records.csv>...").c_str());
    return flags.positional().empty() ? 2 : 0;
  }
  for (const std::string& path : flags.positional()) {
    ShowFile(path, flags.GetBool("cdf").value_or(false),
             flags.GetBool("maturity").value_or(false));
  }
  return 0;
}
