// pronghorn_sim: command-line driver for the simulator.
//
// The experiment table (src/platform/experiment.h) declares, parses and
// documents every flag; `pronghorn_sim --help` prints it. This file runs the
// parsed experiment through Simulate() (src/platform/simulate.h) and prints
// or writes what it returns. The three modes:
//
//   pronghorn_sim --benchmark DynamicHTML --eviction 1 --csv out.csv  # one function
//   pronghorn_sim --fleet 100 --threads 8   # N isolated shards; digest at any --threads
//   pronghorn_sim --platform 4              # N functions on one shared control plane
//
// Exit status: 0 on success, 2 for an invalid experiment (the message names
// the flag), 1 when the run itself fails (e.g. a refused --resume).

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <system_error>
#include <vector>

#include "src/common/thread_pool.h"
#include "src/obs/sink.h"
#include "src/platform/experiment.h"
#include "src/platform/report_io.h"

using namespace pronghorn;

namespace {

int Fail(const Status& status, int exit_code = 1) {
  std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
  return exit_code;
}

// Builds the observability sink when any of --trace-out / --metrics-out /
// --histogram asks for one; returns nullptr (observability fully disabled,
// the zero-cost path) otherwise.
std::unique_ptr<StandardObs> MakeObsSink(const ExperimentOutputs& outputs) {
  const bool want_trace = !outputs.trace_out.empty();
  const bool want_metrics = !outputs.metrics_out.empty() || outputs.histogram;
  if (!want_trace && !want_metrics) {
    return nullptr;
  }
  StandardObs::Options options;
  options.trace = want_trace;
  options.metrics = true;  // Counters are cheap; keep them for either output.
  return std::make_unique<StandardObs>(options);
}

// --csv: one record per request, merged across functions in canonical
// (name) order and renumbered globally.
Status WriteCsv(const std::string& path, const SimReport& report) {
  SimulationReport merged;
  merged.records.reserve(report.latency.count());
  for (const auto& [function, function_report] : report.per_function) {
    for (RequestRecord record : function_report.records) {
      record.global_index = merged.records.size();
      merged.records.push_back(record);
    }
  }
  PRONGHORN_RETURN_IF_ERROR(WriteRecordsCsv(merged, path));
  std::printf("wrote %zu records to %s\n", merged.records.size(), path.c_str());
  return OkStatus();
}

// Writes the files the output flags asked for, then the histograms.
Status WriteOutputs(const ExperimentOutputs& outputs, const SimReport& report) {
  if (!outputs.csv.empty()) {
    PRONGHORN_RETURN_IF_ERROR(WriteCsv(outputs.csv, report));
  }
  if (!outputs.summary_csv.empty()) {
    PRONGHORN_RETURN_IF_ERROR(WriteSummaryCsv(report.flat(), outputs.summary_csv));
    std::printf("wrote summary to %s\n", outputs.summary_csv.c_str());
  }
  if (!outputs.trace_out.empty()) {
    if (report.trace == nullptr) {
      return InternalError("trace requested but no recorder attached");
    }
    PRONGHORN_RETURN_IF_ERROR(report.trace->WriteChromeJson(outputs.trace_out));
    std::printf("wrote trace (%llu events, %llu dropped) to %s\n",
                static_cast<unsigned long long>(report.trace->recorded() -
                                                report.trace->dropped()),
                static_cast<unsigned long long>(report.trace->dropped()),
                outputs.trace_out.c_str());
  }
  if (!outputs.metrics_out.empty()) {
    std::ofstream out(outputs.metrics_out, std::ios::binary);
    out << report.metrics.ToJson();
    if (!out.good()) {
      return InternalError("failed to write metrics JSON to " + outputs.metrics_out);
    }
    std::printf("wrote metrics to %s\n", outputs.metrics_out.c_str());
  }
  if (outputs.histogram) {
    if (report.metrics.histograms.empty()) {
      std::printf("histograms: (none recorded)\n");
    }
    for (const auto& [name, histogram] : report.metrics.histograms) {
      std::printf("histogram %s: count=%llu p50=%.0f p90=%.0f p99=%.0f max=%llu\n"
                  "  |%s|\n",
                  name.c_str(), static_cast<unsigned long long>(histogram.count()),
                  histogram.Quantile(50), histogram.Quantile(90),
                  histogram.Quantile(99),
                  static_cast<unsigned long long>(histogram.max()),
                  histogram.ToAsciiArt().c_str());
    }
  }
  return OkStatus();
}

void PrintFaultLine(const FaultRecoveryStats& faults) {
  std::printf("faults: store=%llu db=%llu corrupted=%llu torn=%llu "
              "fallbacks=%llu quarantined=%llu degraded=%llu replayed=%llu "
              "ckpt_skipped=%llu\n",
              static_cast<unsigned long long>(faults.store_faults),
              static_cast<unsigned long long>(faults.db_faults),
              static_cast<unsigned long long>(faults.corrupted_puts),
              static_cast<unsigned long long>(faults.torn_puts),
              static_cast<unsigned long long>(faults.restore_fallbacks),
              static_cast<unsigned long long>(faults.snapshots_quarantined),
              static_cast<unsigned long long>(faults.degraded_starts),
              static_cast<unsigned long long>(faults.observations_replayed),
              static_cast<unsigned long long>(faults.checkpoints_skipped));
}

void PrintFunctionRows(const SimReport& report, size_t shown) {
  for (size_t i = 0; i < shown; ++i) {
    const auto& [function, function_report] = report.per_function[i];
    std::printf("  %-24s p50_us=%9.0f checkpoints=%4llu restores=%4llu\n",
                function.c_str(), function_report.LatencySummary().Median(),
                static_cast<unsigned long long>(function_report.checkpoints),
                static_cast<unsigned long long>(function_report.restores));
  }
}

void PrintFleet(const Experiment& e, const SimReport& report) {
  std::printf("fleet=%llu policy=%s eviction=%s threads=%u mix=%s\n",
              static_cast<unsigned long long>(e.functions), e.policy.c_str(),
              e.eviction.c_str(), ThreadPool::EffectiveParallelism(e.sim.threads),
              std::string(ArrivalMixName(e.arrival_mix)).c_str());
  // Under bounded retention the sample-exact summary is empty; the bucket-
  // exact histogram covers every invocation in all modes.
  const bool bounded = report.retention != ReportRetention::kAll;
  if (bounded) {
    std::printf("retention=%s k=%llu functions=%llu invocations=%llu "
                "(per-function detail decimated; digest covers all)\n",
                std::string(RetentionLabel(report.retention)).c_str(),
                static_cast<unsigned long long>(e.sim.retention.k),
                static_cast<unsigned long long>(report.functions_total),
                static_cast<unsigned long long>(report.invocations_total));
  }
  const auto quantile = [&](double q) {
    return bounded ? report.latency_hist.Quantile(q) : report.latency.Quantile(q);
  };
  std::printf("requests=%llu p50_us=%.0f p90_us=%.0f p99_us=%.0f lifetimes=%llu "
              "cold=%llu restores=%llu checkpoints=%llu digest=%08x\n",
              static_cast<unsigned long long>(
                  bounded ? report.invocations_total : report.latency.count()),
              quantile(50), quantile(90), quantile(99),
              static_cast<unsigned long long>(report.worker_lifetimes),
              static_cast<unsigned long long>(report.cold_starts),
              static_cast<unsigned long long>(report.restores),
              static_cast<unsigned long long>(report.checkpoints), report.Digest());
  if (e.sim.faults.Active()) {
    PrintFaultLine(report.faults);
  }
  const size_t shown = std::min<size_t>(report.per_function.size(), 8);
  PrintFunctionRows(report, shown);
  if (report.per_function.size() > shown) {
    std::printf("  ... %zu more deployments\n", report.per_function.size() - shown);
  }
}

void PrintPlatform(const Experiment& e, const SimReport& report) {
  std::printf("platform=%llu policy=%s eviction=%s\n",
              static_cast<unsigned long long>(e.functions), e.policy.c_str(),
              e.eviction.c_str());
  std::printf("requests=%zu p50_us=%.0f p90_us=%.0f p99_us=%.0f lifetimes=%llu "
              "checkpoints=%llu digest=%08x\n",
              report.latency.count(), report.latency.Quantile(50),
              report.latency.Quantile(90), report.latency.Quantile(99),
              static_cast<unsigned long long>(report.worker_lifetimes),
              static_cast<unsigned long long>(report.checkpoints), report.Digest());
  if (e.sim.faults.Active()) {
    PrintFaultLine(report.faults);
  }
  PrintFunctionRows(report, report.per_function.size());
}

}  // namespace

int main(int argc, char** argv) {
  const Result<Experiment> parsed = ParseExperiment(argc - 1, argv + 1);
  if (!parsed.ok()) {
    std::fprintf(stderr, "error: %s\n%s", parsed.status().ToString().c_str(),
                 ExperimentUsage("pronghorn_sim").c_str());
    return 2;
  }
  const Experiment& e = *parsed;
  if (e.outputs.help) {
    std::printf("%s", ExperimentUsage("pronghorn_sim").c_str());
    return 0;
  }
  if (e.outputs.list) {
    for (const auto& p : WorkloadRegistry::Default().profiles()) {
      std::printf("%-14s %-5s %s%s\n", p.name.c_str(),
                  std::string(RuntimeFamilyName(p.family)).c_str(),
                  p.io_bound ? "io-bound" : "compute-bound",
                  p.auxiliary ? " (auxiliary)" : "");
    }
    return 0;
  }
  for (const std::string& dir : {e.sim.service.journal_dir, e.sim.sim_checkpoint.dir}) {
    std::error_code ec;
    if (!dir.empty() && !std::filesystem::create_directories(dir, ec) && ec) {
      return Fail(InvalidArgumentError("cannot create '" + dir + "': " + ec.message()), 2);
    }
  }
  const Result<Deployments> deployments =
      BuildDeployments(e, WorkloadRegistry::Default());
  if (!deployments.ok()) {
    return Fail(deployments.status(), 2);
  }

  const std::unique_ptr<StandardObs> obs = MakeObsSink(e.outputs);
  const Result<SimReport> report = Simulate(WorkloadRegistry::Default(), e.topology,
                                            deployments->specs, e.sim, obs.get());
  if (!report.ok()) {
    return Fail(report.status());
  }
  switch (e.topology) {
    case SimTopology::kSingle:
      std::printf("%s policy=%s eviction=%s\n%s\n", e.benchmark.c_str(),
                  e.policy.c_str(), e.eviction.c_str(),
                  SummarizeReport(report->flat()).c_str());
      break;
    case SimTopology::kFleet:
      PrintFleet(e, *report);
      break;
    case SimTopology::kPlatform:
      PrintPlatform(e, *report);
      break;
  }
  if (Status s = WriteOutputs(e.outputs, *report); !s.ok()) {
    return Fail(s);
  }
  return 0;
}
