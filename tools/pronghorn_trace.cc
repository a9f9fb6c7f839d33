// pronghorn_trace: synthetic Azure-style trace generator.
//
// Emits an invocation trace CSV consumable by the replay pipeline
// (examples/trace_replay, SimEnvironment::RunArrivals).
//
//   pronghorn_trace --functions MST:85,Thumbnailer:75,HTMLRendering:65
//                   --window-s 900 --windows 4 --seed 7 --out trace.csv

#include <cstdio>
#include <string>
#include <vector>

#include "src/common/flags.h"
#include "src/trace/trace_generator.h"

using namespace pronghorn;

namespace {

int Fail(const Status& status) {
  std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
  return 1;
}

// Parses "name:percentile,name:percentile,...".
Result<std::vector<std::pair<std::string, double>>> ParseFunctions(
    std::string_view spec) {
  std::vector<std::pair<std::string, double>> out;
  for (const std::string_view entry : Split(spec, ',')) {
    if (entry.empty()) {
      continue;
    }
    const std::vector<std::string_view> fields = Split(entry, ':');
    if (fields.size() != 2 || fields[0].empty()) {
      return InvalidArgumentError("bad --functions entry '" + std::string(entry) +
                                  "', expected name:percentile");
    }
    const Result<double> percentile = ParseNumber(fields[1], 0.0, 100.0);
    if (!percentile.ok()) {
      return InvalidArgumentError("bad percentile in '" + std::string(entry) +
                                  "': " + percentile.status().message());
    }
    out.emplace_back(std::string(fields[0]), *percentile);
  }
  if (out.empty()) {
    return InvalidArgumentError("--functions must name at least one function");
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  FlagParser flags;
  flags.AddFlag("functions", "MST:85,Thumbnailer:75,HTMLRendering:65",
                "comma-separated name:popularity-percentile pairs");
  flags.AddFlag("window-s", "900", "window length in seconds");
  flags.AddFlag("windows", "1", "number of consecutive windows");
  flags.AddFlag("seed", "7", "generator seed");
  flags.AddFlag("mu", "2.5", "log10 daily-invocations mean (Azure model)");
  flags.AddFlag("sigma", "1.5", "log10 daily-invocations sigma");
  flags.AddFlag("burstiness", "0.4", "arrival burstiness (lognormal sigma)");
  flags.AddFlag("out", "", "output CSV path (stdout when empty)");
  flags.AddSwitch("help", "show usage");

  if (Status s = flags.Parse(argc - 1, argv + 1); !s.ok()) {
    std::fprintf(stderr, "%s\n%s", s.ToString().c_str(),
                 flags.UsageText("pronghorn_trace").c_str());
    return 2;
  }
  if (flags.GetBool("help").value_or(false)) {
    std::printf("%s", flags.UsageText("pronghorn_trace").c_str());
    return 0;
  }

  // Bounds keep a typo from asking for an unbounded trace or an overflowed
  // timestamp (windows x window-s stays far below 2^63 microseconds).
  const auto functions = ParseFunctions(*flags.GetString("functions"));
  const Result<int64_t> window_s = flags.GetInt("window-s", 1, 10'000'000);
  const Result<int64_t> windows = flags.GetInt("windows", 1, 10'000);
  const Result<int64_t> seed = flags.GetInt("seed");
  const Result<double> mu = flags.GetDouble("mu", -10.0, 10.0);
  const Result<double> sigma = flags.GetDouble("sigma", 0.0, 10.0);
  const Result<double> burstiness = flags.GetDouble("burstiness", 0.0, 10.0);
  for (const Status& s : {functions.status(), window_s.status(), windows.status(),
                          seed.status(), mu.status(), sigma.status(),
                          burstiness.status()}) {
    if (!s.ok()) {
      std::fprintf(stderr, "error: %s\n", s.ToString().c_str());
      return 2;
    }
  }

  AzureTraceModelParams params;
  params.log10_daily_mu = *mu;
  params.log10_daily_sigma = *sigma;
  params.burstiness = *burstiness;
  const AzureTraceModel model(params);
  TraceGenerator generator(model, static_cast<uint64_t>(*seed));

  // Concatenate `windows` consecutive windows, shifting each by its offset.
  InvocationTrace trace;
  std::vector<TraceRecord> merged;
  for (int64_t w = 0; w < *windows; ++w) {
    auto window_trace = generator.GenerateTrace(
        *functions, Duration::Seconds(static_cast<double>(*window_s)));
    if (!window_trace.ok()) {
      return Fail(window_trace.status());
    }
    const int64_t offset_us = w * *window_s * 1000000;
    for (const TraceRecord& record : window_trace->records()) {
      merged.push_back(TraceRecord{
          record.function, TimePoint::FromMicros(record.arrival.ToMicros() + offset_us)});
    }
  }
  for (TraceRecord& record : merged) {
    if (Status s = trace.Append(std::move(record)); !s.ok()) {
      return Fail(s);
    }
  }

  const std::string out_path = *flags.GetString("out");
  if (out_path.empty()) {
    std::printf("%s", trace.ToCsv().c_str());
  } else {
    if (Status s = trace.WriteCsv(out_path); !s.ok()) {
      return Fail(s);
    }
    std::fprintf(stderr, "wrote %zu invocations over %lld window(s) to %s\n",
                 trace.size(), static_cast<long long>(*windows), out_path.c_str());
  }
  return 0;
}
