// pronghorn_trace: synthetic Azure-style trace generator.
//
// Emits an invocation trace CSV consumable by the replay pipeline
// (examples/trace_replay, SimEnvironment::RunArrivals).
//
//   pronghorn_trace --functions MST:85,Thumbnailer:75,HTMLRendering:65 \
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
    const std::string& spec) {
  std::vector<std::pair<std::string, double>> out;
  size_t pos = 0;
  while (pos < spec.size()) {
    size_t end = spec.find(',', pos);
    if (end == std::string::npos) {
      end = spec.size();
    }
    const std::string entry = spec.substr(pos, end - pos);
    pos = end + 1;
    if (entry.empty()) {
      continue;
    }
    const size_t colon = entry.find(':');
    if (colon == std::string::npos || colon == 0) {
      return InvalidArgumentError("bad --functions entry '" + entry +
                                  "', expected name:percentile");
    }
    char* parse_end = nullptr;
    const double percentile = std::strtod(entry.c_str() + colon + 1, &parse_end);
    if (parse_end != entry.c_str() + entry.size()) {
      return InvalidArgumentError("bad percentile in '" + entry + "'");
    }
    out.emplace_back(entry.substr(0, colon), percentile);
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

  auto functions = ParseFunctions(*flags.GetString("functions"));
  if (!functions.ok()) {
    return Fail(functions.status());
  }
  const int64_t window_s = *flags.GetInt("window-s");
  const int64_t windows = *flags.GetInt("windows");
  if (window_s <= 0 || windows <= 0) {
    return Fail(InvalidArgumentError("--window-s and --windows must be positive"));
  }

  AzureTraceModelParams params;
  params.log10_daily_mu = *flags.GetDouble("mu");
  params.log10_daily_sigma = *flags.GetDouble("sigma");
  params.burstiness = *flags.GetDouble("burstiness");
  const AzureTraceModel model(params);
  TraceGenerator generator(model, static_cast<uint64_t>(*flags.GetInt("seed")));

  // Concatenate `windows` consecutive windows, shifting each by its offset.
  InvocationTrace trace;
  std::vector<TraceRecord> merged;
  for (int64_t w = 0; w < windows; ++w) {
    auto window_trace = generator.GenerateTrace(
        *functions, Duration::Seconds(static_cast<double>(window_s)));
    if (!window_trace.ok()) {
      return Fail(window_trace.status());
    }
    const int64_t offset_us = w * window_s * 1000000;
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
                 trace.size(), static_cast<long long>(windows), out_path.c_str());
  }
  return 0;
}
