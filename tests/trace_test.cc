#include <gtest/gtest.h>

#include <filesystem>

#include "src/trace/azure_model.h"
#include "src/trace/trace_file.h"
#include "src/trace/trace_generator.h"

namespace pronghorn {
namespace {

TEST(AzureTraceModelTest, PercentileMonotoneInPopularity) {
  const AzureTraceModel model;
  double previous = 0.0;
  for (double percentile : {10.0, 25.0, 50.0, 65.0, 75.0, 90.0, 99.0}) {
    auto daily = model.DailyInvocationsAtPercentile(percentile);
    ASSERT_TRUE(daily.ok()) << percentile;
    EXPECT_GT(*daily, previous);
    previous = *daily;
  }
}

TEST(AzureTraceModelTest, MedianMatchesCalibration) {
  const AzureTraceModel model;
  auto daily = model.DailyInvocationsAtPercentile(50.0);
  ASSERT_TRUE(daily.ok());
  // Median function ~316/day => ~3.3 invocations per 15 minutes, matching
  // the paper's pathological 50th-percentile MST window (3 requests).
  EXPECT_NEAR(*daily, 316.0, 10.0);
  auto in_window = model.ExpectedArrivalsInWindow(50.0, Duration::Seconds(900));
  ASSERT_TRUE(in_window.ok());
  EXPECT_NEAR(*in_window, 3.3, 0.2);
}

TEST(AzureTraceModelTest, RejectsDegeneratePercentiles) {
  const AzureTraceModel model;
  EXPECT_FALSE(model.DailyInvocationsAtPercentile(0.0).ok());
  EXPECT_FALSE(model.DailyInvocationsAtPercentile(100.0).ok());
  EXPECT_FALSE(model.DailyInvocationsAtPercentile(-5.0).ok());
}

TEST(TraceGeneratorTest, ArrivalsSortedAndInWindow) {
  const AzureTraceModel model;
  TraceGenerator generator(model, 1);
  const Duration window = Duration::Seconds(900);
  auto arrivals = generator.GenerateWindow(90.0, window);
  ASSERT_TRUE(arrivals.ok());
  EXPECT_FALSE(arrivals->empty());
  TimePoint previous = TimePoint::FromMicros(0);
  for (TimePoint arrival : *arrivals) {
    EXPECT_GE(arrival, previous);
    EXPECT_LT(arrival.ToSeconds(), window.ToSeconds());
    previous = arrival;
  }
}

TEST(TraceGeneratorTest, PopularFunctionsGetMoreArrivals) {
  const AzureTraceModel model;
  TraceGenerator generator(model, 2);
  const Duration window = Duration::Seconds(900);
  size_t rare_total = 0;
  size_t popular_total = 0;
  for (int i = 0; i < 10; ++i) {
    rare_total += generator.GenerateWindow(50.0, window)->size();
    popular_total += generator.GenerateWindow(90.0, window)->size();
  }
  EXPECT_GT(popular_total, rare_total * 5);
}

TEST(TraceGeneratorTest, DeterministicForSeed) {
  const AzureTraceModel model;
  TraceGenerator a(model, 7);
  TraceGenerator b(model, 7);
  auto wa = a.GenerateWindow(75.0, Duration::Seconds(900));
  auto wb = b.GenerateWindow(75.0, Duration::Seconds(900));
  ASSERT_TRUE(wa.ok());
  ASSERT_TRUE(wb.ok());
  EXPECT_EQ(*wa, *wb);
}

TEST(TraceGeneratorTest, MultiFunctionTraceIsMerged) {
  const AzureTraceModel model;
  TraceGenerator generator(model, 3);
  auto trace = generator.GenerateTrace(
      {{"MST", 75.0}, {"Thumbnailer", 75.0}}, Duration::Seconds(900));
  ASSERT_TRUE(trace.ok());
  EXPECT_FALSE(trace->empty());
  const auto functions = trace->Functions();
  EXPECT_EQ(functions.size(), 2u);
  // Merged ordering is globally sorted.
  for (size_t i = 1; i < trace->records().size(); ++i) {
    EXPECT_GE(trace->records()[i].arrival, trace->records()[i - 1].arrival);
  }
  // Per-function extraction covers everything.
  EXPECT_EQ(trace->ArrivalsFor("MST").size() +
                trace->ArrivalsFor("Thumbnailer").size(),
            trace->size());
}

TEST(ArrivalMixTest, NamesRoundTripThroughParse) {
  for (const ArrivalMix mix : {ArrivalMix::kSteady, ArrivalMix::kDiurnal,
                               ArrivalMix::kBursty, ArrivalMix::kMultiTenant}) {
    auto parsed = ParseArrivalMix(ArrivalMixName(mix));
    ASSERT_TRUE(parsed.ok()) << ArrivalMixName(mix);
    EXPECT_EQ(*parsed, mix);
  }
  EXPECT_TRUE(ParseArrivalMix("multitenant").ok());
  EXPECT_FALSE(ParseArrivalMix("lunar").ok());
}

TEST(ArrivalMixTest, SpecsArePureFunctionsOfTheirArguments) {
  for (const ArrivalMix mix : {ArrivalMix::kSteady, ArrivalMix::kDiurnal,
                               ArrivalMix::kBursty, ArrivalMix::kMultiTenant}) {
    const FunctionArrivalSpec a = ArrivalSpecFor(mix, 9, 3, 100);
    const FunctionArrivalSpec b = ArrivalSpecFor(mix, 9, 3, 100);
    EXPECT_EQ(a.percentile, b.percentile);
    EXPECT_EQ(a.burstiness, b.burstiness);
    EXPECT_EQ(a.diurnal_amplitude, b.diurnal_amplitude);
    EXPECT_EQ(a.diurnal_phase_s, b.diurnal_phase_s);
    // Valid ranges in every mix.
    EXPECT_GT(a.percentile, 0.0);
    EXPECT_LT(a.percentile, 100.0);
    EXPECT_GE(a.diurnal_amplitude, 0.0);
    EXPECT_LT(a.diurnal_amplitude, 1.0);
  }
  // Seeds shift the draw.
  EXPECT_NE(ArrivalSpecFor(ArrivalMix::kDiurnal, 1, 3, 100).diurnal_phase_s,
            ArrivalSpecFor(ArrivalMix::kDiurnal, 2, 3, 100).diurnal_phase_s);
}

TEST(ArrivalMixTest, MixesShapeTheSpecsTheWayTheyAdvertise) {
  const uint64_t n = 200;
  // Diurnal functions actually swing; steady ones never do.
  for (uint64_t i = 0; i < n; ++i) {
    EXPECT_EQ(ArrivalSpecFor(ArrivalMix::kSteady, 5, i, n).diurnal_amplitude, 0.0);
    EXPECT_GE(ArrivalSpecFor(ArrivalMix::kDiurnal, 5, i, n).diurnal_amplitude, 0.5);
    EXPECT_GE(ArrivalSpecFor(ArrivalMix::kBursty, 5, i, n).burstiness, 1.2);
  }
  // Multi-tenant: a sparse heavy head and a long quiet tail.
  size_t heavy = 0, quiet = 0;
  for (uint64_t i = 0; i < n; ++i) {
    const double p = ArrivalSpecFor(ArrivalMix::kMultiTenant, 5, i, n).percentile;
    if (p >= 90.0) ++heavy;
    if (p <= 50.0) ++quiet;
  }
  EXPECT_EQ(heavy, n / 10);
  EXPECT_EQ(quiet, n - n / 10);
}

TEST(ArrivalStreamTest, MatchesWindowContractAndIsDeterministic) {
  const AzureTraceModel model;
  FunctionArrivalSpec spec;
  spec.percentile = 90.0;
  const Duration window = Duration::Seconds(900);
  ArrivalStream a(model, spec, 11, window);
  ArrivalStream b(model, spec, 11, window);
  TimePoint previous = TimePoint::FromMicros(0);
  uint64_t n = 0;
  while (auto arrival = a.Next()) {
    EXPECT_GE(*arrival, previous);
    EXPECT_LT(arrival->ToSeconds(), window.ToSeconds());
    previous = *arrival;
    EXPECT_EQ(*b.Next(), *arrival);
    ++n;
  }
  EXPECT_EQ(b.Next(), std::nullopt);
  EXPECT_EQ(a.emitted(), n);
  EXPECT_GT(n, 0u);
}

TEST(ArrivalStreamTest, InvalidPercentileIsImmediatelyExhausted) {
  const AzureTraceModel model;
  FunctionArrivalSpec spec;
  spec.percentile = 0.0;
  ArrivalStream stream(model, spec, 1, Duration::Seconds(900));
  EXPECT_EQ(stream.Next(), std::nullopt);
}

TEST(ArrivalStreamTest, RateMatchesTheModelExpectation) {
  // Over many independent streams, the mean arrival count must track
  // ExpectedArrivalsInWindow — the streaming path must not change the
  // process's intensity (thinning must be unbiased).
  const AzureTraceModel model;
  const Duration window = Duration::Seconds(3600);
  const double expected =
      *model.ExpectedArrivalsInWindow(75.0, window);
  for (const double amplitude : {0.0, 0.8}) {
    FunctionArrivalSpec spec;
    spec.percentile = 75.0;
    spec.diurnal_amplitude = amplitude;
    // Zero phase puts the sinusoid's positive half-cycle first, but over many
    // seeds the average still must land near the base rate times the window:
    // thin against a symmetric phase spread to average the cycle out.
    uint64_t total = 0;
    const int kStreams = 400;
    for (int s = 0; s < kStreams; ++s) {
      FunctionArrivalSpec varied = spec;
      varied.diurnal_phase_s = s * 86400.0 / kStreams;
      ArrivalStream stream(model, varied, 1000u + static_cast<uint64_t>(s), window);
      while (stream.Next()) {
        ++total;
      }
    }
    const double mean = static_cast<double>(total) / kStreams;
    EXPECT_NEAR(mean, expected, expected * 0.15) << "amplitude " << amplitude;
  }
}

TEST(ArrivalStreamTest, DiurnalModulationActuallyMovesArrivalsInTime) {
  // With a full-day window and strong amplitude, arrivals must concentrate in
  // the high-rate half-cycle relative to phase — the thinning is doing work.
  const AzureTraceModel model;
  FunctionArrivalSpec spec;
  spec.percentile = 85.0;
  spec.diurnal_amplitude = 0.95;
  spec.diurnal_phase_s = 0.0;
  const Duration window = Duration::Seconds(86400);
  uint64_t first_half = 0, second_half = 0;
  for (uint64_t s = 0; s < 30; ++s) {
    ArrivalStream stream(model, spec, 500 + s, window);
    while (auto arrival = stream.Next()) {
      (arrival->ToSeconds() < 43200.0 ? first_half : second_half)++;
    }
  }
  // rate(t) = base * (1 + A sin(2π t / day)): positive half-cycle first.
  EXPECT_GT(first_half, second_half * 2);
}

TEST(FleetArrivalStreamTest, MergesPerFunctionStreamsInGlobalOrder) {
  const AzureTraceModel model;
  const uint64_t kFleet = 20;
  std::vector<FunctionArrivalSpec> specs;
  for (uint64_t i = 0; i < kFleet; ++i) {
    specs.push_back(ArrivalSpecFor(ArrivalMix::kMultiTenant, 3, i, kFleet));
  }
  const Duration window = Duration::Seconds(900);
  FleetArrivalStream merged(model, specs, 3, window);

  // Reference: drain each function's own stream independently (the substream
  // independence property) and count.
  std::vector<uint64_t> per_function(kFleet, 0);
  uint64_t expected_total = 0;
  for (uint64_t i = 0; i < kFleet; ++i) {
    ArrivalStream solo(model, specs[i],
                       HashCombine(HashCombine(uint64_t{3}, uint64_t{0x666c}),
                                   i),
                       window);
    while (solo.Next()) {
      ++per_function[i];
      ++expected_total;
    }
  }

  int64_t previous = 0;
  std::vector<uint64_t> merged_counts(kFleet, 0);
  uint64_t total = 0;
  while (auto arrival = merged.Next()) {
    EXPECT_GE(arrival->arrival.ToMicros(), previous);
    previous = arrival->arrival.ToMicros();
    ASSERT_LT(arrival->function_index, kFleet);
    ++merged_counts[arrival->function_index];
    ++total;
  }
  EXPECT_EQ(total, expected_total);
  EXPECT_EQ(merged_counts, per_function);
  EXPECT_EQ(merged.emitted(), total);
}

TEST(InvocationTraceTest, AppendValidations) {
  InvocationTrace trace;
  EXPECT_EQ(trace.Append({"", TimePoint::FromMicros(1)}).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(trace.Append({"a,b", TimePoint::FromMicros(1)}).code(),
            StatusCode::kInvalidArgument);
  ASSERT_TRUE(trace.Append({"f", TimePoint::FromMicros(10)}).ok());
  EXPECT_EQ(trace.Append({"f", TimePoint::FromMicros(5)}).code(),
            StatusCode::kFailedPrecondition);
}

TEST(InvocationTraceTest, CsvRoundTripInMemory) {
  InvocationTrace trace;
  ASSERT_TRUE(trace.Append({"MST", TimePoint::FromMicros(100)}).ok());
  ASSERT_TRUE(trace.Append({"Thumbnailer", TimePoint::FromMicros(250)}).ok());
  ASSERT_TRUE(trace.Append({"MST", TimePoint::FromMicros(900)}).ok());

  auto parsed = InvocationTrace::FromCsv(trace.ToCsv());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->records(), trace.records());
}

TEST(InvocationTraceTest, CsvRoundTripThroughFile) {
  InvocationTrace trace;
  ASSERT_TRUE(trace.Append({"f", TimePoint::FromMicros(42)}).ok());
  const auto path =
      (std::filesystem::temp_directory_path() / "pronghorn_trace_test.csv").string();
  ASSERT_TRUE(trace.WriteCsv(path).ok());
  auto loaded = InvocationTrace::ReadCsv(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->records(), trace.records());
  std::filesystem::remove(path);
}

TEST(InvocationTraceTest, ReadMissingFileIsNotFound) {
  EXPECT_EQ(InvocationTrace::ReadCsv("/no/such/file.csv").status().code(),
            StatusCode::kNotFound);
}

TEST(InvocationTraceTest, MalformedCsvRejected) {
  EXPECT_FALSE(InvocationTrace::FromCsv("wrong,header\nf,1\n").ok());
  EXPECT_FALSE(InvocationTrace::FromCsv("function,arrival_us\nno_comma\n").ok());
  EXPECT_FALSE(InvocationTrace::FromCsv("function,arrival_us\nf,notanumber\n").ok());
  EXPECT_FALSE(InvocationTrace::FromCsv("function,arrival_us\nf,12junk\n").ok());
}

TEST(InvocationTraceTest, EmptyCsvBody) {
  auto trace = InvocationTrace::FromCsv("function,arrival_us\n");
  ASSERT_TRUE(trace.ok());
  EXPECT_TRUE(trace->empty());
}

}  // namespace
}  // namespace pronghorn
