#include "src/platform/report_io.h"

#include <gtest/gtest.h>

#include <filesystem>

#include "src/core/baseline_policies.h"
#include "src/platform/simulate.h"

namespace pronghorn {
namespace {

std::vector<RequestRecord> SampleRecords() {
  std::vector<RequestRecord> records;
  for (uint64_t i = 0; i < 5; ++i) {
    RequestRecord record;
    record.global_index = i;
    record.request_number = i + 1;
    record.latency = Duration::Micros(static_cast<int64_t>(1000 * (i + 1)));
    record.first_of_lifetime = i == 0;
    record.cold_start = i == 0;
    record.checkpoint_after = i == 2;
    records.push_back(record);
  }
  return records;
}

TEST(ReportIoTest, CsvRoundTripInMemory) {
  const auto records = SampleRecords();
  const std::string csv = RecordsToCsv(records);
  auto parsed = RecordsFromCsv(csv);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  ASSERT_EQ(parsed->size(), records.size());
  for (size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ((*parsed)[i].global_index, records[i].global_index);
    EXPECT_EQ((*parsed)[i].request_number, records[i].request_number);
    EXPECT_EQ((*parsed)[i].latency, records[i].latency);
    EXPECT_EQ((*parsed)[i].first_of_lifetime, records[i].first_of_lifetime);
    EXPECT_EQ((*parsed)[i].cold_start, records[i].cold_start);
    EXPECT_EQ((*parsed)[i].checkpoint_after, records[i].checkpoint_after);
  }
}

TEST(ReportIoTest, CsvHasExpectedHeader) {
  const std::string csv = RecordsToCsv({});
  EXPECT_EQ(csv, "global_index,request_number,latency_us,first_of_lifetime,"
                 "cold_start,checkpoint_after\n");
}

TEST(ReportIoTest, MalformedCsvRejected) {
  EXPECT_FALSE(RecordsFromCsv("nope\n1,2,3,0,0,0\n").ok());
  const std::string header = RecordsToCsv({});
  EXPECT_FALSE(RecordsFromCsv(header + "1,2,3,0,0\n").ok());      // Too few.
  EXPECT_FALSE(RecordsFromCsv(header + "1,2,3,0,0,0,9\n").ok());  // Too many.
  EXPECT_FALSE(RecordsFromCsv(header + "1,x,3,0,0,0\n").ok());    // Bad field.
}

TEST(ReportIoTest, FileRoundTripFromSimulation) {
  const auto profile = WorkloadRegistry::Default().Find("Hash");
  ASSERT_TRUE(profile.ok());
  const ColdStartPolicy policy;
  SimOptions options;
  options.worker_slots = 1;
  options.exploring_slots = 1;
  options.eviction.kind = FleetEvictionSpec::Kind::kEveryK;
  options.eviction.k = 4;
  SimFunctionSpec spec;
  spec.name = (*profile)->name;
  spec.profile = *profile;
  spec.policy = &policy;
  spec.requests = 40;
  auto simulated = Simulate(WorkloadRegistry::Default(), SimTopology::kSingle,
                            {&spec, 1}, options);
  ASSERT_TRUE(simulated.ok());
  const SimulationReport& report = simulated->flat();

  const std::string path =
      (std::filesystem::temp_directory_path() / "pronghorn_report_test.csv").string();
  ASSERT_TRUE(WriteRecordsCsv(report, path).ok());
  auto loaded = ReadRecordsCsv(path);
  ASSERT_TRUE(loaded.ok());
  ASSERT_EQ(loaded->size(), 40u);
  for (size_t i = 0; i < 40; ++i) {
    EXPECT_EQ((*loaded)[i].latency, report.records[i].latency) << i;
  }
  std::filesystem::remove(path);
}

TEST(ReportIoTest, ReadMissingFileIsNotFound) {
  EXPECT_EQ(ReadRecordsCsv("/no/such/records.csv").status().code(),
            StatusCode::kNotFound);
}

TEST(ReportIoTest, SummaryContainsKeyCounters) {
  SimulationReport report;
  report.records = SampleRecords();
  report.worker_lifetimes = 3;
  report.checkpoints = 2;
  const std::string summary = SummarizeReport(report);
  EXPECT_NE(summary.find("requests=5"), std::string::npos);
  EXPECT_NE(summary.find("lifetimes=3"), std::string::npos);
  EXPECT_NE(summary.find("checkpoints=2"), std::string::npos);
  EXPECT_NE(summary.find("p50_us=3000"), std::string::npos);
}

}  // namespace
}  // namespace pronghorn
