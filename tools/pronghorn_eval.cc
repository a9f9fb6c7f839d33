// pronghorn_eval: full-evaluation runner (artifact parity).
//
// Reproduces the paper artifact's `run.sh evaluation` flow: runs every
// (benchmark x strategy x eviction-rate) combination of §5.1 and writes one
// per-request CSV per combination into an output directory, plus a
// summary.csv with the medians and improvement percentages that Figures 4/5
// aggregate. The CSVs use the same schema as tools/pronghorn_sim --csv.
//
//   pronghorn_eval --out results --requests 500 --seed 91

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>

#include "src/common/flags.h"
#include "src/common/mathutil.h"
#include "src/core/baseline_policies.h"
#include "src/core/request_centric_policy.h"
#include "src/platform/report_io.h"
#include "src/platform/simulate.h"

using namespace pronghorn;

namespace {

int Fail(const Status& status, int exit_code = 1) {
  std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
  return exit_code;
}

struct Combo {
  std::string benchmark;
  std::string policy;
  uint32_t eviction_k = 0;
  double median_us = 0.0;
  double p90_us = 0.0;
  uint64_t checkpoints = 0;
  // Storage accounting (digest-excluded physical view; flat runs mirror
  // logical and leave the dedup ratio at 1).
  uint64_t store_logical_bytes = 0;
  uint64_t store_physical_bytes = 0;
  double store_dedup_ratio = 1.0;
};

}  // namespace

int main(int argc, char** argv) {
  FlagParser flags;
  flags.AddFlag("out", "results", "output directory for CSV files");
  flags.AddFlag("requests", "500", "invocations per combination");
  flags.AddFlag("seed", "91", "experiment seed base");
  flags.AddSwitch("help", "show usage");
  if (Status s = flags.Parse(argc - 1, argv + 1); !s.ok()) {
    std::fprintf(stderr, "%s\n%s", s.ToString().c_str(),
                 flags.UsageText("pronghorn_eval").c_str());
    return 2;
  }
  if (flags.GetBool("help").value_or(false)) {
    std::printf("%s", flags.UsageText("pronghorn_eval").c_str());
    return 0;
  }

  const Result<int64_t> requests = flags.GetInt("requests", 1, 1'000'000'000);
  const Result<int64_t> seed_base = flags.GetInt("seed");
  if (!requests.ok() || !seed_base.ok()) {
    return Fail(requests.ok() ? seed_base.status() : requests.status(), 2);
  }
  const std::string out_dir = *flags.GetString("out");
  std::error_code ec;
  std::filesystem::create_directories(out_dir, ec);
  if (ec) {
    return Fail(InternalError("cannot create '" + out_dir + "': " + ec.message()));
  }

  const uint32_t eviction_rates[] = {1, 4, 20};
  std::vector<Combo> combos;

  for (const WorkloadProfile* profile : WorkloadRegistry::Default().EvaluationSet()) {
    for (uint32_t k : eviction_rates) {
      PolicyConfig config;
      config.beta = k;
      config.pool_capacity = 12;
      config.max_checkpoint_request =
          profile->family == RuntimeFamily::kJvm ? 200 : 100;
      const ColdStartPolicy cold(config);
      const CheckpointAfterFirstPolicy after_first(config);
      auto request_centric = RequestCentricPolicy::Create(config);
      if (!request_centric.ok()) {
        return Fail(request_centric.status());
      }

      for (const auto& [label, policy] :
           std::initializer_list<std::pair<const char*, const OrchestrationPolicy*>>{
               {"cold", &cold},
               {"after-first", &after_first},
               {"request-centric", &*request_centric}}) {
        // Simulate(kSingle) with one worker slot and sub-seed = options.seed:
        // the paper's single-function measurement setup.
        SimOptions options;
        options.seed = static_cast<uint64_t>(*seed_base) + k;
        options.worker_slots = 1;
        options.exploring_slots = 1;
        options.eviction.kind = FleetEvictionSpec::Kind::kEveryK;
        options.eviction.k = k;
        SimFunctionSpec spec;
        spec.name = profile->name;
        spec.profile = profile;
        spec.policy = policy;
        spec.requests = static_cast<uint64_t>(*requests);
        auto report = Simulate(WorkloadRegistry::Default(), SimTopology::kSingle,
                               std::span<const SimFunctionSpec>(&spec, 1), options);
        if (!report.ok()) {
          return Fail(report.status());
        }

        const std::string file = out_dir + "/" + profile->name + "_" + label +
                                 "_evict" + std::to_string(k) + ".csv";
        if (Status s = WriteRecordsCsv(report->flat(), file); !s.ok()) {
          return Fail(s);
        }
        const DistributionSummary summary = report->flat().LatencySummary();
        const StoreAccounting& store = report->flat().object_store;
        combos.push_back(Combo{profile->name, label, k, summary.Median(),
                               summary.Quantile(90), report->flat().checkpoints,
                               store.logical_bytes_stored,
                               store.physical.bytes_stored,
                               store.physical.DedupRatio()});
      }
      std::printf(".");
      std::fflush(stdout);
    }
  }
  std::printf("\n");

  // summary.csv: one row per combination plus improvement columns.
  const std::string summary_path = out_dir + "/summary.csv";
  std::ofstream summary(summary_path, std::ios::trunc);
  if (!summary) {
    return Fail(InternalError("cannot open " + summary_path));
  }
  summary << "benchmark,policy,eviction_k,median_us,p90_us,checkpoints,"
             "store_logical_bytes,store_physical_bytes,store_dedup_ratio,"
             "improvement_vs_after_first_pct\n";
  std::map<std::pair<std::string, uint32_t>, double> baseline_medians;
  for (const Combo& combo : combos) {
    if (combo.policy == "after-first") {
      baseline_medians[{combo.benchmark, combo.eviction_k}] = combo.median_us;
    }
  }
  std::map<uint32_t, std::vector<double>> winners;
  for (const Combo& combo : combos) {
    double improvement = 0.0;
    const auto it = baseline_medians.find({combo.benchmark, combo.eviction_k});
    if (it != baseline_medians.end() && it->second > 0.0) {
      improvement = (it->second - combo.median_us) / it->second * 100.0;
    }
    if (combo.policy == "request-centric" && improvement > 5.0) {
      winners[combo.eviction_k].push_back(improvement);
    }
    summary << combo.benchmark << ',' << combo.policy << ',' << combo.eviction_k << ','
            << combo.median_us << ',' << combo.p90_us << ',' << combo.checkpoints << ','
            << combo.store_logical_bytes << ',' << combo.store_physical_bytes << ','
            << combo.store_dedup_ratio << ',' << improvement << '\n';
  }
  summary.flush();

  std::printf("wrote %zu per-request CSVs and %s\n", combos.size(),
              summary_path.c_str());
  for (const auto& [k, improvements] : winners) {
    std::printf("eviction %2u: %zu/13 benchmarks improved >5%%, geomean %.1f%%\n", k,
                improvements.size(), GeometricMean(improvements));
  }
  std::printf("(paper: 9/13 better at eviction 1 with geomean 37.2%%; 22.5%% at 4; "
              "13.5%% at 20)\n");
  return 0;
}
