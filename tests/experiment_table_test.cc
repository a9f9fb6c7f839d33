// The experiment table's contracts:
//
//  1. Checked input: malformed, trailing-junk and out-of-range values are
//     kInvalidArgument naming the flag, before anything runs.
//  2. Scope: a value other than the default in a run that ignores it is an
//     error, and an explicit default is not.
//  3. Table walk: perturbing any identity row moves the experiment
//     fingerprint, and perturbing any excluded row leaves the digest alone.

#include "src/platform/experiment.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <string>
#include <vector>

namespace pronghorn {
namespace {

Result<Experiment> Parse(const std::vector<std::string>& args) {
  std::vector<const char*> argv;
  for (const std::string& arg : args) {
    argv.push_back(arg.c_str());
  }
  return ParseExperiment(static_cast<int>(argv.size()), argv.data());
}

// Expects `args` to be refused with a message naming `flag`.
void ExpectRejected(const std::vector<std::string>& args, const std::string& flag) {
  const Result<Experiment> experiment = Parse(args);
  std::string joined;
  for (const std::string& arg : args) {
    joined += arg + " ";
  }
  ASSERT_FALSE(experiment.ok()) << joined;
  EXPECT_EQ(experiment.status().code(), StatusCode::kInvalidArgument) << joined;
  EXPECT_NE(experiment.status().message().find(flag), std::string::npos)
      << joined << "-> " << experiment.status().ToString();
}

TEST(ExperimentTableTest, MalformedValuesAreRejectedNamingTheFlag) {
  ExpectRejected({"--fleet", "2", "--slots", "abc"}, "--slots");
  ExpectRejected({"--pool", "-3"}, "--pool");
  ExpectRejected({"--pool", "4294967296"}, "--pool");
  ExpectRejected({"--w", "-1"}, "--w");
  ExpectRejected({"--beta", "99999999999"}, "--beta");
  ExpectRejected({"--explore-budget", "1e3"}, "--explore-budget");
  ExpectRejected({"--requests", "0"}, "--requests");
  ExpectRejected({"--seed", "42x"}, "--seed");
  ExpectRejected({"--fleet", "2", "--threads", "-1"}, "--threads");
  ExpectRejected({"--fleet", "2", "--threads", "257"}, "--threads");
  ExpectRejected({"--eviction", "4x"}, "--eviction");
  ExpectRejected({"--eviction", "0"}, "--eviction");
  ExpectRejected({"--eviction", "geometric:0.5"}, "--eviction");
  ExpectRejected({"--eviction", "idle:0"}, "--eviction");
  ExpectRejected({"--fault-rate", "1.5"}, "--fault-rate");
  ExpectRejected({"--fault-rate", "nan"}, "--fault-rate");
  ExpectRejected({"--fault-outage", "1x:3"}, "--fault-outage");
  ExpectRejected({"--fault-outage", "3:1"}, "--fault-outage");
  ExpectRejected({"--fault-outage", "1:3:5"}, "--fault-outage");
  ExpectRejected({"--fault-outage", "1:3@disk"}, "--fault-outage");
  ExpectRejected({"--fault-latency", "1:3"}, "--fault-latency");
  ExpectRejected({"--fault-latency", "1:3:0"}, "--fault-latency");
  ExpectRejected({"--service", "--crash-plan", "a:5:enqueue"}, "--crash-plan");
  ExpectRejected({"--service", "--crash-plan", "0:0:enqueue"}, "--crash-plan");
  ExpectRejected({"--service", "--crash-plan", "0:5:later"}, "--crash-plan");
  ExpectRejected({"--service", "--stall-plan", "0:5:0"}, "--stall-plan");
  ExpectRejected({"--service", "--service-shards", "0"}, "--service-shards");
  ExpectRejected({"--store", "dedup", "--chunk-size", "32"}, "--chunk-size");
  ExpectRejected({"--policy", "greedy"}, "--policy");
  ExpectRejected({"--engine", "zfs"}, "--engine");
  ExpectRejected({"--fleet", "2", "--retention", "all-of-it"}, "--retention");
  ExpectRejected({"--fleet", "2", "--platform", "2"}, "--platform");
  ExpectRejected({"stray"}, "stray");
}

TEST(ExperimentTableTest, ListGrammarsParseWholeItems) {
  const Result<Experiment> experiment =
      Parse({"--fault-outage", "10:12@db,,30:31", "--fault-latency", "5:8:250"});
  ASSERT_TRUE(experiment.ok()) << experiment.status().ToString();
  const std::vector<FaultWindow>& windows = experiment->sim.faults.windows;
  ASSERT_EQ(windows.size(), 3u);
  EXPECT_EQ(windows[0].domain, FaultDomain::kDatabase);
  EXPECT_EQ(windows[0].start, TimePoint() + Duration::Seconds(10));
  EXPECT_EQ(windows[1].domain, FaultDomain::kBoth);
  EXPECT_EQ(windows[2].kind, FaultWindow::Kind::kLatency);
  EXPECT_EQ(windows[2].extra_latency, Duration::Millis(250));
}

TEST(ExperimentTableTest, OversizedPolicyConfigFailsValidationNotAllocation) {
  // Fits the 32-bit field, so it parses; the weight-vector cap refuses it
  // before any policy state is sized from it.
  const Result<Experiment> experiment = Parse({"--beta", "4000000000"});
  ASSERT_TRUE(experiment.ok()) << experiment.status().ToString();
  const Result<Deployments> deployments =
      BuildDeployments(*experiment, WorkloadRegistry::Default());
  ASSERT_FALSE(deployments.ok());
  EXPECT_EQ(deployments.status().code(), StatusCode::kInvalidArgument);
}

TEST(ExperimentTableTest, ValuesARunWouldIgnoreAreRejected) {
  ExpectRejected({"--fleet", "2", "--summary-csv", "s.csv"}, "--summary-csv");
  ExpectRejected({"--fleet", "2", "--benchmark", "BFS"}, "--benchmark");
  ExpectRejected({"--platform", "2", "--threads", "2"}, "--threads");
  ExpectRejected({"--platform", "2", "--slots", "3"}, "--slots");
  ExpectRejected({"--platform", "2", "--exploring", "2"}, "--exploring");
  ExpectRejected({"--platform", "2", "--arrival-mix", "bursty"}, "--arrival-mix");
  ExpectRejected({"--platform", "2", "--csv", "r.csv"}, "--csv");
  ExpectRejected({"--sim-checkpoint-dir", "d", "--sim-checkpoint-every", "5"},
                 "--sim-checkpoint-every");
  ExpectRejected({"--retention", "top-latency"}, "--retention");
  ExpectRejected({"--chunk-size", "2048"}, "--chunk-size");
  ExpectRejected({"--cdc"}, "--cdc");
  ExpectRejected({"--fault-chunk-corrupt", "0.1"}, "--fault-chunk-corrupt");
  ExpectRejected({"--service-shards", "2"}, "--service-shards");
  ExpectRejected({"--journal-dir", "j"}, "--journal-dir");
  ExpectRejected({"--service", "--crash-plan", "4:5:enqueue"}, "shard 4");
  ExpectRejected({"--resume"}, "--resume");
  // Spelling a default out is not a value the run ignores.
  EXPECT_TRUE(Parse({"--chunk-size", "4096", "--cdc=false", "--slots=4"}).ok());
  EXPECT_TRUE(Parse({"--platform", "2", "--threads", "0", "--retention", "all"}).ok());
}

TEST(ExperimentTableTest, DefaultsMatchTheSingleFunctionPaperSetup) {
  const Result<Experiment> experiment = Parse({});
  ASSERT_TRUE(experiment.ok()) << experiment.status().ToString();
  EXPECT_EQ(experiment->topology, SimTopology::kSingle);
  EXPECT_EQ(experiment->benchmark, "DynamicHTML");
  EXPECT_EQ(experiment->requests, 500u);
  EXPECT_EQ(experiment->sim.seed, 42u);
  EXPECT_EQ(experiment->sim.worker_slots, 1u);
  EXPECT_EQ(experiment->sim.exploring_slots, 1u);
  EXPECT_EQ(experiment->pool_capacity, 12u);
  const std::string usage = ExperimentUsage("tool");
  for (const ExperimentParam& param : ExperimentTable()) {
    EXPECT_NE(usage.find("--" + std::string(param.name)), std::string::npos) << param.name;
  }
}

// ---- table walk ------------------------------------------------------------

const std::vector<std::string> kFleetBase = {"--fleet", "3", "--requests", "40",
                                             "--slots", "2", "--eviction", "4",
                                             "--fault-rate", "0.1"};
const std::vector<std::string> kSingleBase = {"--requests", "60", "--eviction", "4",
                                              "--fault-rate", "0.1"};

// One perturbation per row: the arguments it is set on top of, and the
// value it changes to (empty for a switch).
struct Perturbation {
  std::vector<std::string> base;
  std::string value;
};

std::map<std::string, Perturbation> Perturbations(const std::string& dir) {
  const std::vector<std::string> dedup = {"--store", "dedup"};
  const auto with = [](std::vector<std::string> base, const std::vector<std::string>& extra) {
    base.insert(base.end(), extra.begin(), extra.end());
    return base;
  };
  return {
      {"benchmark", {kSingleBase, "BFS"}},
      {"policy", {kFleetBase, "cold"}},
      {"eviction", {kFleetBase, "geometric:3"}},
      {"requests", {kFleetBase, "41"}},
      {"seed", {kFleetBase, "7"}},
      {"beta", {kFleetBase, "6"}},
      {"pool", {kFleetBase, "4"}},
      {"w", {kFleetBase, "40"}},
      {"explore-budget", {with(kFleetBase, {"--policy", "stop-condition"}), "30"}},
      {"engine", {kFleetBase, "delta"}},
      {"fleet", {kFleetBase, "4"}},
      {"platform", {kSingleBase, "2"}},
      {"threads", {kFleetBase, "2"}},
      {"pin-threads", {kFleetBase, ""}},
      {"slots", {kFleetBase, "3"}},
      {"exploring", {kFleetBase, "2"}},
      {"csv", {kFleetBase, dir + "/r.csv"}},
      {"summary-csv", {kSingleBase, dir + "/s.csv"}},
      {"trace-out", {kFleetBase, dir + "/t.json"}},
      {"metrics-out", {kFleetBase, dir + "/m.json"}},
      {"fault-rate", {kFleetBase, "0.2"}},
      {"fault-corrupt", {kFleetBase, "0.05"}},
      {"fault-torn", {kFleetBase, "0.05"}},
      {"fault-outage", {kFleetBase, "1:3@db"}},
      {"fault-latency", {kFleetBase, "4:6:250"}},
      {"fault-seed", {kFleetBase, "9"}},
      {"fault-chunk-corrupt", {with(kFleetBase, dedup), "0.1"}},
      {"fault-manifest-corrupt", {with(kFleetBase, dedup), "0.1"}},
      {"store", {kFleetBase, "dedup"}},
      {"chunk-size", {with(kFleetBase, dedup), "2048"}},
      {"cdc", {with(kFleetBase, dedup), ""}},
      {"lazy-restore", {with(kFleetBase, dedup), ""}},
      {"service", {kFleetBase, ""}},
      {"service-shards", {with(kFleetBase, {"--service"}), "2"}},
      {"service-batch", {with(kFleetBase, {"--service"}), "1"}},
      {"flush-interval", {with(kFleetBase, {"--service"}), "0"}},
      {"journal-dir", {with(kFleetBase, {"--service"}), dir + "/journal"}},
      {"shed-deadline", {with(kFleetBase, {"--service"}), "50"}},
      {"crash-plan", {with(kFleetBase, {"--service"}), "0:5:mid-batch,1:7:enqueue"}},
      {"stall-plan", {with(kFleetBase, {"--service"}), "0:3:1"}},
      {"retention", {kFleetBase, "top-latency"}},
      {"retention-k", {with(kFleetBase, {"--retention", "reservoir"}), "2"}},
      {"arrival-mix", {kFleetBase, "bursty"}},
      {"sim-checkpoint-dir", {kFleetBase, dir + "/ckpt-a"}},
      {"sim-checkpoint-every",
       {with(kFleetBase, {"--sim-checkpoint-dir", dir + "/ckpt-b"}), "2"}},
      {"resume", {with(kFleetBase, {"--sim-checkpoint-dir", dir + "/ckpt-c"}), ""}},
      {"histogram", {kFleetBase, ""}},
      {"no-noise", {kFleetBase, ""}},
      {"no-state-cache", {kFleetBase, ""}},
      {"list", {kFleetBase, ""}},
      {"help", {kFleetBase, ""}},
  };
}

struct Built {
  Experiment experiment;
  Deployments deployments;
};

// Arguments that do not build are a broken test, not a finding: stop there
// rather than read an error as a value.
Built MustBuild(const std::vector<std::string>& args) {
  Result<Experiment> experiment = Parse(args);
  if (experiment.ok()) {
    Result<Deployments> deployments =
        BuildDeployments(*experiment, WorkloadRegistry::Default());
    if (deployments.ok()) {
      return Built{*std::move(experiment), *std::move(deployments)};
    }
    experiment = deployments.status();
  }
  std::fprintf(stderr, "cannot build %s: %s\n", args.back().c_str(),
               experiment.status().ToString().c_str());
  std::abort();
}

uint64_t Fingerprint(const Built& built) {
  return ExperimentFingerprint(built.experiment.topology, built.deployments.specs,
                               built.experiment.sim);
}

uint32_t Digest(const Built& built) {
  Result<SimReport> report =
      Simulate(WorkloadRegistry::Default(), built.experiment.topology,
               built.deployments.specs, built.experiment.sim);
  EXPECT_TRUE(report.ok()) << report.status().ToString();
  return report.ok() ? report->Digest() : 0;
}

class TableWalk : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = (std::filesystem::temp_directory_path() / "pronghorn_experiment_table").string();
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
    for (const char* sub : {"journal", "ckpt-a", "ckpt-b", "ckpt-c"}) {
      std::filesystem::create_directories(dir_ + "/" + sub);
    }
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string dir_;
};

TEST_F(TableWalk, EveryRowIsDescribedAndPerturbed) {
  const auto perturbations = Perturbations(dir_);
  for (const ExperimentParam& param : ExperimentTable()) {
    const std::string name(param.name);
    EXPECT_EQ(perturbations.count(name), 1u) << "no perturbation for --" << name;
    EXPECT_NE(param.parse, nullptr) << name;
    EXPECT_FALSE(param.help.empty()) << name;
    EXPECT_EQ(param.role == FingerprintRole::kOptions, param.canonical != nullptr) << name;
    EXPECT_EQ(param.role == FingerprintRole::kExcluded, !param.why.empty()) << name;
  }
}

TEST_F(TableWalk, PerturbingAnIdentityRowMovesTheFingerprint) {
  const auto perturbations = Perturbations(dir_);
  for (const ExperimentParam& param : ExperimentTable()) {
    if (param.role == FingerprintRole::kExcluded) {
      continue;
    }
    const std::string name(param.name);
    const Perturbation& p = perturbations.at(name);
    std::vector<std::string> changed = p.base;
    changed.push_back("--" + name);
    if (!p.value.empty()) {
      changed.push_back(p.value);
    }
    EXPECT_NE(Fingerprint(MustBuild(changed)), Fingerprint(MustBuild(p.base)))
        << "--" << name << " is identity but does not move the fingerprint";
  }
}

TEST_F(TableWalk, InputsNoFlagSetsMoveTheFingerprint) {
  Built built = MustBuild(kFleetBase);
  const uint64_t base = Fingerprint(built);
  for (void (*perturb)(SimOptions&) :
       {+[](SimOptions& o) { o.recovery.quarantine_threshold += 1; },
        +[](SimOptions& o) { o.lifecycle.checkpoint_blocks_requests = true; },
        +[](SimOptions& o) { o.costs.object_store_mb_per_sec *= 2; }}) {
    SimOptions options = built.experiment.sim;
    perturb(options);
    EXPECT_NE(ExperimentFingerprint(built.experiment.topology, built.deployments.specs,
                                    options),
              base);
  }
}

TEST_F(TableWalk, PerturbingAnExcludedRowKeepsTheDigest) {
  const auto perturbations = Perturbations(dir_);
  std::map<std::vector<std::string>, uint32_t> base_digests;
  for (const ExperimentParam& param : ExperimentTable()) {
    if (param.role != FingerprintRole::kExcluded) {
      continue;
    }
    const std::string name(param.name);
    const Perturbation& p = perturbations.at(name);
    if (base_digests.count(p.base) == 0) {
      base_digests[p.base] = Digest(MustBuild(p.base));
    }
    std::vector<std::string> changed = p.base;
    changed.push_back("--" + name);
    if (!p.value.empty()) {
      changed.push_back(p.value);
    }
    const Built built = MustBuild(changed);
    EXPECT_EQ(Digest(built), base_digests[p.base])
        << "--" << name << " is excluded but changes the digest";
    // Excluded rows are outside the fingerprint too, so a resume across them
    // is accepted.
    EXPECT_EQ(Fingerprint(built), Fingerprint(MustBuild(p.base))) << name;
  }
}

}  // namespace
}  // namespace pronghorn
