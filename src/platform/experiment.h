// The experiment table: every input of a closed-loop experiment, and the only
// place pronghorn_sim declares, parses and documents its flags.
//
// An Experiment is the static description of a run: the kernel's SimOptions
// plus what decides the deployments and where the tool writes its outputs.
// BuildDeployments() turns it into the function specs Simulate() runs. Each
// table row gives a flag's spelling, default, help, checked parser, the runs
// it applies to (a non-default value anywhere else is an error, never a
// silent no-op) and its fingerprint role: identity, or excluded with the
// reason it cannot change a digest. ExperimentFingerprint() hashes every
// identity input, so a checkpoint frame is only resumed by the experiment
// that wrote it; tests/experiment_table_test.cc perturbs every row.

#ifndef PRONGHORN_SRC_PLATFORM_EXPERIMENT_H_
#define PRONGHORN_SRC_PLATFORM_EXPERIMENT_H_

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "src/core/policy.h"
#include "src/platform/simulate.h"
#include "src/trace/azure_model.h"

namespace pronghorn {

// What the tool writes or prints besides the run; Simulate() never reads it.
struct ExperimentOutputs {
  std::string csv;          // Per-request records.
  std::string summary_csv;  // key,value summary of every counter.
  std::string trace_out;    // Chrome trace JSON of worker lifecycles.
  std::string metrics_out;  // Counters/gauges/histograms as JSON.
  bool histogram = false;   // Latency histograms on stdout.
  bool list = false;        // List the benchmarks and exit.
  bool help = false;        // Print the flag table and exit.
};

// One experiment. The member initializers are placeholders: the table's
// defaults are what ParseExperiment() with no arguments returns.
struct Experiment {
  SimOptions sim;
  SimTopology topology = SimTopology::kSingle;
  // kFleet/kPlatform: deployments, cycling through the evaluation set.
  uint64_t functions = 0;
  std::string benchmark;  // kSingle: the one workload.
  // Requests per deployment; under kFleet the arrival mix scales each one.
  uint64_t requests = 0;
  ArrivalMix arrival_mix = ArrivalMix::kSteady;
  std::string policy;
  std::string eviction;  // The --eviction text as given, for report headers.
  // PolicyConfig knobs (paper Table 2). A zero beta derives from the
  // every-k eviction k (4 for the other models); a zero W from the runtime
  // family (200 JVM, 100 PyPy).
  uint32_t beta = 0;
  uint32_t pool_capacity = 0;
  uint32_t max_checkpoint_request = 0;
  // stop-condition: requests before the policy freezes; 0 = W + 100.
  uint64_t explore_budget = 0;
  ExperimentOutputs outputs;
};

// The runs a row applies to; a row's scope ORs these bits.
enum ExperimentScope : uint8_t {
  kSingleRun = 1 << 0,
  kFleetRun = 1 << 1,
  kPlatformRun = 1 << 2,
  kEveryRun = kSingleRun | kFleetRun | kPlatformRun,
  kDedupOnly = 1 << 3,    // Also needs --store dedup.
  kServiceOnly = 1 << 4,  // Also needs --service.
};

enum class FingerprintRole : uint8_t {
  // Identity: ExperimentFingerprint() hashes the row's canonical text.
  kOptions,
  // Identity: reaches the fingerprint through what it builds, namely the
  // topology and the function specs (names, request counts, profiles,
  // policies and their configs).
  kSpecs,
  // Cannot change a digest, or configures no simulation at all; `why` says
  // which.
  kExcluded,
};

struct ExperimentParam {
  std::string_view name;  // The flag, without "--".
  bool is_switch = false;  // Set by --name alone; switches default to false.
  std::string_view default_value;
  std::string_view help;
  uint8_t scope = kEveryRun;
  FingerprintRole role = FingerprintRole::kOptions;
  std::string_view why;  // kExcluded only.
  // Writes the flag's text (default or given) into the experiment.
  Status (*parse)(std::string_view text, Experiment& experiment) = nullptr;
  // kOptions only: every SimOptions field the row governs, as exact text.
  std::string (*canonical)(const SimOptions& options) = nullptr;
};

// The rows, in parse order.
std::span<const ExperimentParam> ExperimentTable();

// Parses argv (without the program name) through the table: every row's
// parser runs on its flag's text, then the scope rule and the cross-row
// checks. Errors are kInvalidArgument and name the flag. A single run gets
// the paper's one worker slot, which also explores.
Result<Experiment> ParseExperiment(int argc, const char* const* argv);

// The --help text: every flag with its help and default.
std::string ExperimentUsage(std::string_view program);

// The deployments an experiment runs: each spec borrows its policy from
// `policies` (a stop-condition policy also owns its inner policy there), so
// keep this alive while the specs are in use.
struct Deployments {
  std::vector<std::unique_ptr<OrchestrationPolicy>> policies;
  std::vector<SimFunctionSpec> specs;
};

// Builds one policy per deployment from the experiment's PolicyConfig knobs
// (validated per profile) and the specs: the named benchmark under kSingle,
// the evaluation set cycled otherwise.
Result<Deployments> BuildDeployments(const Experiment& experiment,
                                     const WorkloadRegistry& registry);

// The fingerprint Simulate() keys its checkpoint frames by. It hashes the
// topology, the canonical text of every kOptions row, the SimOptions inputs
// no flag sets (recovery, lifecycle, costs), and per function its name,
// request count, profile name, policy name, every PolicyConfig field and,
// for a stop-condition policy, the budget and the inner policy. Each field
// is hashed whether or not it has its default value. Rows with role
// kExcluded (threads, service, checkpoint and output knobs) are not hashed.
uint64_t ExperimentFingerprint(SimTopology topology,
                               std::span<const SimFunctionSpec> functions,
                               const SimOptions& options);

}  // namespace pronghorn

#endif  // PRONGHORN_SRC_PLATFORM_EXPERIMENT_H_
