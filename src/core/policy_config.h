// Configuration of the request-centric orchestration policy (paper Table 2).

#ifndef PRONGHORN_SRC_CORE_POLICY_CONFIG_H_
#define PRONGHORN_SRC_CORE_POLICY_CONFIG_H_

#include <cstdint>

#include "src/common/status.h"

namespace pronghorn {

struct PolicyConfig {
  // --- Precomputed by the cloud provider ---------------------------------
  // beta: average number of requests a worker handles before eviction.
  uint32_t beta = 20;

  // --- Overhead bounding ---------------------------------------------------
  // C: maximum snapshot pool capacity.
  uint32_t pool_capacity = 12;
  // W: largest request number at which checkpointing is permitted. The
  // paper uses 100 for PyPy and 200 for JVM benchmarks.
  uint32_t max_checkpoint_request = 100;

  // --- Learning ------------------------------------------------------------
  // alpha: EWMA proportion for knowledge updates.
  double alpha = 0.3;
  // p: percentage of top-performing snapshots retained at pool eviction.
  double retain_top_percent = 40.0;
  // gamma: percentage of random snapshots additionally retained.
  double retain_random_percent = 10.0;
  // mu: tiny positive constant in the inverse-latency weighting 1/(theta+mu);
  // theta is stored in seconds, so unexplored entries get weight 1/mu.
  double mu = 1e-6;
  // Softmax temperature for snapshot selection; 1.0 is the paper's
  // formulation (latencies in seconds).
  double softmax_temperature = 1.0;

  // Length of the learned weight vector: checkpoints are bounded by W but a
  // worker restored at W still reports latencies for its whole lifetime.
  uint32_t WeightVectorLength() const { return max_checkpoint_request + beta + 1; }

  // Validate() rejects configs whose weight vector would be longer than this:
  // every policy state holds one weight per request number, so a longer
  // vector is a mistyped beta or W, not an experiment (the paper's largest
  // is W = 200 plus beta = 20).
  static constexpr uint64_t kMaxWeightVectorLength = uint64_t{1} << 20;

  // Validates ranges; kInvalidArgument with a precise message otherwise.
  Status Validate() const;
};

}  // namespace pronghorn

#endif  // PRONGHORN_SRC_CORE_POLICY_CONFIG_H_
