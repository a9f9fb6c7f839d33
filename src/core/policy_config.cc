#include "src/core/policy_config.h"

#include <string>

namespace pronghorn {

Status PolicyConfig::Validate() const {
  if (beta == 0) {
    return InvalidArgumentError("beta (expected worker lifetime) must be >= 1");
  }
  if (pool_capacity == 0) {
    return InvalidArgumentError("pool capacity C must be >= 1");
  }
  if (max_checkpoint_request == 0) {
    return InvalidArgumentError("W (max checkpoint request) must be >= 1");
  }
  // Summed in 64 bits: the 32-bit WeightVectorLength() wraps for large inputs.
  if (uint64_t{max_checkpoint_request} + beta + 1 > kMaxWeightVectorLength) {
    return InvalidArgumentError("W + beta + 1 (weight vector length) must be <= " +
                                std::to_string(kMaxWeightVectorLength));
  }
  if (alpha <= 0.0 || alpha > 1.0) {
    return InvalidArgumentError("alpha must be in (0, 1]");
  }
  if (retain_top_percent < 0.0 || retain_top_percent > 100.0) {
    return InvalidArgumentError("p (retain top percent) must be in [0, 100]");
  }
  if (retain_random_percent < 0.0 || retain_random_percent > 100.0) {
    return InvalidArgumentError("gamma (retain random percent) must be in [0, 100]");
  }
  if (retain_top_percent + retain_random_percent > 100.0) {
    return InvalidArgumentError("p + gamma must not exceed 100");
  }
  if (mu <= 0.0) {
    return InvalidArgumentError("mu must be a tiny positive constant");
  }
  if (softmax_temperature <= 0.0) {
    return InvalidArgumentError("softmax temperature must be positive");
  }
  return OkStatus();
}

}  // namespace pronghorn
