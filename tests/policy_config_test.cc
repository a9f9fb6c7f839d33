#include "src/core/policy_config.h"

#include <gtest/gtest.h>

namespace pronghorn {
namespace {

PolicyConfig PaperConfig() {
  // §5.1: p = 40%, gamma = 10%, C = 12, W = 100 (PyPy).
  PolicyConfig config;
  config.beta = 20;
  config.pool_capacity = 12;
  config.max_checkpoint_request = 100;
  config.retain_top_percent = 40.0;
  config.retain_random_percent = 10.0;
  return config;
}

TEST(PolicyConfigTest, PaperConfigurationValidates) {
  EXPECT_TRUE(PaperConfig().Validate().ok());
}

TEST(PolicyConfigTest, DefaultsValidate) { EXPECT_TRUE(PolicyConfig{}.Validate().ok()); }

TEST(PolicyConfigTest, WeightVectorLengthCoversLifetimeBeyondW) {
  PolicyConfig config = PaperConfig();
  // A worker restored at W still reports beta more latencies.
  EXPECT_EQ(config.WeightVectorLength(), 100u + 20u + 1u);
}

struct InvalidCase {
  const char* name;
  void (*mutate)(PolicyConfig&);
};

class PolicyConfigInvalidSweep : public ::testing::TestWithParam<InvalidCase> {};

TEST_P(PolicyConfigInvalidSweep, Rejected) {
  PolicyConfig config = PaperConfig();
  GetParam().mutate(config);
  EXPECT_EQ(config.Validate().code(), StatusCode::kInvalidArgument);
}

INSTANTIATE_TEST_SUITE_P(
    AllFields, PolicyConfigInvalidSweep,
    ::testing::Values(
        InvalidCase{"zero_beta", [](PolicyConfig& c) { c.beta = 0; }},
        InvalidCase{"zero_capacity", [](PolicyConfig& c) { c.pool_capacity = 0; }},
        InvalidCase{"zero_w", [](PolicyConfig& c) { c.max_checkpoint_request = 0; }},
        InvalidCase{"weight_vector_over_cap",
                    [](PolicyConfig& c) {
                      c.beta = static_cast<uint32_t>(PolicyConfig::kMaxWeightVectorLength);
                    }},
        // 99999999999 narrowed to 32 bits: ~1.2e9 weights.
        InvalidCase{"huge_beta", [](PolicyConfig& c) { c.beta = 1215752191; }},
        // The 32-bit length wraps to a small number; the check must not.
        InvalidCase{"length_wraps_32_bits",
                    [](PolicyConfig& c) {
                      c.beta = 0xffffffffu;
                      c.max_checkpoint_request = 1;
                    }},
        InvalidCase{"alpha_zero", [](PolicyConfig& c) { c.alpha = 0.0; }},
        InvalidCase{"alpha_above_one", [](PolicyConfig& c) { c.alpha = 1.5; }},
        InvalidCase{"negative_p", [](PolicyConfig& c) { c.retain_top_percent = -1; }},
        InvalidCase{"p_above_100", [](PolicyConfig& c) { c.retain_top_percent = 101; }},
        InvalidCase{"negative_gamma",
                    [](PolicyConfig& c) { c.retain_random_percent = -1; }},
        InvalidCase{"p_plus_gamma_above_100",
                    [](PolicyConfig& c) {
                      c.retain_top_percent = 60;
                      c.retain_random_percent = 50;
                    }},
        InvalidCase{"zero_mu", [](PolicyConfig& c) { c.mu = 0.0; }},
        InvalidCase{"negative_mu", [](PolicyConfig& c) { c.mu = -1e-6; }},
        InvalidCase{"zero_temperature",
                    [](PolicyConfig& c) { c.softmax_temperature = 0.0; }}),
    [](const ::testing::TestParamInfo<InvalidCase>& param_info) {
      return param_info.param.name;
    });

TEST(PolicyConfigTest, BoundaryValuesAccepted) {
  PolicyConfig config = PaperConfig();
  config.alpha = 1.0;  // Pure replacement is legal.
  EXPECT_TRUE(config.Validate().ok());
  config.retain_top_percent = 100.0;
  config.retain_random_percent = 0.0;
  EXPECT_TRUE(config.Validate().ok());
  config.beta = 1;
  EXPECT_TRUE(config.Validate().ok());
  config.max_checkpoint_request = 100;
  config.beta = static_cast<uint32_t>(PolicyConfig::kMaxWeightVectorLength - 101);
  EXPECT_TRUE(config.Validate().ok());  // Exactly at the weight-vector cap.
}

}  // namespace
}  // namespace pronghorn
