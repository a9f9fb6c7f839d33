// Hot-path equivalence: the incremental weight math, the swap-to-front
// candidate ordering, and the decoded-policy-state cache are pure CPU
// optimizations — every observable value must match the naive recompute
// bit for bit, and every simulated trajectory must be identical with the
// optimizations on or off. These tests pin that contract with exact (==)
// floating-point comparisons, never tolerances.

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <vector>

#include "src/common/mathutil.h"
#include "src/common/rng.h"
#include "src/core/policy_state_store.h"
#include "src/core/request_centric_policy.h"
#include "src/core/weight_vector.h"
#include "src/platform/simulate.h"
#include "src/store/fault_injection.h"
#include "src/store/kv_database.h"

namespace pronghorn {
namespace {

constexpr double kAlpha = 0.3;
constexpr double kMu = 1e-6;

PolicyConfig TestConfig() {
  PolicyConfig config;
  config.beta = 4;
  config.pool_capacity = 3;
  config.max_checkpoint_request = 30;
  return config;
}

// The naive folds the WeightVector caches must reproduce exactly, computed
// against a plain shadow vector with the same out-of-range convention
// (entries beyond the end read as unexplored).
double ShadowAt(const std::vector<double>& values, uint64_t i) {
  return i < values.size() ? values[i] : 0.0;
}

double ShadowLifetimeWeight(const std::vector<double>& values, uint64_t start,
                            uint32_t beta, double mu) {
  double sum = 0.0;
  for (uint64_t i = start; i <= start + beta; ++i) {
    sum += InverseWeight(ShadowAt(values, i), mu);
  }
  return sum / static_cast<double>(beta);
}

void ShadowUpdate(std::vector<double>& values, uint64_t i, double latency,
                  double alpha) {
  if (i >= values.size() || latency <= 0.0) {
    return;
  }
  values[i] = values[i] == 0.0 ? latency : EwmaUpdate(values[i], latency, alpha);
}

TEST(IncrementalWeightMathTest, MatchesNaiveRecomputeToTheLastUlp) {
  constexpr uint32_t kLength = 121;  // W = 100, beta = 20.
  constexpr uint32_t kBeta = 20;
  WeightVector theta(kLength);
  std::vector<double> shadow(kLength, 0.0);
  Rng rng(1234);

  for (int step = 0; step < 4000; ++step) {
    // Interleave mutation and queries so the memo's invalidate/refresh
    // machinery is exercised, not just a single warm-up.
    const uint64_t index = rng.UniformUint64(kLength + 10);  // Some out of range.
    const double latency = rng.UniformDouble() * 0.2 - 0.002;  // Some <= 0.
    theta.Update(index, latency, kAlpha);
    ShadowUpdate(shadow, index, latency, kAlpha);

    const uint64_t start = rng.UniformUint64(kLength + 5);
    ASSERT_EQ(theta.LifetimeWeight(start, kBeta, kMu),
              ShadowLifetimeWeight(shadow, start, kBeta, kMu))
        << "step " << step << " start " << start;

    if (step % 7 == 0) {
      const uint64_t lo = rng.UniformUint64(kLength);
      const uint64_t hi = lo + rng.UniformUint64(kBeta + 1);
      const std::vector<double> got = theta.InverseWeights(lo, hi, kMu);
      const std::span<const double> view = theta.InverseWeightsSpan(lo, hi, kMu);
      ASSERT_EQ(got.size(), view.size());
      for (size_t i = 0; i < got.size(); ++i) {
        ASSERT_EQ(got[i], InverseWeight(ShadowAt(shadow, lo + i), kMu));
        ASSERT_EQ(view[i], got[i]);
      }
    }

    if (step % 11 == 0) {
      // A different mu forces the cache rebuild path and must still agree.
      const double other_mu = 1e-3;
      ASSERT_EQ(theta.LifetimeWeight(start, kBeta, other_mu),
                ShadowLifetimeWeight(shadow, start, kBeta, other_mu));
    }

    uint32_t scan = 0;
    for (double v : shadow) {
      scan += v > 0.0 ? 1 : 0;
    }
    ASSERT_EQ(theta.ExploredCount(), scan);
  }
}

TEST(IncrementalWeightMathTest, SerializationRoundTripPreservesDerivedState) {
  WeightVector theta(40);
  Rng rng(9);
  for (int i = 0; i < 200; ++i) {
    theta.Update(rng.UniformUint64(40), rng.UniformDouble(), kAlpha);
  }
  // Warm the caches, then round-trip and compare every derived quantity.
  (void)theta.LifetimeWeight(3, 5, kMu);
  ByteWriter writer;
  theta.Serialize(writer);
  const std::vector<uint8_t> wire = writer.TakeData();
  ByteReader reader(wire);
  const auto restored = WeightVector::Deserialize(reader);
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ(*restored, theta);
  EXPECT_EQ(restored->ExploredCount(), theta.ExploredCount());
  for (uint64_t start = 0; start < 45; ++start) {
    EXPECT_EQ(restored->LifetimeWeight(start, 5, kMu),
              theta.LifetimeWeight(start, 5, kMu));
  }
}

// Reference implementation of the pre-optimization OnWorkerStart: naive
// weights, full-range sort with the comparator that special-cased the drawn
// index. The policy's swap-to-front + tail sort must reproduce its output
// and its RNG consumption exactly.
struct ReferenceDecision {
  std::optional<SnapshotId> restore_from;
  std::vector<SnapshotId> restore_candidates;
  std::optional<uint64_t> checkpoint_at_request;
};

ReferenceDecision ReferenceOnWorkerStart(const PolicyConfig& config,
                                         const PolicyState& state,
                                         const std::vector<double>& shadow_theta,
                                         Rng& rng) {
  ReferenceDecision decision;
  uint64_t start_request = 0;
  if (!state.pool.empty()) {
    std::vector<double> weights;
    for (const PoolEntry& entry : state.pool.entries()) {
      weights.push_back(ShadowLifetimeWeight(shadow_theta,
                                             entry.metadata.request_number,
                                             config.beta, config.mu));
    }
    const std::vector<double> probabilities =
        Softmax(weights, config.softmax_temperature);
    const size_t first_index = rng.WeightedIndex(probabilities);
    const auto entries = state.pool.entries();
    std::vector<size_t> order(entries.size());
    std::iota(order.begin(), order.end(), 0);
    std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
      if (a == first_index || b == first_index) {
        return a == first_index;
      }
      if (probabilities[a] != probabilities[b]) {
        return probabilities[a] > probabilities[b];
      }
      return entries[a].metadata.id.value > entries[b].metadata.id.value;
    });
    for (const size_t index : order) {
      decision.restore_candidates.push_back(entries[index].metadata.id);
    }
    decision.restore_from = entries[first_index].metadata.id;
    start_request = entries[first_index].metadata.request_number;
  }
  const uint64_t lo = start_request + 1;
  const uint64_t hi =
      std::min<uint64_t>(start_request + config.beta, config.max_checkpoint_request);
  if (lo <= hi) {
    std::vector<double> weights;
    const uint64_t clamped_hi =
        std::min<uint64_t>(hi, shadow_theta.empty() ? 0 : shadow_theta.size() - 1);
    for (uint64_t i = lo; i <= clamped_hi && lo <= clamped_hi; ++i) {
      weights.push_back(InverseWeight(shadow_theta[i], config.mu));
    }
    if (!weights.empty()) {
      decision.checkpoint_at_request = lo + rng.WeightedIndex(weights);
    }
  }
  return decision;
}

TEST(CandidateOrderingTest, SwapToFrontMatchesLegacyComparatorAndRngDraws) {
  PolicyConfig config = TestConfig();
  config.pool_capacity = 6;
  const auto policy = RequestCentricPolicy::Create(config);
  ASSERT_TRUE(policy.ok());

  Rng setup_rng(77);
  for (int round = 0; round < 200; ++round) {
    PolicyState state(config);
    std::vector<double> shadow(config.WeightVectorLength(), 0.0);
    const int updates = static_cast<int>(setup_rng.UniformUint64(120));
    for (int i = 0; i < updates; ++i) {
      const uint64_t index = setup_rng.UniformUint64(config.WeightVectorLength());
      const double latency = 0.001 + setup_rng.UniformDouble() * 0.1;
      state.theta.Update(index, latency, kAlpha);
      ShadowUpdate(shadow, index, latency, kAlpha);
    }
    const uint64_t pool_size = setup_rng.UniformUint64(7);  // 0..6 entries.
    for (uint64_t i = 1; i <= pool_size; ++i) {
      PoolEntry entry;
      entry.metadata.id = SnapshotId{100 * static_cast<uint64_t>(round) + i};
      entry.metadata.function = "equiv";
      entry.metadata.request_number =
          setup_rng.UniformUint64(config.max_checkpoint_request);
      entry.object_key = "snapshots/equiv/" + std::to_string(i);
      ASSERT_TRUE(state.pool.Add(std::move(entry)).ok());
    }

    // Identical seeds: the optimized path must consume exactly the same
    // draws as the reference, or the trajectories diverge from here on.
    Rng optimized_rng(1000 + static_cast<uint64_t>(round));
    Rng reference_rng(1000 + static_cast<uint64_t>(round));
    const StartDecision got = policy->OnWorkerStart(state, optimized_rng);
    const ReferenceDecision want =
        ReferenceOnWorkerStart(config, state, shadow, reference_rng);

    EXPECT_EQ(got.restore_from.has_value(), want.restore_from.has_value());
    if (got.restore_from && want.restore_from) {
      EXPECT_EQ(got.restore_from->value, want.restore_from->value);
    }
    ASSERT_EQ(got.restore_candidates.size(), want.restore_candidates.size());
    for (size_t i = 0; i < got.restore_candidates.size(); ++i) {
      EXPECT_EQ(got.restore_candidates[i].value, want.restore_candidates[i].value)
          << "round " << round << " rank " << i;
    }
    EXPECT_EQ(got.checkpoint_at_request, want.checkpoint_at_request);
    EXPECT_EQ(optimized_rng.NextUint64(), reference_rng.NextUint64())
        << "RNG streams diverged in round " << round;
  }
}

// --- PolicyStateStore decoded-state cache -----------------------------------

// Drives the same operation sequence through a cache-enabled and a
// cache-disabled store (each with its own database and, under chaos, its own
// identically-seeded fault decorator) and asserts every observable —
// statuses, stored blobs, loaded states, retry stats — is identical.
void RunStoreEquivalence(bool with_faults) {
  const PolicyConfig config = TestConfig();
  FaultPlan plan;
  if (with_faults) {
    // The chaos plan from chaos_recovery_test.cc's convergence scenario.
    plan.get_failure_rate = 0.10;
    plan.put_failure_rate = 0.10;
    plan.delete_failure_rate = 0.10;
    plan.metadata_failure_rate = 0.10;
    plan.corruption_rate = 0.02;
    plan.seed = 42;
  }

  InMemoryKvDatabase inner_cached;
  InMemoryKvDatabase inner_plain;
  FaultyKvDatabase faulty_cached(inner_cached, plan);
  FaultyKvDatabase faulty_plain(inner_plain, plan);
  KvDatabase& db_cached =
      with_faults ? static_cast<KvDatabase&>(faulty_cached) : inner_cached;
  KvDatabase& db_plain =
      with_faults ? static_cast<KvDatabase&>(faulty_plain) : inner_plain;

  PolicyStateStore cached(db_cached, "equiv", config, nullptr,
                          StateStoreRetryPolicy{}, /*enable_cache=*/true);
  PolicyStateStore plain(db_plain, "equiv", config, nullptr,
                         StateStoreRetryPolicy{}, /*enable_cache=*/false);
  ASSERT_TRUE(cached.cache_enabled());
  ASSERT_FALSE(plain.cache_enabled());

  Rng rng(5);
  for (int op = 0; op < 300; ++op) {
    if (rng.UniformUint64(4) == 0) {
      auto a = cached.Load();
      auto b = plain.Load();
      ASSERT_EQ(a.ok(), b.ok()) << "op " << op;
      if (a.ok()) {
        ASSERT_TRUE(**a == **b) << "op " << op;
      }
    } else {
      const uint64_t request = rng.UniformUint64(config.WeightVectorLength());
      const double latency = 0.001 + rng.UniformDouble() * 0.05;
      const auto mutate = [&](PolicyState& state) {
        state.theta.Update(request, latency, kAlpha);
      };
      const Status a = cached.Update(mutate);
      const Status b = plain.Update(mutate);
      ASSERT_EQ(a.code(), b.code()) << "op " << op;
    }
  }

  // Stored blobs and retry accounting are byte-for-byte identical.
  const auto blob_a = inner_cached.Get("policy/equiv/state");
  const auto blob_b = inner_plain.Get("policy/equiv/state");
  ASSERT_EQ(blob_a.ok(), blob_b.ok());
  if (blob_a.ok()) {
    EXPECT_EQ(*blob_a, *blob_b);
  }
  EXPECT_EQ(cached.stats().loads, plain.stats().loads);
  EXPECT_EQ(cached.stats().updates, plain.stats().updates);
  EXPECT_EQ(cached.stats().cas_attempts, plain.stats().cas_attempts);
  EXPECT_EQ(cached.stats().cas_conflicts, plain.stats().cas_conflicts);
  EXPECT_EQ(cached.stats().transient_retries, plain.stats().transient_retries);
  EXPECT_EQ(cached.stats().total_backoff, plain.stats().total_backoff);

  // The cache actually worked (and never reported activity when disabled).
  EXPECT_GT(cached.cache_stats().hits, 0u);
  EXPECT_EQ(plain.cache_stats().hits, 0u);
  EXPECT_EQ(plain.cache_stats().misses, 0u);
}

TEST(PolicyStateStoreCacheTest, FaultFreeTrajectoriesIdenticalCacheOnOff) {
  RunStoreEquivalence(/*with_faults=*/false);
}

TEST(PolicyStateStoreCacheTest, ChaosTrajectoriesIdenticalCacheOnOff) {
  RunStoreEquivalence(/*with_faults=*/true);
}

TEST(PolicyStateStoreCacheTest, ConcurrentWriterInvalidatesByVersion) {
  const PolicyConfig config = TestConfig();
  InMemoryKvDatabase db;
  PolicyStateStore a(db, "shared", config);
  PolicyStateStore b(db, "shared", config);

  ASSERT_TRUE(a.Update([](PolicyState& s) { s.theta.Update(1, 0.5, kAlpha); }).ok());
  const uint64_t hits_before = a.cache_stats().hits;
  auto loaded = a.Load();
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(a.cache_stats().hits, hits_before + 1);  // Version matched.

  // Another store advances the blob's version behind a's back; a must
  // re-decode (miss), then resume hitting once its cache is refreshed.
  ASSERT_TRUE(b.Update([](PolicyState& s) { s.theta.Update(2, 0.7, kAlpha); }).ok());
  const uint64_t misses_before = a.cache_stats().misses;
  auto reloaded = a.Load();
  ASSERT_TRUE(reloaded.ok());
  EXPECT_EQ(a.cache_stats().misses, misses_before + 1);
  EXPECT_EQ(a.cache_stats().hits, hits_before + 1);
  auto again = a.Load();
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(a.cache_stats().hits, hits_before + 2);
  ASSERT_TRUE(**reloaded == **again);
}

TEST(PolicyStateStoreCacheTest, FleetDigestIdenticalCacheOnOffUnderChaos) {
  // Full-stack version of the equivalence: an entire chaos fleet run must
  // produce the same digest with the cache on and off, at several thread
  // counts (the acceptance bar wired into CI's perf-smoke job).
  const auto policy = RequestCentricPolicy::Create(TestConfig());
  ASSERT_TRUE(policy.ok());
  const auto& registry = WorkloadRegistry::Default();
  const auto dynamic_html = registry.Find("DynamicHTML");
  const auto bfs = registry.Find("BFS");
  ASSERT_TRUE(dynamic_html.ok());
  ASSERT_TRUE(bfs.ok());
  const WorkloadProfile* profiles[] = {*dynamic_html, *bfs};

  std::vector<SimFunctionSpec> specs;
  for (const WorkloadProfile* profile : profiles) {
    SimFunctionSpec spec;
    spec.name = profile->name;
    spec.profile = profile;
    spec.policy = &*policy;
    spec.requests = 150;
    specs.push_back(spec);
  }

  std::vector<uint32_t> digests;
  for (const uint32_t threads : {1u, 2u}) {
    for (const bool cache : {true, false}) {
      SimOptions options;
      options.seed = 7;
      options.threads = threads;
      options.eviction.kind = FleetEvictionSpec::Kind::kEveryK;
      options.eviction.k = 4;
      options.faults.get_failure_rate = 0.10;
      options.faults.put_failure_rate = 0.10;
      options.faults.delete_failure_rate = 0.10;
      options.faults.metadata_failure_rate = 0.10;
      options.faults.corruption_rate = 0.02;
      options.faults.seed = 42;
      options.state_cache = cache;
      auto report =
          Simulate(registry, SimTopology::kFleet, specs, options);
      ASSERT_TRUE(report.ok()) << report.status().ToString();
      EXPECT_GT(report->faults.store_faults + report->faults.db_faults, 0u);
      digests.push_back(report->Digest());
    }
  }
  for (const uint32_t digest : digests) {
    EXPECT_EQ(digest, digests.front());
  }
}

}  // namespace
}  // namespace pronghorn
