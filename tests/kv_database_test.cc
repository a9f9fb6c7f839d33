#include "src/store/kv_database.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

namespace pronghorn {
namespace {

std::vector<uint8_t> Value(std::string_view text) {
  return std::vector<uint8_t>(text.begin(), text.end());
}

std::string AsString(const std::vector<uint8_t>& bytes) {
  return std::string(bytes.begin(), bytes.end());
}

TEST(KvDatabaseTest, PutGetRoundTrip) {
  InMemoryKvDatabase db;
  ASSERT_TRUE(db.Put("key", Value("hello")).ok());
  auto got = db.Get("key");
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(AsString(*got), "hello");
}

TEST(KvDatabaseTest, GetMissingIsNotFound) {
  InMemoryKvDatabase db;
  EXPECT_EQ(db.Get("missing").status().code(), StatusCode::kNotFound);
}

TEST(KvDatabaseTest, EmptyKeyRejected) {
  InMemoryKvDatabase db;
  EXPECT_EQ(db.Put("", Value("x")).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(db.Increment("").status().code(), StatusCode::kInvalidArgument);
}

TEST(KvDatabaseTest, VersionsIncreaseOnWrite) {
  InMemoryKvDatabase db;
  ASSERT_TRUE(db.Put("k", Value("v1")).ok());
  auto v1 = db.GetVersioned("k");
  ASSERT_TRUE(v1.ok());
  EXPECT_EQ(v1->version, 1u);

  ASSERT_TRUE(db.Put("k", Value("v2")).ok());
  auto v2 = db.GetVersioned("k");
  ASSERT_TRUE(v2.ok());
  EXPECT_EQ(v2->version, 2u);
  EXPECT_EQ(AsString(v2->value), "v2");
}

TEST(KvDatabaseTest, CasCreatesWithVersionZero) {
  InMemoryKvDatabase db;
  ASSERT_TRUE(db.CompareAndSwap("k", 0, Value("created")).ok());
  auto got = db.GetVersioned("k");
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got->version, 1u);
  EXPECT_EQ(AsString(got->value), "created");
}

TEST(KvDatabaseTest, CasSucceedsOnMatchingVersion) {
  InMemoryKvDatabase db;
  ASSERT_TRUE(db.Put("k", Value("v1")).ok());
  ASSERT_TRUE(db.CompareAndSwap("k", 1, Value("v2")).ok());
  EXPECT_EQ(AsString(*db.Get("k")), "v2");
}

TEST(KvDatabaseTest, CasConflictsOnStaleVersion) {
  InMemoryKvDatabase db;
  ASSERT_TRUE(db.Put("k", Value("v1")).ok());
  ASSERT_TRUE(db.Put("k", Value("v2")).ok());
  // A writer holding version 1 must lose.
  EXPECT_EQ(db.CompareAndSwap("k", 1, Value("stale")).code(), StatusCode::kAborted);
  EXPECT_EQ(AsString(*db.Get("k")), "v2");
}

TEST(KvDatabaseTest, CasOnMissingKeyWithNonZeroVersionConflicts) {
  InMemoryKvDatabase db;
  EXPECT_EQ(db.CompareAndSwap("ghost", 3, Value("x")).code(), StatusCode::kAborted);
}

TEST(KvDatabaseTest, DeleteRemovesAndReportsMissing) {
  InMemoryKvDatabase db;
  ASSERT_TRUE(db.Put("k", Value("v")).ok());
  ASSERT_TRUE(db.Delete("k").ok());
  EXPECT_EQ(db.Get("k").status().code(), StatusCode::kNotFound);
  EXPECT_EQ(db.Delete("k").code(), StatusCode::kNotFound);
}

TEST(KvDatabaseTest, DeleteThenPutResetsVersion) {
  InMemoryKvDatabase db;
  ASSERT_TRUE(db.Put("k", Value("a")).ok());
  ASSERT_TRUE(db.Delete("k").ok());
  ASSERT_TRUE(db.Put("k", Value("b")).ok());
  EXPECT_EQ(db.GetVersioned("k")->version, 1u);
}

TEST(KvDatabaseTest, IncrementStartsAtOne) {
  InMemoryKvDatabase db;
  auto first = db.Increment("counter");
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(*first, 1);
  EXPECT_EQ(*db.Increment("counter"), 2);
  EXPECT_EQ(*db.Increment("counter"), 3);
  EXPECT_EQ(*db.Increment("other"), 1);
}

TEST(KvDatabaseTest, IncrementRejectsNonCounterValue) {
  InMemoryKvDatabase db;
  ASSERT_TRUE(db.Put("k", Value("short")).ok());  // 5 bytes, not an int64.
  EXPECT_FALSE(db.Increment("k").ok());
}

TEST(KvDatabaseTest, ListKeysWithPrefix) {
  InMemoryKvDatabase db;
  ASSERT_TRUE(db.Put("policy/f1/state", Value("a")).ok());
  ASSERT_TRUE(db.Put("policy/f2/state", Value("b")).ok());
  ASSERT_TRUE(db.Put("other", Value("c")).ok());
  EXPECT_EQ(db.ListKeys("policy/").size(), 2u);
  EXPECT_EQ(db.ListKeys("").size(), 3u);
  EXPECT_TRUE(db.ListKeys("zzz").empty());
}

TEST(KvDatabaseTest, AccountingCounts) {
  InMemoryKvDatabase db;
  ASSERT_TRUE(db.Put("k", Value("v")).ok());
  ASSERT_TRUE(db.Get("k").ok());
  ASSERT_TRUE(db.GetVersioned("k").ok());
  ASSERT_TRUE(db.CompareAndSwap("k", 1, Value("v2")).ok());
  EXPECT_EQ(db.CompareAndSwap("k", 1, Value("v3")).code(), StatusCode::kAborted);

  const KvAccounting acc = db.accounting();
  EXPECT_EQ(acc.writes, 1u);
  EXPECT_EQ(acc.reads, 2u);
  EXPECT_EQ(acc.cas_attempts, 2u);
  EXPECT_EQ(acc.cas_conflicts, 1u);
}

TEST(KvDatabaseTest, GetVersionedIfChangedSkipsTheValueOnAMatch) {
  InMemoryKvDatabase db;
  ASSERT_TRUE(db.Put("k", Value("blob")).ok());
  ASSERT_TRUE(db.Put("k", Value("blob2")).ok());  // Version 2.

  auto same = db.GetVersionedIfChanged("k", 2);
  ASSERT_TRUE(same.ok());
  EXPECT_EQ(same->version, 2u);
  EXPECT_TRUE(same->value.empty());

  for (const uint64_t known : {0u, 1u, 3u}) {
    auto changed = db.GetVersionedIfChanged("k", known);
    ASSERT_TRUE(changed.ok());
    EXPECT_EQ(changed->version, 2u);
    EXPECT_EQ(AsString(changed->value), "blob2") << "known " << known;
  }
  EXPECT_EQ(db.GetVersionedIfChanged("absent", 1).status().code(), StatusCode::kNotFound);
}

TEST(KvDatabaseTest, GetVersionedIfChangedCountsReadsLikeGetVersioned) {
  // Accounting feeds digest-covered reports: the probe must bump `reads`
  // exactly as GetVersioned does, hit or miss, present or absent.
  InMemoryKvDatabase probed;
  InMemoryKvDatabase plain;
  for (InMemoryKvDatabase* db : {&probed, &plain}) {
    ASSERT_TRUE(db->Put("k", Value("v")).ok());
  }
  (void)probed.GetVersionedIfChanged("k", 1);
  (void)probed.GetVersionedIfChanged("k", 7);
  (void)probed.GetVersionedIfChanged("missing", 1);
  for (int i = 0; i < 3; ++i) {
    (void)plain.GetVersioned(i == 2 ? "missing" : "k");
  }
  EXPECT_EQ(probed.accounting().reads, plain.accounting().reads);
  EXPECT_EQ(probed.accounting().reads, 3u);
}

TEST(KvDatabaseTest, GetVersionedIfChangedDefaultForwardsToGetVersioned) {
  // A database that overrides only the pure virtuals still answers the
  // probe, always with the full value.
  class Forwarding final : public KvDatabase {
   public:
    explicit Forwarding(KvDatabase& inner) : inner_(inner) {}
    Status Put(std::string_view key, std::vector<uint8_t> value) override {
      return inner_.Put(key, std::move(value));
    }
    Result<std::vector<uint8_t>> Get(std::string_view key) override { return inner_.Get(key); }
    Result<VersionedValue> GetVersioned(std::string_view key) override {
      ++versioned_reads;
      return inner_.GetVersioned(key);
    }
    Status CompareAndSwap(std::string_view key, uint64_t expected,
                          std::vector<uint8_t> value) override {
      return inner_.CompareAndSwap(key, expected, std::move(value));
    }
    Status Delete(std::string_view key) override { return inner_.Delete(key); }
    Result<int64_t> Increment(std::string_view key) override { return inner_.Increment(key); }
    std::vector<std::string> ListKeys(std::string_view prefix) const override {
      return inner_.ListKeys(prefix);
    }
    KvAccounting accounting() const override { return inner_.accounting(); }
    int versioned_reads = 0;

   private:
    KvDatabase& inner_;
  };
  InMemoryKvDatabase inner;
  Forwarding db(inner);
  ASSERT_TRUE(db.Put("k", Value("full")).ok());
  auto got = db.GetVersionedIfChanged("k", 1);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(AsString(got->value), "full");
  EXPECT_EQ(db.versioned_reads, 1);
}

TEST(KvDatabaseTest, ValuesAreIndependentCopies) {
  InMemoryKvDatabase db;
  std::vector<uint8_t> original = Value("abc");
  ASSERT_TRUE(db.Put("k", original).ok());
  auto got = db.Get("k");
  ASSERT_TRUE(got.ok());
  (*got)[0] = 'X';  // Mutating the returned copy must not affect the store.
  EXPECT_EQ(AsString(*db.Get("k")), "abc");
}

// --- Striped-lock concurrency stress --------------------------------------
//
// InMemoryKvDatabase stripes its map; CAS and Increment must stay atomic per
// key (the stripe lock covers read-modify-write), and the op counters must
// not lose updates. Run under TSan in CI.

TEST(KvDatabaseStressTest, ConcurrentIncrementsAreExact) {
  InMemoryKvDatabase db;
  constexpr int kThreads = 8;
  constexpr int kIncrementsEach = 500;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&db]() {
      for (int i = 0; i < kIncrementsEach; ++i) {
        auto value = db.Increment("counter");
        ASSERT_TRUE(value.ok());
      }
    });
  }
  for (auto& thread : threads) {
    thread.join();
  }
  auto final_value = db.Increment("counter");
  ASSERT_TRUE(final_value.ok());
  EXPECT_EQ(*final_value, kThreads * kIncrementsEach + 1);
}

TEST(KvDatabaseStressTest, ContendedCasAdmitsExactlyOneWinnerPerRound) {
  InMemoryKvDatabase db;
  ASSERT_TRUE(db.Put("slot", Value("v0")).ok());
  constexpr int kThreads = 6;
  constexpr int kRounds = 100;
  std::atomic<int> wins{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&db, &wins]() {
      for (int round = 0; round < kRounds; ++round) {
        auto versioned = db.GetVersioned("slot");
        ASSERT_TRUE(versioned.ok());
        const Status cas =
            db.CompareAndSwap("slot", versioned->version, Value("vN"));
        if (cas.ok()) {
          wins.fetch_add(1);
        } else {
          ASSERT_EQ(cas.code(), StatusCode::kAborted);
        }
      }
    });
  }
  for (auto& thread : threads) {
    thread.join();
  }
  // Version increments exactly once per successful CAS: the final version is
  // the win count plus the initial Put's version.
  auto versioned = db.GetVersioned("slot");
  ASSERT_TRUE(versioned.ok());
  EXPECT_EQ(versioned->version, static_cast<uint64_t>(wins.load()) + 1u);
  const KvAccounting acc = db.accounting();
  EXPECT_EQ(acc.cas_attempts, static_cast<uint64_t>(kThreads * kRounds));
  EXPECT_EQ(acc.cas_conflicts,
            acc.cas_attempts - static_cast<uint64_t>(wins.load()));
}

TEST(KvDatabaseStressTest, DisjointWritersKeepCountersAndKeysExact) {
  InMemoryKvDatabase db;
  constexpr int kThreads = 8;
  constexpr int kKeysEach = 150;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&db, t]() {
      for (int i = 0; i < kKeysEach; ++i) {
        const std::string key =
            "t" + std::to_string(t) + "/" + std::to_string(i);
        ASSERT_TRUE(db.Put(key, Value("payload")).ok());
        ASSERT_TRUE(db.Get(key).ok());
      }
    });
  }
  for (auto& thread : threads) {
    thread.join();
  }
  const auto keys = db.ListKeys("");
  EXPECT_EQ(keys.size(), static_cast<size_t>(kThreads * kKeysEach));
  EXPECT_TRUE(std::is_sorted(keys.begin(), keys.end()));
  const KvAccounting acc = db.accounting();
  EXPECT_EQ(acc.writes, static_cast<uint64_t>(kThreads * kKeysEach));
  EXPECT_EQ(acc.reads, static_cast<uint64_t>(kThreads * kKeysEach));
}

}  // namespace
}  // namespace pronghorn
