#include "src/store/object_store.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <thread>
#include <vector>

namespace pronghorn {
namespace {

ObjectBlob Blob(std::string_view text, uint64_t logical_size) {
  return ObjectBlob(std::vector<uint8_t>(text.begin(), text.end()), logical_size);
}

// --- Object store contract ---------------------------------------------

TEST(InMemoryObjectStoreTest, PutGetRoundTrip) {
  InMemoryObjectStore store;
  ASSERT_TRUE(store.Put("a/b", Blob("payload", 100)).ok());
  auto got = store.Get("a/b");
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(std::string(got->bytes().begin(), got->bytes().end()), "payload");
  EXPECT_EQ(got->logical_size, 100u);
}

TEST(InMemoryObjectStoreTest, GetMissingIsNotFound) {
  InMemoryObjectStore store;
  EXPECT_EQ(store.Get("nope").status().code(), StatusCode::kNotFound);
}

TEST(InMemoryObjectStoreTest, EmptyKeyRejected) {
  InMemoryObjectStore store;
  EXPECT_EQ(store.Put("", Blob("x", 1)).code(), StatusCode::kInvalidArgument);
}

TEST(InMemoryObjectStoreTest, OverwriteReplacesValue) {
  InMemoryObjectStore store;
  ASSERT_TRUE(store.Put("k", Blob("one", 10)).ok());
  ASSERT_TRUE(store.Put("k", Blob("two", 20)).ok());
  auto got = store.Get("k");
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(std::string(got->bytes().begin(), got->bytes().end()), "two");
  EXPECT_EQ(store.accounting().logical_bytes_stored, 20u);
}

TEST(InMemoryObjectStoreTest, DeleteRemoves) {
  InMemoryObjectStore store;
  ASSERT_TRUE(store.Put("k", Blob("x", 5)).ok());
  EXPECT_TRUE(store.Contains("k"));
  ASSERT_TRUE(store.Delete("k").ok());
  EXPECT_FALSE(store.Contains("k"));
  EXPECT_EQ(store.Delete("k").code(), StatusCode::kNotFound);
  EXPECT_EQ(store.accounting().logical_bytes_stored, 0u);
}

TEST(InMemoryObjectStoreTest, ListKeysWithPrefix) {
  InMemoryObjectStore store;
  ASSERT_TRUE(store.Put("snapshots/f1/1", Blob("a", 1)).ok());
  ASSERT_TRUE(store.Put("snapshots/f1/2", Blob("b", 1)).ok());
  ASSERT_TRUE(store.Put("snapshots/f2/1", Blob("c", 1)).ok());
  const auto all = store.ListKeys("");
  EXPECT_EQ(all.size(), 3u);
  const auto f1 = store.ListKeys("snapshots/f1/");
  ASSERT_EQ(f1.size(), 2u);
  EXPECT_EQ(f1[0], "snapshots/f1/1");
  EXPECT_EQ(f1[1], "snapshots/f1/2");
  EXPECT_TRUE(store.ListKeys("zzz").empty());
}

TEST(InMemoryObjectStoreTest, AccountingTracksTraffic) {
  InMemoryObjectStore store;
  ASSERT_TRUE(store.Put("a", Blob("x", 50)).ok());
  ASSERT_TRUE(store.Put("b", Blob("y", 70)).ok());
  ASSERT_TRUE(store.Get("a").ok());
  ASSERT_TRUE(store.Get("a").ok());

  const StoreAccounting acc = store.accounting();
  EXPECT_EQ(acc.logical_bytes_stored, 120u);
  EXPECT_EQ(acc.peak_logical_bytes, 120u);
  EXPECT_EQ(acc.network_bytes_uploaded, 120u);
  EXPECT_EQ(acc.network_bytes_downloaded, 100u);
  EXPECT_EQ(acc.put_count, 2u);
  EXPECT_EQ(acc.get_count, 2u);
}

TEST(InMemoryObjectStoreTest, PeakSurvivesDeletes) {
  InMemoryObjectStore store;
  ASSERT_TRUE(store.Put("a", Blob("x", 500)).ok());
  ASSERT_TRUE(store.Delete("a").ok());
  ASSERT_TRUE(store.Put("b", Blob("y", 100)).ok());
  const StoreAccounting acc = store.accounting();
  EXPECT_EQ(acc.logical_bytes_stored, 100u);
  EXPECT_EQ(acc.peak_logical_bytes, 500u);
}

TEST(InMemoryObjectStoreTest, BinaryPayloadSafe) {
  InMemoryObjectStore store;
  std::vector<uint8_t> raw;
  for (int i = 0; i < 256; ++i) {
    raw.push_back(static_cast<uint8_t>(i));
  }
  ObjectBlob blob(raw, raw.size());
  ASSERT_TRUE(store.Put("bin", std::move(blob)).ok());
  auto got = store.Get("bin");
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got->bytes(), raw);
}

// --- Striped-lock concurrency stress --------------------------------------
//
// InMemoryObjectStore shards its map across kStoreStripes cache-line-aligned
// stripes with serial-exact atomic accounting. These tests drive it from many
// threads (run under TSan in CI) and then verify the invariants that survive
// any interleaving: no lost keys, internally consistent accounting, and
// ListKeys still globally sorted.

TEST(InMemoryObjectStoreStressTest, ConcurrentDisjointWritersLoseNothing) {
  InMemoryObjectStore store;
  constexpr int kThreads = 8;
  constexpr int kKeysPerThread = 200;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&store, t]() {
      for (int i = 0; i < kKeysPerThread; ++i) {
        const std::string key =
            "w" + std::to_string(t) + "/k" + std::to_string(i);
        ASSERT_TRUE(store.Put(key, Blob("payload", 100)).ok());
        auto got = store.Get(key);
        ASSERT_TRUE(got.ok());
        EXPECT_EQ(got->logical_size, 100u);
      }
    });
  }
  for (auto& thread : threads) {
    thread.join();
  }
  const auto keys = store.ListKeys("");
  EXPECT_EQ(keys.size(), static_cast<size_t>(kThreads * kKeysPerThread));
  EXPECT_TRUE(std::is_sorted(keys.begin(), keys.end()));
  const StoreAccounting acc = store.accounting();
  EXPECT_EQ(acc.put_count, static_cast<uint64_t>(kThreads * kKeysPerThread));
  EXPECT_EQ(acc.get_count, static_cast<uint64_t>(kThreads * kKeysPerThread));
  EXPECT_EQ(acc.logical_bytes_stored,
            static_cast<uint64_t>(kThreads * kKeysPerThread) * 100u);
  EXPECT_GE(acc.peak_logical_bytes, acc.logical_bytes_stored);
}

TEST(InMemoryObjectStoreStressTest, ContendedSameKeyChurnStaysConsistent) {
  InMemoryObjectStore store;
  constexpr int kThreads = 8;
  constexpr int kOpsPerThread = 300;
  // All threads fight over a handful of keys: overwrites, deletes of
  // possibly-absent keys, reads of possibly-absent keys.
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&store, t]() {
      for (int i = 0; i < kOpsPerThread; ++i) {
        const std::string key = "hot/" + std::to_string((t + i) % 5);
        switch (i % 3) {
          case 0:
            ASSERT_TRUE(store.Put(key, Blob("x", 50)).ok());
            break;
          case 1:
            (void)store.Get(key);  // NotFound is fine mid-churn.
            break;
          default:
            (void)store.Delete(key);
            break;
        }
      }
    });
  }
  for (auto& thread : threads) {
    thread.join();
  }
  // Whatever interleaving happened, the final footprint equals 50 bytes per
  // surviving key and the peak is at least the final value.
  const auto keys = store.ListKeys("hot/");
  const StoreAccounting acc = store.accounting();
  EXPECT_EQ(acc.logical_bytes_stored, static_cast<uint64_t>(keys.size()) * 50u);
  EXPECT_GE(acc.peak_logical_bytes, acc.logical_bytes_stored);
  EXPECT_LE(keys.size(), 5u);
}

TEST(InMemoryObjectStoreStressTest, SerialAccountingMatchesPreStripingSemantics) {
  // Serial-exactness contract: a single-threaded op sequence produces the
  // exact accounting the old single-mutex implementation produced.
  InMemoryObjectStore store;
  ASSERT_TRUE(store.Put("a", Blob("one", 1000)).ok());
  ASSERT_TRUE(store.Put("b", Blob("two", 500)).ok());
  ASSERT_TRUE(store.Put("a", Blob("three", 200)).ok());  // overwrite shrinks
  ASSERT_TRUE(store.Get("b").ok());
  ASSERT_TRUE(store.Delete("b").ok());
  const StoreAccounting acc = store.accounting();
  EXPECT_EQ(acc.logical_bytes_stored, 200u);
  EXPECT_EQ(acc.peak_logical_bytes, 1500u);
  EXPECT_EQ(acc.network_bytes_uploaded, 1700u);
  EXPECT_EQ(acc.network_bytes_downloaded, 500u);
  EXPECT_EQ(acc.put_count, 3u);
  EXPECT_EQ(acc.get_count, 1u);
  EXPECT_EQ(acc.delete_count, 1u);
  // Flat store: physical mirrors logical.
  EXPECT_EQ(acc.physical.flat_bytes_stored, acc.physical.bytes_stored);
}

}  // namespace
}  // namespace pronghorn
