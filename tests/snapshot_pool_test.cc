#include "src/core/snapshot_pool.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "src/common/bytes.h"
#include "src/common/rng.h"

namespace pronghorn {
namespace {

PoolEntry Entry(uint64_t id, uint64_t request_number) {
  PoolEntry entry;
  entry.metadata.id = SnapshotId{id};
  entry.metadata.function = "f";
  entry.metadata.request_number = request_number;
  entry.metadata.logical_size_bytes = 1000 * id;
  entry.object_key = "snapshots/f/" + std::to_string(id);
  return entry;
}

TEST(SnapshotPoolTest, AddAndFind) {
  SnapshotPool pool;
  ASSERT_TRUE(pool.Add(Entry(1, 10)).ok());
  ASSERT_TRUE(pool.Add(Entry(2, 20)).ok());
  EXPECT_EQ(pool.size(), 2u);
  EXPECT_FALSE(pool.empty());

  auto found = pool.Find(SnapshotId{2});
  ASSERT_TRUE(found.ok());
  EXPECT_EQ((*found)->metadata.request_number, 20u);
  EXPECT_EQ(pool.Find(SnapshotId{3}).status().code(), StatusCode::kNotFound);
  EXPECT_TRUE(pool.Contains(SnapshotId{1}));
  EXPECT_FALSE(pool.Contains(SnapshotId{9}));
}

TEST(SnapshotPoolTest, RejectsDuplicateIds) {
  SnapshotPool pool;
  ASSERT_TRUE(pool.Add(Entry(1, 10)).ok());
  EXPECT_EQ(pool.Add(Entry(1, 99)).code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(pool.size(), 1u);
}

TEST(SnapshotPoolTest, PruneKeepsTopByWeight) {
  SnapshotPool pool;
  for (uint64_t i = 1; i <= 10; ++i) {
    ASSERT_TRUE(pool.Add(Entry(i, i * 10)).ok());
  }
  // Weights increasing with id: ids 7-10 are the top 40%.
  std::vector<double> weights;
  for (uint64_t i = 1; i <= 10; ++i) {
    weights.push_back(static_cast<double>(i));
  }
  Rng rng(1);
  const auto removed = pool.Prune(weights, /*top_percent=*/40.0,
                                  /*random_percent=*/0.0, rng);
  EXPECT_EQ(pool.size(), 4u);
  EXPECT_EQ(removed.size(), 6u);
  for (uint64_t id : {7u, 8u, 9u, 10u}) {
    EXPECT_TRUE(pool.Contains(SnapshotId{id})) << id;
  }
}

TEST(SnapshotPoolTest, PruneKeepsRandomSubsetToo) {
  // With gamma > 0, pruning keeps top-p plus gamma% random survivors from
  // the remainder (hill-climbing escape hatch).
  Rng rng(7);
  size_t total_low_survivors = 0;
  const int trials = 200;
  for (int t = 0; t < trials; ++t) {
    SnapshotPool pool;
    std::vector<double> weights;
    for (uint64_t i = 1; i <= 10; ++i) {
      ASSERT_TRUE(pool.Add(Entry(i, i * 10)).ok());
      weights.push_back(static_cast<double>(i));
    }
    (void)pool.Prune(weights, 40.0, 10.0, rng);
    EXPECT_EQ(pool.size(), 5u);  // ceil(4) top + floor(1) random.
    for (uint64_t id = 1; id <= 6; ++id) {
      if (pool.Contains(SnapshotId{id})) {
        ++total_low_survivors;
      }
    }
  }
  // Exactly one low-weight survivor per trial, spread across ids.
  EXPECT_EQ(total_low_survivors, static_cast<size_t>(trials));
}

TEST(SnapshotPoolTest, RandomSurvivorIsUniformAcrossRemainder) {
  Rng rng(11);
  std::vector<int> survivor_counts(7, 0);  // Ids 1..6 tracked.
  for (int t = 0; t < 1200; ++t) {
    SnapshotPool pool;
    std::vector<double> weights;
    for (uint64_t i = 1; i <= 10; ++i) {
      ASSERT_TRUE(pool.Add(Entry(i, i * 10)).ok());
      weights.push_back(static_cast<double>(i));
    }
    (void)pool.Prune(weights, 40.0, 10.0, rng);
    for (uint64_t id = 1; id <= 6; ++id) {
      if (pool.Contains(SnapshotId{id})) {
        survivor_counts[id] += 1;
      }
    }
  }
  for (uint64_t id = 1; id <= 6; ++id) {
    EXPECT_NEAR(survivor_counts[id] / 1200.0, 1.0 / 6.0, 0.05) << "id " << id;
  }
}

TEST(SnapshotPoolTest, PruneNeverEmptiesPool) {
  SnapshotPool pool;
  ASSERT_TRUE(pool.Add(Entry(1, 10)).ok());
  std::vector<double> weights = {0.0};
  Rng rng(2);
  const auto removed = pool.Prune(weights, /*top_percent=*/0.0, 0.0, rng);
  EXPECT_EQ(pool.size(), 1u);
  EXPECT_TRUE(removed.empty());
}

TEST(SnapshotPoolTest, PruneWithMismatchedWeightsIsNoOp) {
  SnapshotPool pool;
  ASSERT_TRUE(pool.Add(Entry(1, 10)).ok());
  ASSERT_TRUE(pool.Add(Entry(2, 20)).ok());
  std::vector<double> weights = {1.0};  // Wrong size.
  Rng rng(3);
  EXPECT_TRUE(pool.Prune(weights, 40.0, 10.0, rng).empty());
  EXPECT_EQ(pool.size(), 2u);
}

TEST(SnapshotPoolTest, PruneTieBreaksByRecency) {
  SnapshotPool pool;
  for (uint64_t i = 1; i <= 4; ++i) {
    ASSERT_TRUE(pool.Add(Entry(i, i)).ok());
  }
  const std::vector<double> weights = {1.0, 1.0, 1.0, 1.0};
  Rng rng(4);
  (void)pool.Prune(weights, /*top_percent=*/50.0, 0.0, rng);
  // All weights equal: the two newest (highest id) snapshots survive.
  EXPECT_TRUE(pool.Contains(SnapshotId{3}));
  EXPECT_TRUE(pool.Contains(SnapshotId{4}));
}

TEST(SnapshotPoolTest, RemovedEntriesAreReturnedIntact) {
  SnapshotPool pool;
  for (uint64_t i = 1; i <= 5; ++i) {
    ASSERT_TRUE(pool.Add(Entry(i, i * 7)).ok());
  }
  const std::vector<double> weights = {5, 4, 3, 2, 1};
  Rng rng(5);
  const auto removed = pool.Prune(weights, 40.0, 0.0, rng);
  ASSERT_EQ(removed.size(), 3u);
  std::set<uint64_t> removed_ids;
  for (const PoolEntry& entry : removed) {
    removed_ids.insert(entry.metadata.id.value);
    EXPECT_FALSE(entry.object_key.empty());
  }
  EXPECT_EQ(removed_ids, (std::set<uint64_t>{3, 4, 5}));
}

TEST(SnapshotPoolTest, SerializationRoundTrip) {
  SnapshotPool pool;
  for (uint64_t i = 1; i <= 6; ++i) {
    PoolEntry entry = Entry(i, i * 11);
    entry.metadata.created_at = TimePoint::FromMicros(static_cast<int64_t>(i) * 1000);
    ASSERT_TRUE(pool.Add(std::move(entry)).ok());
  }
  ByteWriter writer;
  pool.Serialize(writer);
  ByteReader reader(writer.data());
  auto restored = SnapshotPool::Deserialize(reader);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_EQ(*restored, pool);
}

TEST(SnapshotPoolTest, DeserializeRejectsDuplicates) {
  SnapshotPool pool;
  ASSERT_TRUE(pool.Add(Entry(1, 10)).ok());
  ByteWriter writer;
  // Two copies of the same pool entry stream.
  writer.WriteVarint(2);
  for (int i = 0; i < 2; ++i) {
    const PoolEntry entry = Entry(1, 10);
    writer.WriteUint64(entry.metadata.id.value);
    writer.WriteString(entry.metadata.function);
    writer.WriteVarint(entry.metadata.request_number);
    writer.WriteVarint(entry.metadata.logical_size_bytes);
    writer.WriteInt64(0);
    writer.WriteString(entry.object_key);
  }
  ByteReader reader(writer.data());
  EXPECT_FALSE(SnapshotPool::Deserialize(reader).ok());
}

// The per-field encoder the memoized section replaced, kept verbatim.
std::vector<uint8_t> ReferenceSection(const SnapshotPool& pool) {
  ByteWriter writer;
  writer.WriteVarint(pool.entries().size());
  for (const PoolEntry& entry : pool.entries()) {
    writer.WriteUint64(entry.metadata.id.value);
    writer.WriteString(entry.metadata.function);
    writer.WriteVarint(entry.metadata.request_number);
    writer.WriteVarint(entry.metadata.logical_size_bytes);
    writer.WriteInt64(entry.metadata.created_at.ToMicros());
    writer.WriteString(entry.object_key);
  }
  return writer.TakeData();
}

std::vector<uint8_t> Serialized(const SnapshotPool& pool) {
  ByteWriter writer;
  pool.Serialize(writer);
  EXPECT_EQ(writer.size(), pool.SerializedSize());
  return writer.TakeData();
}

TEST(SnapshotPoolMemoTest, EveryMutatorDropsTheSection) {
  SnapshotPool pool;
  for (uint64_t id = 1; id <= 5; ++id) {
    ASSERT_TRUE(pool.Add(Entry(id, id * 3)).ok());
  }
  const auto expect_fresh = [&](const char* step) {
    EXPECT_FALSE(pool.section_memoized()) << step;
    EXPECT_EQ(Serialized(pool), ReferenceSection(pool)) << step;
    EXPECT_TRUE(pool.section_memoized()) << step;
    EXPECT_EQ(Serialized(pool), ReferenceSection(pool)) << step << " (memo hit)";
  };
  expect_fresh("initial");

  ASSERT_TRUE(pool.Add(Entry(6, 18)).ok());
  expect_fresh("after Add");

  // Failed mutations change nothing, so the memo may stay.
  EXPECT_FALSE(pool.Add(Entry(6, 18)).ok());
  EXPECT_FALSE(pool.Remove(SnapshotId{99}));
  EXPECT_EQ(Serialized(pool), ReferenceSection(pool));

  EXPECT_TRUE(pool.Remove(SnapshotId{2}));
  expect_fresh("after Remove");

  Rng rng(5);
  const std::vector<double> weights = {5, 4, 3, 2, 1};
  EXPECT_FALSE(pool.Prune(weights, 40.0, 0.0, rng).empty());
  expect_fresh("after Prune");

  ByteWriter writer;
  pool.Serialize(writer);
  ByteReader reader(writer.data());
  auto decoded = SnapshotPool::Deserialize(reader);
  ASSERT_TRUE(decoded.ok());
  EXPECT_FALSE(decoded->section_memoized());
  EXPECT_EQ(Serialized(*decoded), writer.data());
}

TEST(SnapshotPoolMemoTest, CopiesShareTheSectionUntilOneMutates) {
  SnapshotPool pool;
  ASSERT_TRUE(pool.Add(Entry(1, 4)).ok());
  ASSERT_TRUE(pool.Add(Entry(2, 8)).ok());
  const std::vector<uint8_t> before = Serialized(pool);

  SnapshotPool copy = pool;
  EXPECT_TRUE(copy.section_memoized());
  EXPECT_EQ(copy, pool);
  ASSERT_TRUE(copy.Add(Entry(3, 12)).ok());
  EXPECT_FALSE(copy.section_memoized());
  EXPECT_TRUE(pool.section_memoized());
  EXPECT_EQ(Serialized(pool), before);  // The original is untouched.
  EXPECT_EQ(Serialized(copy), ReferenceSection(copy));

  // The other way round: the original rebuilds while a copy still shares its
  // buffer, so the rebuild must not write into that buffer.
  const SnapshotPool sharer = pool;
  EXPECT_TRUE(pool.Remove(SnapshotId{1}));
  EXPECT_EQ(Serialized(pool), ReferenceSection(pool));
  EXPECT_EQ(Serialized(sharer), before);
}

TEST(SnapshotPoolMemoTest, EqualityIgnoresTheMemo) {
  SnapshotPool a;
  SnapshotPool b;
  ASSERT_TRUE(a.Add(Entry(1, 4)).ok());
  ASSERT_TRUE(b.Add(Entry(1, 4)).ok());
  (void)Serialized(a);
  EXPECT_TRUE(a.section_memoized());
  EXPECT_FALSE(b.section_memoized());
  EXPECT_EQ(a, b);
}

}  // namespace
}  // namespace pronghorn
