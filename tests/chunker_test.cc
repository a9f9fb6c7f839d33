#include "src/store/chunker.h"

#include <algorithm>
#include <array>
#include <cstdint>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/rng.h"

namespace pronghorn {
namespace {

std::vector<uint8_t> RandomBytes(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<uint8_t> bytes(n);
  for (uint8_t& b : bytes) {
    b = static_cast<uint8_t>(rng.NextUint64());
  }
  return bytes;
}

// Concatenating the spans in order must reproduce the input byte-for-byte,
// and every span's key must be the content hash of its slice.
void ExpectTilesExactly(const std::vector<uint8_t>& input,
                        const std::vector<ChunkSpan>& spans) {
  uint64_t offset = 0;
  for (const ChunkSpan& span : spans) {
    ASSERT_EQ(span.offset, offset);
    ASSERT_LE(span.offset + span.size, input.size());
    const std::span<const uint8_t> slice(input.data() + span.offset, span.size);
    EXPECT_EQ(span.key, HashChunk(slice));
    offset += span.size;
  }
  EXPECT_EQ(offset, input.size());
}

TEST(ChunkerTest, FixedTilesInputExactly) {
  const auto input = RandomBytes(100000, 1);
  ChunkerOptions options;
  options.chunk_size = 4096;
  const auto spans = SplitChunks(input, options);
  ExpectTilesExactly(input, spans);
  // Every chunk but the last is exactly chunk_size.
  for (size_t i = 0; i + 1 < spans.size(); ++i) {
    EXPECT_EQ(spans[i].size, options.chunk_size);
  }
  EXPECT_EQ(spans.size(), (input.size() + 4095) / 4096);
}

TEST(ChunkerTest, EmptyInputYieldsNoChunks) {
  ChunkerOptions options;
  EXPECT_TRUE(SplitChunks({}, options).empty());
  options.cdc = true;
  EXPECT_TRUE(SplitChunks({}, options).empty());
}

TEST(ChunkerTest, HashIsPureAndCollisionResistantInPractice) {
  const auto a = RandomBytes(4096, 7);
  auto b = a;
  EXPECT_EQ(HashChunk(a), HashChunk(b));
  b[1000] ^= 1;
  EXPECT_NE(HashChunk(a), HashChunk(b));
  // Distinct random pages never collide at this scale.
  std::set<ChunkKey> keys;
  for (uint64_t seed = 0; seed < 500; ++seed) {
    keys.insert(HashChunk(RandomBytes(4096, seed)));
  }
  EXPECT_EQ(keys.size(), 500u);
}

TEST(ChunkerTest, CdcTilesInputAndRespectsBounds) {
  const auto input = RandomBytes(300000, 3);
  ChunkerOptions options;
  options.cdc = true;
  options.chunk_size = 4096;
  options.min_size = 1024;
  options.max_size = 16384;
  const auto spans = SplitChunks(input, options);
  ExpectTilesExactly(input, spans);
  for (size_t i = 0; i + 1 < spans.size(); ++i) {
    EXPECT_GE(spans[i].size, options.min_size);
    EXPECT_LE(spans[i].size, options.max_size);
  }
  // The average should land in the window the geometry allows.
  const double avg =
      static_cast<double>(input.size()) / static_cast<double>(spans.size());
  EXPECT_GT(avg, 1024.0);
  EXPECT_LT(avg, 16384.0);
}

TEST(ChunkerTest, CdcBoundariesSurviveInsertion) {
  const auto base = RandomBytes(200000, 5);
  // Insert 100 bytes at the front: every fixed-size boundary after the
  // insertion shifts, but content-defined cuts resynchronize.
  std::vector<uint8_t> shifted = RandomBytes(100, 6);
  shifted.insert(shifted.end(), base.begin(), base.end());

  ChunkerOptions options;
  options.cdc = true;
  const auto base_spans = SplitChunks(base, options);
  const auto shifted_spans = SplitChunks(shifted, options);

  std::set<ChunkKey> base_keys;
  for (const ChunkSpan& span : base_spans) {
    base_keys.insert(span.key);
  }
  size_t shared = 0;
  for (const ChunkSpan& span : shifted_spans) {
    shared += base_keys.count(span.key);
  }
  // Most of the shifted file's chunks are bit-identical to base chunks.
  EXPECT_GT(shared * 2, shifted_spans.size());

  // Fixed-size chunking shares (essentially) nothing after the shift —
  // the contrast that motivates CDC delta encoding.
  options.cdc = false;
  const auto fixed_base = SplitChunks(base, options);
  const auto fixed_shifted = SplitChunks(shifted, options);
  std::set<ChunkKey> fixed_keys;
  for (const ChunkSpan& span : fixed_base) {
    fixed_keys.insert(span.key);
  }
  size_t fixed_shared = 0;
  for (const ChunkSpan& span : fixed_shifted) {
    fixed_shared += fixed_keys.count(span.key);
  }
  EXPECT_LT(fixed_shared * 10, fixed_shifted.size());
}

// The byte-at-a-time CDC scan SplitChunks started from before it learned to
// skip the bytes that cannot affect a cut: the Gear hash restarted at every
// chunk start and tested at every position from min_size on. Kept as the
// reference the skipping scan must match boundary for boundary.
struct RefSpan {
  uint64_t offset = 0;
  uint64_t size = 0;
};

std::vector<RefSpan> ReferenceCdcSplit(const std::vector<uint8_t>& bytes,
                                       const ChunkerOptions& options) {
  std::array<uint64_t, 256> gear{};
  uint64_t state = 0x9747b28c9747b28cULL;
  for (uint64_t& entry : gear) {  // SplitMix64, as the chunker seeds it.
    state += 0x9e3779b97f4a7c15ULL;
    uint64_t z = state;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    entry = z ^ (z >> 31);
  }
  const uint32_t target = std::max<uint32_t>(1, options.chunk_size);
  const uint32_t min_size = std::max<uint32_t>(1, std::min(options.min_size, target));
  const uint32_t max_size = std::max(options.max_size, target);
  uint64_t mask = 1;
  while ((mask << 1) < target) {
    mask <<= 1;
  }
  mask -= 1;

  std::vector<RefSpan> spans;
  uint64_t start = 0;
  uint64_t hash = 0;
  uint32_t length = 0;
  for (uint64_t i = 0; i < bytes.size(); ++i) {
    hash = (hash << 1) + gear[bytes[i]];
    length += 1;
    if ((length >= min_size && (hash & mask) == mask) || length >= max_size) {
      spans.push_back(RefSpan{start, length});
      start = i + 1;
      hash = 0;
      length = 0;
    }
  }
  if (length > 0) {
    spans.push_back(RefSpan{start, length});
  }
  return spans;
}

TEST(ChunkerTest, CdcMatchesByteAtATimeReference) {
  struct Geometry {
    uint32_t chunk_size;
    uint32_t min_size;
    uint32_t max_size;
  };
  const Geometry geometries[] = {
      {8, 1, 8},          {64, 16, 256},     {128, 64, 512},   {256, 65, 1024},
      {512, 66, 2048},    {512, 128, 2048},  {1024, 1024, 1024},
      {4096, 1024, 16384},  // The default geometry.
  };
  Rng rng(2024);
  size_t inputs = 0;
  for (const Geometry& g : geometries) {
    ChunkerOptions options;
    options.cdc = true;
    options.chunk_size = g.chunk_size;
    options.min_size = g.min_size;
    options.max_size = g.max_size;
    std::vector<uint64_t> lengths = {0, 1, g.min_size, g.max_size,
                                     3ull * g.max_size + 7};
    if (g.min_size >= 65) {
      lengths.push_back(g.min_size - 65);
      lengths.push_back(g.min_size - 64);
    }
    for (int i = 0; i < 40; ++i) {
      lengths.push_back(rng.UniformUint64(8ull * g.max_size));
    }
    for (const uint64_t length : lengths) {
      // Random bytes, plus a low-entropy run that sticks at one hash value.
      std::vector<uint8_t> random = RandomBytes(length, rng.NextUint64());
      std::vector<uint8_t> flat(length, 0x5a);
      for (const std::vector<uint8_t>* input : {&random, &flat}) {
        const auto expected = ReferenceCdcSplit(*input, options);
        const auto actual = SplitChunks(*input, options);
        ASSERT_EQ(actual.size(), expected.size())
            << "min " << g.min_size << " length " << length;
        for (size_t c = 0; c < actual.size(); ++c) {
          ASSERT_EQ(actual[c].offset, expected[c].offset) << "chunk " << c;
          ASSERT_EQ(actual[c].size, expected[c].size) << "chunk " << c;
        }
        ExpectTilesExactly(*input, actual);
        inputs += 1;
      }
    }
  }
  EXPECT_GT(inputs, 700u);
}

// The word-wise hash must still see every byte, including the sub-word tail,
// and the length.
TEST(ChunkerTest, HashSeesEveryByteAndTheLength) {
  const auto base = RandomBytes(37, 11);  // Four words and a five-byte tail.
  std::set<ChunkKey> keys = {HashChunk(base)};
  for (size_t i = 0; i < base.size(); ++i) {
    for (int bit = 0; bit < 8; ++bit) {
      auto flipped = base;
      flipped[i] ^= static_cast<uint8_t>(1u << bit);
      keys.insert(HashChunk(flipped));
    }
  }
  EXPECT_EQ(keys.size(), 1 + base.size() * 8);
  // Zero padding changes the length, so it changes the key.
  std::vector<uint8_t> zeros;
  std::set<ChunkKey> padded;
  for (int n = 0; n <= 17; ++n) {
    padded.insert(HashChunk(zeros));
    zeros.push_back(0);
  }
  EXPECT_EQ(padded.size(), 18u);
}

TEST(ChunkerTest, DeterministicAcrossCalls) {
  const auto input = RandomBytes(50000, 9);
  ChunkerOptions options;
  options.cdc = true;
  const auto a = SplitChunks(input, options);
  const auto b = SplitChunks(input, options);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].key, b[i].key);
    EXPECT_EQ(a[i].offset, b[i].offset);
    EXPECT_EQ(a[i].size, b[i].size);
  }
}

}  // namespace
}  // namespace pronghorn
