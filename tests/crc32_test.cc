#include "src/common/crc32.h"

#include <gtest/gtest.h>

#include <array>
#include <string_view>
#include <vector>

#include "src/common/rng.h"

namespace pronghorn {
namespace {

std::vector<uint8_t> Bytes(std::string_view text) {
  return std::vector<uint8_t>(text.begin(), text.end());
}

// The bytewise table-driven CRC-32 that Crc32Update replaced, kept verbatim
// as the reference for the slice-by-8 loop.
uint32_t BytewiseCrc32Update(uint32_t state, std::span<const uint8_t> data) {
  static const std::array<uint32_t, 256> table = [] {
    std::array<uint32_t, 256> t{};
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t value = i;
      for (int bit = 0; bit < 8; ++bit) {
        value = (value & 1) ? (0xedb88320u ^ (value >> 1)) : (value >> 1);
      }
      t[i] = value;
    }
    return t;
  }();
  for (uint8_t byte : data) {
    state = table[(state ^ byte) & 0xff] ^ (state >> 8);
  }
  return state;
}

TEST(Crc32Test, SliceBy8MatchesBytewiseReference) {
  // Random contents: lengths 0-63 exhaustively, then random lengths up to
  // 4096, at every start offset mod 8, so the 8-byte main loop, the tail loop
  // and unaligned loads are all exercised.
  Rng rng(2024);
  std::vector<uint8_t> buffer(4096 + 8);
  for (uint8_t& byte : buffer) {
    byte = static_cast<uint8_t>(rng.NextUint64());
  }
  for (int trial = 0; trial < 600; ++trial) {
    const size_t length = trial < 64 ? static_cast<size_t>(trial)
                                     : static_cast<size_t>(rng.UniformUint64(4097));
    const size_t offset = static_cast<size_t>(trial % 8);
    const std::span<const uint8_t> data(buffer.data() + offset, length);
    const uint32_t seed =
        trial % 3 == 0 ? kCrc32Init : static_cast<uint32_t>(rng.NextUint64());
    ASSERT_EQ(Crc32Update(seed, data), BytewiseCrc32Update(seed, data))
        << "length " << length << " offset " << offset;
  }
}

TEST(Crc32Test, KnownVectors) {
  // Reference values for the IEEE 802.3 polynomial.
  EXPECT_EQ(Crc32(Bytes("")), 0x00000000u);
  EXPECT_EQ(Crc32(Bytes("123456789")), 0xcbf43926u);
  EXPECT_EQ(Crc32(Bytes("The quick brown fox jumps over the lazy dog")),
            0x414fa339u);
}

TEST(Crc32Test, IncrementalMatchesOneShot) {
  const std::vector<uint8_t> data = Bytes("hello, checkpoint world");
  uint32_t state = kCrc32Init;
  state = Crc32Update(state, std::span<const uint8_t>(data.data(), 5));
  state = Crc32Update(state,
                      std::span<const uint8_t>(data.data() + 5, data.size() - 5));
  EXPECT_EQ(Crc32Finalize(state), Crc32(data));
}

TEST(Crc32Test, SingleBitFlipChangesChecksum) {
  std::vector<uint8_t> data = Bytes("snapshot payload");
  const uint32_t original = Crc32(data);
  for (size_t i = 0; i < data.size(); ++i) {
    data[i] ^= 0x01;
    EXPECT_NE(Crc32(data), original) << "flip at byte " << i;
    data[i] ^= 0x01;
  }
}

TEST(Crc32Test, EmptyChunksAreNoOps) {
  uint32_t state = kCrc32Init;
  state = Crc32Update(state, {});
  EXPECT_EQ(Crc32Finalize(state), Crc32({}));
}

TEST(Crc32Test, DifferentLengthsDiffer) {
  EXPECT_NE(Crc32(Bytes("aa")), Crc32(Bytes("aaa")));
}

TEST(Crc32Test, CombineMatchesConcatenation) {
  const std::vector<uint8_t> a = Bytes("streaming fleet ");
  const std::vector<uint8_t> b = Bytes("accumulator rows");
  std::vector<uint8_t> ab = a;
  ab.insert(ab.end(), b.begin(), b.end());
  EXPECT_EQ(Crc32Combine(Crc32(a), Crc32(b), b.size()), Crc32(ab));
}

TEST(Crc32Test, CombineIsAssociativeOverManyChunks) {
  // Stitching per-chunk CRCs left-to-right must equal the one-shot CRC of
  // the concatenation — the identity the streaming report digest relies on.
  const std::vector<std::vector<uint8_t>> chunks = {
      Bytes("alpha"), Bytes(""), Bytes("b"), Bytes("gamma-gamma-gamma"),
      std::vector<uint8_t>{0x00, 0xff, 0x7f, 0x20, 0x00}};
  std::vector<uint8_t> whole;
  uint32_t stitched = 0;  // CRC32 of the empty string.
  for (const auto& chunk : chunks) {
    whole.insert(whole.end(), chunk.begin(), chunk.end());
    stitched = Crc32Combine(stitched, Crc32(chunk), chunk.size());
  }
  EXPECT_EQ(stitched, Crc32(whole));
}

TEST(Crc32Test, CombineWithEmptySuffixIsIdentity) {
  const uint32_t crc = Crc32(Bytes("payload"));
  EXPECT_EQ(Crc32Combine(crc, Crc32(Bytes("")), 0), crc);
}

TEST(Crc32Test, CombineHandlesLongLengths) {
  // The GF(2) matrix walk must be correct across many length bits, not just
  // short strings: build a 1 MiB pattern and split it unevenly.
  std::vector<uint8_t> big(1 << 20);
  for (size_t i = 0; i < big.size(); ++i) {
    big[i] = static_cast<uint8_t>((i * 131) ^ (i >> 7));
  }
  const size_t split = 12345;
  const std::span<const uint8_t> head(big.data(), split);
  const std::span<const uint8_t> tail(big.data() + split, big.size() - split);
  EXPECT_EQ(Crc32Combine(Crc32(head), Crc32(tail), tail.size()), Crc32(big));
}

}  // namespace
}  // namespace pronghorn
