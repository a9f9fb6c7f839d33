#include "src/checkpoint/snapshot.h"

#include <gtest/gtest.h>

#include "src/common/crc32.h"
#include "src/common/rng.h"

namespace pronghorn {
namespace {

SnapshotImage MakeImage() {
  SnapshotMetadata metadata;
  metadata.id = SnapshotId{42};
  metadata.function = "DynamicHTML";
  metadata.request_number = 87;
  metadata.logical_size_bytes = 54 * 1024 * 1024;
  metadata.created_at = TimePoint::FromMicros(123456789);
  std::vector<uint8_t> payload = {1, 2, 3, 4, 5, 0xff, 0x00, 0x7f};
  return SnapshotImage(std::move(metadata), std::move(payload));
}

TEST(SnapshotImageTest, EncodeDecodeRoundTrip) {
  const SnapshotImage image = MakeImage();
  const std::vector<uint8_t> encoded = image.Encode();
  auto decoded = SnapshotImage::Decode(encoded);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->metadata(), image.metadata());
  EXPECT_EQ(decoded->payload(), image.payload());
}

TEST(SnapshotImageTest, DecodeAcceptsVersion1Frames) {
  // kVersion 2 widened embedded counters to 64-bit without changing the wire
  // layout; v1 images (pre-widening) must keep decoding. Rewrite the version
  // byte of a fresh frame to 1 and fix up the CRC trailer.
  std::vector<uint8_t> frame = MakeImage().Encode();
  ASSERT_GT(frame.size(), 9u);
  frame[4] = 1;  // Version byte sits right after the 4-byte magic.
  const std::span<const uint8_t> body(frame.data(), frame.size() - 4);
  const uint32_t crc = Crc32(body);
  frame[frame.size() - 4] = static_cast<uint8_t>(crc & 0xff);
  frame[frame.size() - 3] = static_cast<uint8_t>((crc >> 8) & 0xff);
  frame[frame.size() - 2] = static_cast<uint8_t>((crc >> 16) & 0xff);
  frame[frame.size() - 1] = static_cast<uint8_t>((crc >> 24) & 0xff);
  auto decoded = SnapshotImage::Decode(frame);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->metadata(), MakeImage().metadata());
}

TEST(SnapshotImageTest, DecodeRejectsFutureVersions) {
  std::vector<uint8_t> frame = MakeImage().Encode();
  frame[4] = 99;
  const std::span<const uint8_t> body(frame.data(), frame.size() - 4);
  const uint32_t crc = Crc32(body);
  frame[frame.size() - 4] = static_cast<uint8_t>(crc & 0xff);
  frame[frame.size() - 3] = static_cast<uint8_t>((crc >> 8) & 0xff);
  frame[frame.size() - 2] = static_cast<uint8_t>((crc >> 16) & 0xff);
  frame[frame.size() - 1] = static_cast<uint8_t>((crc >> 24) & 0xff);
  EXPECT_FALSE(SnapshotImage::Decode(frame).ok());
}

TEST(SnapshotImageTest, EmptyPayloadRoundTrip) {
  SnapshotMetadata metadata;
  metadata.id = SnapshotId{1};
  metadata.function = "f";
  const SnapshotImage image(metadata, {});
  auto decoded = SnapshotImage::Decode(image.Encode());
  ASSERT_TRUE(decoded.ok());
  EXPECT_TRUE(decoded->payload().empty());
}

TEST(SnapshotImageTest, EveryByteFlipIsDetected) {
  std::vector<uint8_t> encoded = MakeImage().Encode();
  for (size_t i = 0; i < encoded.size(); ++i) {
    encoded[i] ^= 0x5a;
    EXPECT_FALSE(SnapshotImage::Decode(encoded).ok()) << "flip at byte " << i;
    encoded[i] ^= 0x5a;
  }
  // Sanity: untouched image still decodes.
  EXPECT_TRUE(SnapshotImage::Decode(encoded).ok());
}

TEST(SnapshotImageTest, TruncationIsDetected) {
  const std::vector<uint8_t> encoded = MakeImage().Encode();
  for (size_t keep : {size_t{0}, size_t{3}, size_t{10}, encoded.size() - 1}) {
    auto decoded =
        SnapshotImage::Decode(std::span<const uint8_t>(encoded.data(), keep));
    EXPECT_EQ(decoded.status().code(), StatusCode::kDataLoss) << "prefix " << keep;
  }
}

TEST(SnapshotImageTest, TrailingGarbageIsDetected) {
  std::vector<uint8_t> encoded = MakeImage().Encode();
  encoded.push_back(0x00);
  EXPECT_FALSE(SnapshotImage::Decode(encoded).ok());
}

// Property: arbitrary byte soup never crashes the decoder and never decodes
// successfully (the CRC would have to collide on garbage).
class SnapshotDecodeFuzz : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SnapshotDecodeFuzz, RandomBytesRejectedCleanly) {
  Rng rng(GetParam());
  for (int trial = 0; trial < 200; ++trial) {
    const size_t size = rng.UniformUint64(300);
    std::vector<uint8_t> bytes(size);
    for (uint8_t& b : bytes) {
      b = static_cast<uint8_t>(rng.UniformUint64(256));
    }
    auto decoded = SnapshotImage::Decode(bytes);
    EXPECT_FALSE(decoded.ok());
    EXPECT_EQ(decoded.status().code(), StatusCode::kDataLoss);
  }
}

TEST_P(SnapshotDecodeFuzz, MutatedValidImagesRejectedOrEquivalent) {
  Rng rng(GetParam() + 1000);
  const std::vector<uint8_t> valid = MakeImage().Encode();
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<uint8_t> mutated = valid;
    const size_t flips = 1 + rng.UniformUint64(4);
    for (size_t f = 0; f < flips; ++f) {
      const size_t at = rng.UniformUint64(mutated.size());
      mutated[at] ^= static_cast<uint8_t>(1 + rng.UniformUint64(255));
    }
    auto decoded = SnapshotImage::Decode(mutated);
    if (decoded.ok()) {
      // Only possible if the flips cancelled out back to the original.
      EXPECT_EQ(mutated, valid);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SnapshotDecodeFuzz, ::testing::Values(1u, 2u, 3u, 4u));

TEST(SnapshotIdTest, Ordering) {
  EXPECT_LT(SnapshotId{1}, SnapshotId{2});
  EXPECT_EQ(SnapshotId{3}, SnapshotId{3});
}

}  // namespace
}  // namespace pronghorn
