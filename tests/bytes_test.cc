#include "src/common/bytes.h"

#include <gtest/gtest.h>

#include <cstring>
#include <limits>
#include <vector>

#include "src/common/rng.h"

namespace pronghorn {
namespace {

TEST(ByteWriterTest, FixedWidthLittleEndian) {
  ByteWriter writer;
  writer.WriteUint32(0x04030201u);
  const auto& data = writer.data();
  ASSERT_EQ(data.size(), 4u);
  EXPECT_EQ(data[0], 0x01);
  EXPECT_EQ(data[1], 0x02);
  EXPECT_EQ(data[2], 0x03);
  EXPECT_EQ(data[3], 0x04);
}

TEST(ByteRoundTripTest, AllScalarTypes) {
  ByteWriter writer;
  writer.WriteUint8(0xab);
  writer.WriteUint32(0xdeadbeef);
  writer.WriteUint64(0x0123456789abcdefULL);
  writer.WriteInt64(-42);
  writer.WriteDouble(3.14159);
  writer.WriteVarint(300);

  ByteReader reader(writer.data());
  EXPECT_EQ(reader.ReadUint8().value(), 0xab);
  EXPECT_EQ(reader.ReadUint32().value(), 0xdeadbeefu);
  EXPECT_EQ(reader.ReadUint64().value(), 0x0123456789abcdefULL);
  EXPECT_EQ(reader.ReadInt64().value(), -42);
  EXPECT_DOUBLE_EQ(reader.ReadDouble().value(), 3.14159);
  EXPECT_EQ(reader.ReadVarint().value(), 300u);
  EXPECT_TRUE(reader.AtEnd());
}

TEST(ByteRoundTripTest, DoubleSpecialValues) {
  ByteWriter writer;
  writer.WriteDouble(0.0);
  writer.WriteDouble(-0.0);
  writer.WriteDouble(std::numeric_limits<double>::infinity());
  writer.WriteDouble(std::numeric_limits<double>::denorm_min());

  ByteReader reader(writer.data());
  EXPECT_EQ(reader.ReadDouble().value(), 0.0);
  EXPECT_EQ(reader.ReadDouble().value(), -0.0);
  EXPECT_EQ(reader.ReadDouble().value(), std::numeric_limits<double>::infinity());
  EXPECT_EQ(reader.ReadDouble().value(), std::numeric_limits<double>::denorm_min());
}

TEST(ByteRoundTripTest, StringsAndBytes) {
  ByteWriter writer;
  writer.WriteString("hello");
  writer.WriteString("");
  const std::vector<uint8_t> blob = {0x00, 0xff, 0x7f};
  writer.WriteBytes(blob);

  ByteReader reader(writer.data());
  EXPECT_EQ(reader.ReadString().value(), "hello");
  EXPECT_EQ(reader.ReadString().value(), "");
  EXPECT_EQ(reader.ReadBytes().value(), blob);
  EXPECT_TRUE(reader.AtEnd());
}

TEST(ByteRoundTripTest, BulkDoublesMatchPerElementWrites) {
  // WriteDoubles is byte-identical to a WriteDouble loop, and ReadDoubles
  // reads back bit patterns (signed zero, infinities, NaN payloads) exactly.
  const std::vector<double> values = {0.0,
                                      -0.0,
                                      1.5,
                                      -2.25e-300,
                                      std::numeric_limits<double>::infinity(),
                                      std::numeric_limits<double>::quiet_NaN(),
                                      std::numeric_limits<double>::denorm_min()};
  ByteWriter bulk;
  ByteWriter single;
  bulk.WriteUint8(7);  // Odd offset: the bulk append must not assume alignment.
  single.WriteUint8(7);
  bulk.WriteDoubles(values);
  for (const double v : values) {
    single.WriteDouble(v);
  }
  EXPECT_EQ(bulk.data(), single.data());

  ByteReader reader(bulk.data());
  ASSERT_TRUE(reader.ReadUint8().ok());
  std::vector<double> read(values.size());
  ASSERT_TRUE(reader.ReadDoubles(read).ok());
  EXPECT_TRUE(reader.AtEnd());
  EXPECT_EQ(std::memcmp(read.data(), values.data(), values.size() * sizeof(double)), 0);
}

TEST(ByteReaderTest, BulkDoublesTruncationConsumesNothing) {
  ByteWriter writer;
  writer.WriteDoubles(std::vector<double>{1.0, 2.0});
  ByteReader reader(std::span<const uint8_t>(writer.data().data(), 15));
  std::vector<double> out(2);
  EXPECT_EQ(reader.ReadDoubles(out).code(), StatusCode::kOutOfRange);
  EXPECT_EQ(reader.remaining(), 15u);
  EXPECT_TRUE(reader.ReadDoubles({}).ok());
}

TEST(VarintTest, SizeMatchesEncoding) {
  for (const uint64_t value : {0ULL, 1ULL, 127ULL, 128ULL, 16383ULL, 16384ULL,
                               (1ULL << 35) - 1, 1ULL << 35, ~0ULL}) {
    ByteWriter writer;
    writer.WriteVarint(value);
    EXPECT_EQ(VarintSize(value), writer.size()) << value;
  }
}

TEST(VarintTest, BoundaryValues) {
  const uint64_t cases[] = {0,     1,     127,        128,
                            16383, 16384, 0xffffffff, std::numeric_limits<uint64_t>::max()};
  for (uint64_t value : cases) {
    ByteWriter writer;
    writer.WriteVarint(value);
    ByteReader reader(writer.data());
    auto read = reader.ReadVarint();
    ASSERT_TRUE(read.ok()) << value;
    EXPECT_EQ(*read, value);
    EXPECT_TRUE(reader.AtEnd());
  }
}

TEST(VarintTest, SingleByteForSmallValues) {
  ByteWriter writer;
  writer.WriteVarint(127);
  EXPECT_EQ(writer.size(), 1u);
  writer.WriteVarint(128);
  EXPECT_EQ(writer.size(), 3u);  // 1 + 2.
}

TEST(VarintTest, OverlongRejected) {
  // Eleven continuation bytes overflow 64 bits.
  std::vector<uint8_t> bad(11, 0x80);
  ByteReader reader(bad);
  EXPECT_EQ(reader.ReadVarint().status().code(), StatusCode::kDataLoss);
}

TEST(VarintTest, OverflowHighBitsRejected) {
  // 10 bytes whose last byte pushes past 2^64.
  std::vector<uint8_t> bad = {0xff, 0xff, 0xff, 0xff, 0xff,
                              0xff, 0xff, 0xff, 0xff, 0x02};
  ByteReader reader(bad);
  EXPECT_EQ(reader.ReadVarint().status().code(), StatusCode::kDataLoss);
}

TEST(ByteReaderTest, TruncationErrorsNotUb) {
  ByteWriter writer;
  writer.WriteUint64(12345);
  // Progressive truncation of an 8-byte value.
  for (size_t keep = 0; keep < 8; ++keep) {
    ByteReader reader(std::span<const uint8_t>(writer.data().data(), keep));
    EXPECT_EQ(reader.ReadUint64().status().code(), StatusCode::kOutOfRange);
  }
}

TEST(ByteReaderTest, TruncatedStringLength) {
  ByteWriter writer;
  writer.WriteVarint(100);  // Claims 100 bytes follow; none do.
  ByteReader reader(writer.data());
  EXPECT_EQ(reader.ReadString().status().code(), StatusCode::kOutOfRange);
}

TEST(ByteReaderTest, EmptyBuffer) {
  ByteReader reader(std::span<const uint8_t>{});
  EXPECT_TRUE(reader.AtEnd());
  EXPECT_EQ(reader.remaining(), 0u);
  EXPECT_FALSE(reader.ReadUint8().ok());
}

TEST(ByteReaderTest, RemainingTracksProgress) {
  ByteWriter writer;
  writer.WriteUint32(1);
  writer.WriteUint32(2);
  ByteReader reader(writer.data());
  EXPECT_EQ(reader.remaining(), 8u);
  ASSERT_TRUE(reader.ReadUint32().ok());
  EXPECT_EQ(reader.remaining(), 4u);
  ASSERT_TRUE(reader.ReadUint32().ok());
  EXPECT_TRUE(reader.AtEnd());
}

// Property: random sequences of writes always read back identically.
class BytesFuzzRoundTrip : public ::testing::TestWithParam<uint64_t> {};

TEST_P(BytesFuzzRoundTrip, RandomSequences) {
  Rng rng(GetParam());
  ByteWriter writer;
  struct Op {
    int kind;
    uint64_t u;
    double d;
    std::string s;
  };
  std::vector<Op> ops;
  const int op_count = 50;
  for (int i = 0; i < op_count; ++i) {
    Op op;
    op.kind = static_cast<int>(rng.UniformUint64(5));
    op.u = rng.NextUint64();
    op.d = rng.Gaussian(0, 1e6);
    const size_t len = rng.UniformUint64(40);
    for (size_t j = 0; j < len; ++j) {
      op.s.push_back(static_cast<char>('a' + rng.UniformUint64(26)));
    }
    switch (op.kind) {
      case 0:
        writer.WriteUint32(static_cast<uint32_t>(op.u));
        break;
      case 1:
        writer.WriteUint64(op.u);
        break;
      case 2:
        writer.WriteDouble(op.d);
        break;
      case 3:
        writer.WriteVarint(op.u);
        break;
      case 4:
        writer.WriteString(op.s);
        break;
    }
    ops.push_back(std::move(op));
  }

  ByteReader reader(writer.data());
  for (const Op& op : ops) {
    switch (op.kind) {
      case 0:
        EXPECT_EQ(reader.ReadUint32().value(), static_cast<uint32_t>(op.u));
        break;
      case 1:
        EXPECT_EQ(reader.ReadUint64().value(), op.u);
        break;
      case 2:
        EXPECT_DOUBLE_EQ(reader.ReadDouble().value(), op.d);
        break;
      case 3:
        EXPECT_EQ(reader.ReadVarint().value(), op.u);
        break;
      case 4:
        EXPECT_EQ(reader.ReadString().value(), op.s);
        break;
    }
  }
  EXPECT_TRUE(reader.AtEnd());
}

INSTANTIATE_TEST_SUITE_P(Seeds, BytesFuzzRoundTrip,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u));

}  // namespace
}  // namespace pronghorn
