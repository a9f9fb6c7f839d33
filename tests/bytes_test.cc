#include "src/common/bytes.h"

#include <gtest/gtest.h>

#include <cstring>
#include <limits>
#include <string>
#include <type_traits>
#include <vector>

#include "src/common/rng.h"

namespace pronghorn {
namespace {

// The reader and writer as they were before the fast paths moved inline,
// kept verbatim (per-byte loops, a Require check per read, per-byte
// push_back varints) as the reference the inline code must reproduce.
class ReferenceReader {
 public:
  explicit ReferenceReader(std::span<const uint8_t> data) : data_(data) {}

  Result<uint8_t> ReadUint8() {
    PRONGHORN_RETURN_IF_ERROR(Require(1));
    return data_[offset_++];
  }

  Result<uint32_t> ReadUint32() {
    PRONGHORN_RETURN_IF_ERROR(Require(4));
    uint32_t value = 0;
    for (int shift = 0; shift < 32; shift += 8) {
      value |= static_cast<uint32_t>(data_[offset_++]) << shift;
    }
    return value;
  }

  Result<uint64_t> ReadUint64() {
    PRONGHORN_RETURN_IF_ERROR(Require(8));
    uint64_t value = 0;
    for (int shift = 0; shift < 64; shift += 8) {
      value |= static_cast<uint64_t>(data_[offset_++]) << shift;
    }
    return value;
  }

  Result<int64_t> ReadInt64() {
    PRONGHORN_ASSIGN_OR_RETURN(uint64_t bits, ReadUint64());
    return static_cast<int64_t>(bits);
  }

  Result<double> ReadDouble() {
    PRONGHORN_ASSIGN_OR_RETURN(uint64_t bits, ReadUint64());
    double value = 0.0;
    std::memcpy(&value, &bits, sizeof(value));
    return value;
  }

  Result<uint64_t> ReadVarint() {
    uint64_t value = 0;
    int shift = 0;
    while (true) {
      PRONGHORN_RETURN_IF_ERROR(Require(1));
      const uint8_t byte = data_[offset_++];
      if (shift >= 63 && byte > 1) {
        return DataLossError("varint overflows 64 bits");
      }
      value |= static_cast<uint64_t>(byte & 0x7f) << shift;
      if ((byte & 0x80) == 0) {
        return value;
      }
      shift += 7;
      if (shift > 63) {
        return DataLossError("varint too long");
      }
    }
  }

  Result<std::string> ReadString() {
    PRONGHORN_ASSIGN_OR_RETURN(uint64_t length, ReadVarint());
    PRONGHORN_RETURN_IF_ERROR(Require(length));
    std::string out(reinterpret_cast<const char*>(data_.data()) + offset_, length);
    offset_ += length;
    return out;
  }

  size_t remaining() const { return data_.size() - offset_; }

 private:
  Status Require(size_t count) const {
    if (data_.size() - offset_ < count) {
      return OutOfRangeError("read past end of buffer");
    }
    return OkStatus();
  }

  std::span<const uint8_t> data_;
  size_t offset_ = 0;
};

class ReferenceWriter {
 public:
  void WriteUint32(uint32_t value) {
    const size_t offset = data_.size();
    data_.resize(offset + 4);
    for (size_t i = 0; i < 4; ++i) {
      data_[offset + i] = static_cast<uint8_t>(value >> (8 * i));
    }
  }
  void WriteUint64(uint64_t value) {
    const size_t offset = data_.size();
    data_.resize(offset + 8);
    for (size_t i = 0; i < 8; ++i) {
      data_[offset + i] = static_cast<uint8_t>(value >> (8 * i));
    }
  }
  void WriteDouble(double value) {
    uint64_t bits = 0;
    std::memcpy(&bits, &value, sizeof(bits));
    WriteUint64(bits);
  }
  void WriteVarint(uint64_t value) {
    while (value >= 0x80) {
      data_.push_back(static_cast<uint8_t>((value & 0x7f) | 0x80));
      value >>= 7;
    }
    data_.push_back(static_cast<uint8_t>(value));
  }

  const std::vector<uint8_t>& data() const { return data_; }

 private:
  std::vector<uint8_t> data_;
};

enum class ReadKind { kUint8, kUint32, kUint64, kInt64, kDouble, kVarint, kString };
constexpr ReadKind kAllReadKinds[] = {ReadKind::kUint8,  ReadKind::kUint32,
                                      ReadKind::kUint64, ReadKind::kInt64,
                                      ReadKind::kDouble, ReadKind::kVarint,
                                      ReadKind::kString};

// One read's outcome: the value's bytes (or the error code) plus what the
// reader had left afterwards.
struct ReadOutcome {
  StatusCode code = StatusCode::kOk;
  std::string value;
  size_t remaining = 0;
};

template <typename Reader, typename T>
void Record(Reader& reader, const Result<T>& read, ReadOutcome& out) {
  out.code = read.ok() ? StatusCode::kOk : read.status().code();
  if constexpr (std::is_same_v<T, std::string>) {
    if (read.ok()) {
      out.value = *read;
    }
  } else {
    if (read.ok()) {
      out.value.assign(reinterpret_cast<const char*>(&*read), sizeof(T));
    }
  }
  out.remaining = reader.remaining();
}

template <typename Reader>
ReadOutcome ReadOnce(std::span<const uint8_t> bytes, ReadKind kind) {
  Reader reader(bytes);
  ReadOutcome out;
  switch (kind) {
    case ReadKind::kUint8:
      Record(reader, reader.ReadUint8(), out);
      break;
    case ReadKind::kUint32:
      Record(reader, reader.ReadUint32(), out);
      break;
    case ReadKind::kUint64:
      Record(reader, reader.ReadUint64(), out);
      break;
    case ReadKind::kInt64:
      Record(reader, reader.ReadInt64(), out);
      break;
    case ReadKind::kDouble:
      Record(reader, reader.ReadDouble(), out);
      break;
    case ReadKind::kVarint:
      Record(reader, reader.ReadVarint(), out);
      break;
    case ReadKind::kString:
      Record(reader, reader.ReadString(), out);
      break;
  }
  return out;
}

// The inline reader agrees with the reference on every value and error code,
// and a failed read leaves it where it was (the reference may have consumed
// bytes before failing).
void ExpectMatchesReference(std::span<const uint8_t> bytes, ReadKind kind,
                            const std::string& label) {
  const ReadOutcome actual = ReadOnce<ByteReader>(bytes, kind);
  const ReadOutcome expected = ReadOnce<ReferenceReader>(bytes, kind);
  EXPECT_EQ(actual.code, expected.code) << label;
  EXPECT_EQ(actual.value, expected.value) << label;
  if (expected.code == StatusCode::kOk) {
    EXPECT_EQ(actual.remaining, expected.remaining) << label;
  } else {
    EXPECT_EQ(actual.remaining, bytes.size()) << label << ": failed read consumed bytes";
  }
}

// Every read kind over every [begin, end) window of `bytes`: each window is
// a truncation of the encoding that starts at `begin`.
void ExpectEveryWindowMatchesReference(const std::vector<uint8_t>& bytes) {
  for (size_t begin = 0; begin <= bytes.size(); ++begin) {
    for (size_t end = begin; end <= bytes.size(); ++end) {
      const std::span<const uint8_t> window(bytes.data() + begin, end - begin);
      for (const ReadKind kind : kAllReadKinds) {
        ExpectMatchesReference(window, kind,
                               "window [" + std::to_string(begin) + ", " +
                                   std::to_string(end) + ") kind " +
                                   std::to_string(static_cast<int>(kind)));
      }
    }
  }
}

TEST(ByteCodecReferenceTest, VarintOfEveryLengthMatchesReference) {
  for (size_t length = 1; length <= 10; ++length) {
    // The smallest and largest values that encode in exactly `length` bytes.
    const uint64_t low = length == 1 ? 0 : 1ULL << (7 * (length - 1));
    const uint64_t high =
        length == 10 ? std::numeric_limits<uint64_t>::max() : (1ULL << (7 * length)) - 1;
    for (const uint64_t value : {low, high, low + (high - low) / 3}) {
      ByteWriter writer;
      writer.WriteVarint(value);
      ASSERT_EQ(writer.size(), length) << value;
      ASSERT_EQ(VarintSize(value), length) << value;
      for (size_t keep = 0; keep <= length; ++keep) {
        const std::span<const uint8_t> prefix(writer.data().data(), keep);
        ExpectMatchesReference(prefix, ReadKind::kVarint,
                               "value " + std::to_string(value) + " keep " +
                                   std::to_string(keep));
        ByteReader reader(prefix);
        const auto read = reader.ReadVarint();
        if (keep < length) {
          EXPECT_EQ(read.status().code(), StatusCode::kOutOfRange);
          EXPECT_EQ(reader.remaining(), keep);
        } else {
          ASSERT_TRUE(read.ok());
          EXPECT_EQ(*read, value);
          EXPECT_TRUE(reader.AtEnd());
        }
      }
    }
  }
}

TEST(ByteCodecReferenceTest, VarintOverflowsMatchReference) {
  // The 10th byte may carry only bit 63: 0x01 is the maximum, anything else
  // (a higher bit or a continuation) overflows.
  for (int last = 0; last <= 0xff; ++last) {
    std::vector<uint8_t> bytes(9, 0xff);
    bytes.push_back(static_cast<uint8_t>(last));
    bytes.push_back(0x00);  // An 11th byte for the continuation cases.
    ExpectMatchesReference(bytes, ReadKind::kVarint, "10th byte " + std::to_string(last));
    ByteReader reader(bytes);
    const auto read = reader.ReadVarint();
    if (last <= 1) {
      ASSERT_TRUE(read.ok()) << last;
      EXPECT_EQ(*read, last == 0 ? (1ULL << 63) - 1 : std::numeric_limits<uint64_t>::max());
    } else {
      EXPECT_EQ(read.status().code(), StatusCode::kDataLoss) << last;
      EXPECT_EQ(reader.remaining(), bytes.size()) << last;
    }
  }
  // An 11-byte varint: ten continuation bytes and a terminator.
  std::vector<uint8_t> eleven(10, 0x80);
  eleven.push_back(0x00);
  ExpectMatchesReference(eleven, ReadKind::kVarint, "11-byte varint");
  ByteReader reader(eleven);
  EXPECT_EQ(reader.ReadVarint().status().code(), StatusCode::kDataLoss);
  EXPECT_EQ(reader.remaining(), eleven.size());
}

TEST(ByteCodecReferenceTest, EveryTruncationMatchesReference) {
  // A mixed encoding: every window of it starts some read at an arbitrary
  // offset and ends it at an arbitrary truncation.
  ByteWriter writer;
  writer.WriteUint8(0x7f);
  writer.WriteVarint(1ULL << 40);
  writer.WriteUint32(0x80818283u);
  writer.WriteString("abc");
  writer.WriteDouble(-2.5);
  writer.WriteVarint(5);
  writer.WriteUint64(0xfedcba9876543210ULL);
  ExpectEveryWindowMatchesReference(writer.data());
}

TEST(ByteCodecReferenceTest, RandomBytesMatchReference) {
  Rng rng(2024);
  for (int round = 0; round < 16; ++round) {
    std::vector<uint8_t> bytes(24);
    for (uint8_t& byte : bytes) {
      // Bias toward continuation bytes so long varints are common.
      byte = static_cast<uint8_t>(rng.UniformUint64(4) == 0 ? rng.UniformUint64(0x80)
                                                             : 0x80 | rng.UniformUint64(0x80));
    }
    ExpectEveryWindowMatchesReference(bytes);
  }
}

TEST(ByteCodecReferenceTest, WriterMatchesReferenceBytes) {
  Rng rng(7);
  ByteWriter writer;
  ReferenceWriter reference;
  for (int i = 0; i < 2000; ++i) {
    // Values of every magnitude, so every varint length occurs.
    const uint64_t value = rng.NextUint64() >> rng.UniformUint64(64);
    switch (rng.UniformUint64(4)) {
      case 0:
        writer.WriteUint32(static_cast<uint32_t>(value));
        reference.WriteUint32(static_cast<uint32_t>(value));
        break;
      case 1:
        writer.WriteUint64(value);
        reference.WriteUint64(value);
        break;
      case 2: {
        const double real = rng.Gaussian(0, 1e6);
        writer.WriteDouble(real);
        reference.WriteDouble(real);
        break;
      }
      case 3:
        writer.WriteVarint(value);
        reference.WriteVarint(value);
        break;
    }
  }
  EXPECT_EQ(writer.data(), reference.data());
}

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
