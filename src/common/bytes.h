// Binary serialization primitives.
//
// ByteWriter/ByteReader implement a little-endian wire format used by the
// snapshot codec, the policy-state codec, and the stores. Reads are fully
// validated: a truncated or corrupt buffer yields kDataLoss/kOutOfRange
// rather than undefined behavior.

#ifndef PRONGHORN_SRC_COMMON_BYTES_H_
#define PRONGHORN_SRC_COMMON_BYTES_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/result.h"

namespace pronghorn {

// Bytes ByteWriter::WriteVarint emits for `value` (1-10).
constexpr size_t VarintSize(uint64_t value) {
  size_t size = 1;
  while (value >= 0x80) {
    value >>= 7;
    ++size;
  }
  return size;
}

// Appends fixed-width little-endian scalars, varints, and length-prefixed
// blobs to an owned byte vector.
class ByteWriter {
 public:
  ByteWriter() = default;
  // Appends to `buffer`, reusing its capacity (clear it first to recycle a
  // spent encoding's storage).
  explicit ByteWriter(std::vector<uint8_t> buffer) : data_(std::move(buffer)) {}

  void WriteUint8(uint8_t value);
  void WriteUint32(uint32_t value);
  void WriteUint64(uint64_t value);
  void WriteInt64(int64_t value);
  // IEEE-754 bit pattern, little-endian.
  void WriteDouble(double value);
  // Every element as by WriteDouble, with no length prefix: one append (a
  // memcpy on little-endian hosts, the per-byte path elsewhere).
  void WriteDoubles(std::span<const double> values);
  // LEB128-style unsigned varint.
  void WriteVarint(uint64_t value);
  // Varint length prefix followed by raw bytes.
  void WriteBytes(std::span<const uint8_t> bytes);
  void WriteString(std::string_view text);
  // Raw bytes with no length prefix (splices a pre-encoded section).
  void WriteRaw(std::span<const uint8_t> bytes);

  const std::vector<uint8_t>& data() const { return data_; }
  std::vector<uint8_t> TakeData() { return std::move(data_); }
  size_t size() const { return data_.size(); }

  // Reserves capacity up front when the final size is roughly known.
  void Reserve(size_t bytes) { data_.reserve(bytes); }

 private:
  std::vector<uint8_t> data_;
};

// Reads the format produced by ByteWriter. All methods return an error Status
// instead of reading past the end of the buffer. The reader borrows the
// buffer; the caller keeps it alive.
class ByteReader {
 public:
  explicit ByteReader(std::span<const uint8_t> data) : data_(data) {}

  Result<uint8_t> ReadUint8();
  Result<uint32_t> ReadUint32();
  Result<uint64_t> ReadUint64();
  Result<int64_t> ReadInt64();
  Result<double> ReadDouble();
  // Fills `out` with out.size() doubles as written by WriteDoubles; fails
  // with kOutOfRange, consuming nothing, unless all of them are available.
  Status ReadDoubles(std::span<double> out);
  Result<uint64_t> ReadVarint();
  Result<std::vector<uint8_t>> ReadBytes();
  Result<std::string> ReadString();

  size_t remaining() const { return data_.size() - offset_; }
  bool AtEnd() const { return offset_ == data_.size(); }

 private:
  // Fails with kOutOfRange unless `count` more bytes are available.
  Status Require(size_t count) const;

  std::span<const uint8_t> data_;
  size_t offset_ = 0;
};

}  // namespace pronghorn

#endif  // PRONGHORN_SRC_COMMON_BYTES_H_
