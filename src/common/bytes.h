// Binary serialization primitives.
//
// ByteWriter/ByteReader implement a little-endian wire format used by the
// snapshot codec, the policy-state codec, and the stores. Reads are fully
// validated: a truncated or corrupt buffer yields kDataLoss/kOutOfRange
// rather than undefined behavior.

#ifndef PRONGHORN_SRC_COMMON_BYTES_H_
#define PRONGHORN_SRC_COMMON_BYTES_H_

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
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
// blobs to an owned byte vector. The scalar and varint writers are inline and
// each makes one append of the finished encoding.
class ByteWriter {
 public:
  ByteWriter() = default;
  // Appends to `buffer`, reusing its capacity (clear it first to recycle a
  // spent encoding's storage).
  explicit ByteWriter(std::vector<uint8_t> buffer) : data_(std::move(buffer)) {}

  void WriteUint8(uint8_t value) { data_.push_back(value); }
  void WriteUint32(uint32_t value) { WriteLittleEndian(value); }
  void WriteUint64(uint64_t value) { WriteLittleEndian(value); }
  void WriteInt64(int64_t value) { WriteUint64(static_cast<uint64_t>(value)); }
  // IEEE-754 bit pattern, little-endian.
  void WriteDouble(double value) { WriteUint64(std::bit_cast<uint64_t>(value)); }
  // Every element as by WriteDouble, with no length prefix: one append (a
  // memcpy on little-endian hosts, the per-byte path elsewhere).
  void WriteDoubles(std::span<const double> values);
  // LEB128-style unsigned varint.
  void WriteVarint(uint64_t value) {
    uint8_t bytes[10];
    size_t size = 0;
    while (value >= 0x80) {
      bytes[size++] = static_cast<uint8_t>((value & 0x7f) | 0x80);
      value >>= 7;
    }
    bytes[size++] = static_cast<uint8_t>(value);
    data_.insert(data_.end(), bytes, bytes + size);
  }
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
  // Explicit shifts keep the wire format independent of the host's byte
  // order; compilers fold them into one store on little-endian hosts. The
  // append is a resize and one memcpy (inserting the array instead trips a
  // GCC 12 -Wstringop-overflow false positive on a freshly reserved vector).
  template <typename Uint>
  void WriteLittleEndian(Uint value) {
    uint8_t bytes[sizeof(Uint)];
    for (size_t i = 0; i < sizeof(Uint); ++i) {
      bytes[i] = static_cast<uint8_t>(value >> (8 * i));
    }
    const size_t offset = data_.size();
    data_.resize(offset + sizeof(Uint));
    std::memcpy(data_.data() + offset, bytes, sizeof(Uint));
  }

  std::vector<uint8_t> data_;
};

// Reads the format produced by ByteWriter. All methods return an error Status
// instead of reading past the end of the buffer: kOutOfRange on truncation,
// kDataLoss on a varint that overflows 64 bits. A failed read consumes
// nothing. The fixed-width reads and the one-byte varint are inline; longer
// varints take an out-of-line loop. The reader borrows the buffer; the caller
// keeps it alive.
class ByteReader {
 public:
  explicit ByteReader(std::span<const uint8_t> data) : data_(data) {}

  Result<uint8_t> ReadUint8() {
    if (offset_ == data_.size()) {
      return TruncatedError();
    }
    return data_[offset_++];
  }
  Result<uint32_t> ReadUint32() { return ReadLittleEndian<uint32_t>(); }
  Result<uint64_t> ReadUint64() { return ReadLittleEndian<uint64_t>(); }
  Result<int64_t> ReadInt64() {
    if (remaining() < sizeof(int64_t)) {
      return TruncatedError();
    }
    return static_cast<int64_t>(LoadLittleEndian<uint64_t>());
  }
  Result<double> ReadDouble() {
    if (remaining() < sizeof(double)) {
      return TruncatedError();
    }
    return std::bit_cast<double>(LoadLittleEndian<uint64_t>());
  }
  // Fills `out` with out.size() doubles as written by WriteDoubles; fails
  // with kOutOfRange, consuming nothing, unless all of them are available.
  Status ReadDoubles(std::span<double> out);
  Result<uint64_t> ReadVarint() {
    if (offset_ < data_.size() && data_[offset_] < 0x80) {
      return data_[offset_++];
    }
    return ReadVarintSlow();
  }
  Result<std::vector<uint8_t>> ReadBytes();
  Result<std::string> ReadString();

  size_t remaining() const { return data_.size() - offset_; }
  bool AtEnd() const { return offset_ == data_.size(); }

 private:
  // The kOutOfRange status every truncated read returns (out of line: the
  // message is built only on failure).
  static Status TruncatedError();

  // Varints of two or more bytes, and every varint failure.
  Result<uint64_t> ReadVarintSlow();

  // Decodes sizeof(Uint) bytes at the cursor and advances past them; the
  // caller has checked they are there.
  template <typename Uint>
  Uint LoadLittleEndian() {
    Uint value = 0;
    const uint8_t* in = data_.data() + offset_;
    if constexpr (std::endian::native == std::endian::little) {
      std::memcpy(&value, in, sizeof(Uint));
    } else {
      for (size_t i = 0; i < sizeof(Uint); ++i) {
        value |= static_cast<Uint>(static_cast<Uint>(in[i]) << (8 * i));
      }
    }
    offset_ += sizeof(Uint);
    return value;
  }

  template <typename Uint>
  Result<Uint> ReadLittleEndian() {
    if (remaining() < sizeof(Uint)) {
      return TruncatedError();
    }
    return LoadLittleEndian<Uint>();
  }

  std::span<const uint8_t> data_;
  size_t offset_ = 0;
};

}  // namespace pronghorn

#endif  // PRONGHORN_SRC_COMMON_BYTES_H_
