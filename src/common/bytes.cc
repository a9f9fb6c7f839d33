#include "src/common/bytes.h"

#include <bit>
#include <cstring>

namespace pronghorn {

void ByteWriter::WriteUint8(uint8_t value) { data_.push_back(value); }

void ByteWriter::WriteUint32(uint32_t value) {
  // One resize + unrolled byte stores instead of per-byte push_back: the
  // fixed-width writers dominate the policy-state and snapshot encode paths,
  // and the explicit shifts keep the wire format endian-independent.
  const size_t offset = data_.size();
  data_.resize(offset + 4);
  for (size_t i = 0; i < 4; ++i) {
    data_[offset + i] = static_cast<uint8_t>(value >> (8 * i));
  }
}

void ByteWriter::WriteUint64(uint64_t value) {
  const size_t offset = data_.size();
  data_.resize(offset + 8);
  for (size_t i = 0; i < 8; ++i) {
    data_[offset + i] = static_cast<uint8_t>(value >> (8 * i));
  }
}

void ByteWriter::WriteInt64(int64_t value) {
  WriteUint64(static_cast<uint64_t>(value));
}

void ByteWriter::WriteDouble(double value) {
  uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(value));
  std::memcpy(&bits, &value, sizeof(bits));
  WriteUint64(bits);
}

void ByteWriter::WriteDoubles(std::span<const double> values) {
  if constexpr (std::endian::native == std::endian::little) {
    // The in-memory representation already is the wire format.
    const auto* bytes = reinterpret_cast<const uint8_t*>(values.data());
    data_.insert(data_.end(), bytes, bytes + values.size_bytes());
  } else {
    const size_t offset = data_.size();
    data_.resize(offset + values.size_bytes());
    uint8_t* out = data_.data() + offset;
    for (const double value : values) {
      uint64_t bits = 0;
      std::memcpy(&bits, &value, sizeof(bits));
      for (size_t i = 0; i < 8; ++i) {
        *out++ = static_cast<uint8_t>(bits >> (8 * i));
      }
    }
  }
}

void ByteWriter::WriteVarint(uint64_t value) {
  while (value >= 0x80) {
    data_.push_back(static_cast<uint8_t>((value & 0x7f) | 0x80));
    value >>= 7;
  }
  data_.push_back(static_cast<uint8_t>(value));
}

void ByteWriter::WriteBytes(std::span<const uint8_t> bytes) {
  WriteVarint(bytes.size());
  data_.insert(data_.end(), bytes.begin(), bytes.end());
}

void ByteWriter::WriteString(std::string_view text) {
  WriteVarint(text.size());
  data_.insert(data_.end(), text.begin(), text.end());
}

void ByteWriter::WriteRaw(std::span<const uint8_t> bytes) {
  data_.insert(data_.end(), bytes.begin(), bytes.end());
}

Status ByteReader::Require(size_t count) const {
  if (data_.size() - offset_ < count) {
    return OutOfRangeError("read past end of buffer");
  }
  return OkStatus();
}

Result<uint8_t> ByteReader::ReadUint8() {
  PRONGHORN_RETURN_IF_ERROR(Require(1));
  return data_[offset_++];
}

Result<uint32_t> ByteReader::ReadUint32() {
  PRONGHORN_RETURN_IF_ERROR(Require(4));
  uint32_t value = 0;
  for (int shift = 0; shift < 32; shift += 8) {
    value |= static_cast<uint32_t>(data_[offset_++]) << shift;
  }
  return value;
}

Result<uint64_t> ByteReader::ReadUint64() {
  PRONGHORN_RETURN_IF_ERROR(Require(8));
  uint64_t value = 0;
  for (int shift = 0; shift < 64; shift += 8) {
    value |= static_cast<uint64_t>(data_[offset_++]) << shift;
  }
  return value;
}

Result<int64_t> ByteReader::ReadInt64() {
  PRONGHORN_ASSIGN_OR_RETURN(uint64_t bits, ReadUint64());
  return static_cast<int64_t>(bits);
}

Result<double> ByteReader::ReadDouble() {
  PRONGHORN_ASSIGN_OR_RETURN(uint64_t bits, ReadUint64());
  double value = 0.0;
  std::memcpy(&value, &bits, sizeof(value));
  return value;
}

Status ByteReader::ReadDoubles(std::span<double> out) {
  // Divide rather than multiply: a caller-sized `out` cannot overflow.
  if (remaining() / sizeof(double) < out.size()) {
    return OutOfRangeError("read past end of buffer");
  }
  const uint8_t* in = data_.data() + offset_;
  if constexpr (std::endian::native == std::endian::little) {
    if (!out.empty()) {
      std::memcpy(out.data(), in, out.size_bytes());
    }
  } else {
    for (double& value : out) {
      uint64_t bits = 0;
      for (size_t i = 0; i < 8; ++i) {
        bits |= static_cast<uint64_t>(*in++) << (8 * i);
      }
      std::memcpy(&value, &bits, sizeof(value));
    }
  }
  offset_ += out.size_bytes();
  return OkStatus();
}

Result<uint64_t> ByteReader::ReadVarint() {
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

Result<std::vector<uint8_t>> ByteReader::ReadBytes() {
  PRONGHORN_ASSIGN_OR_RETURN(uint64_t length, ReadVarint());
  PRONGHORN_RETURN_IF_ERROR(Require(length));
  std::vector<uint8_t> out(data_.begin() + static_cast<ptrdiff_t>(offset_),
                           data_.begin() + static_cast<ptrdiff_t>(offset_ + length));
  offset_ += length;
  return out;
}

Result<std::string> ByteReader::ReadString() {
  PRONGHORN_ASSIGN_OR_RETURN(uint64_t length, ReadVarint());
  PRONGHORN_RETURN_IF_ERROR(Require(length));
  std::string out(reinterpret_cast<const char*>(data_.data()) + offset_, length);
  offset_ += length;
  return out;
}

}  // namespace pronghorn
