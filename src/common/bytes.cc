#include "src/common/bytes.h"

#include <bit>
#include <cstring>

namespace pronghorn {

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

Status ByteReader::TruncatedError() {
  return OutOfRangeError("read past end of buffer");
}

Status ByteReader::ReadDoubles(std::span<double> out) {
  // Divide rather than multiply: a caller-sized `out` cannot overflow.
  if (remaining() / sizeof(double) < out.size()) {
    return TruncatedError();
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

Result<uint64_t> ByteReader::ReadVarintSlow() {
  // Decode from a local cursor and commit it only on success, so a failed
  // read leaves the reader where it was. The 10th byte (shift 63) may only
  // be 0 or 1, so it either ends the varint or overflows: an 11th byte is
  // never read.
  size_t offset = offset_;
  uint64_t value = 0;
  for (int shift = 0;; shift += 7) {
    if (offset == data_.size()) {
      return TruncatedError();
    }
    const uint8_t byte = data_[offset++];
    if (shift == 63 && byte > 1) {
      return DataLossError("varint overflows 64 bits");
    }
    value |= static_cast<uint64_t>(byte & 0x7f) << shift;
    if ((byte & 0x80) == 0) {
      offset_ = offset;
      return value;
    }
  }
}

Result<std::vector<uint8_t>> ByteReader::ReadBytes() {
  const size_t start = offset_;
  PRONGHORN_ASSIGN_OR_RETURN(uint64_t length, ReadVarint());
  if (remaining() < length) {
    offset_ = start;
    return TruncatedError();
  }
  std::vector<uint8_t> out(data_.begin() + static_cast<ptrdiff_t>(offset_),
                           data_.begin() + static_cast<ptrdiff_t>(offset_ + length));
  offset_ += length;
  return out;
}

Result<std::string> ByteReader::ReadString() {
  const size_t start = offset_;
  PRONGHORN_ASSIGN_OR_RETURN(uint64_t length, ReadVarint());
  if (remaining() < length) {
    offset_ = start;
    return TruncatedError();
  }
  std::string out(reinterpret_cast<const char*>(data_.data()) + offset_, length);
  offset_ += length;
  return out;
}

}  // namespace pronghorn
