#include "src/checkpoint/snapshot.h"

#include "src/common/crc32.h"

namespace pronghorn {

namespace {

constexpr uint32_t kMagic = 0x50534e50;  // "PSNP"
// v2: event counters embedded in engine payloads (MethodState::deopt_count,
// compile_remaining) are 64-bit. The wire encoding was already varint, so v1
// images decode unchanged; the bump marks the widened value range.
constexpr uint8_t kVersion = 2;
constexpr uint8_t kMinVersion = 1;

}  // namespace

std::vector<uint8_t> SnapshotImage::Encode() const {
  ByteWriter writer;
  writer.Reserve(payload_.size() + 128);
  writer.WriteUint32(kMagic);
  writer.WriteUint8(kVersion);
  writer.WriteUint64(metadata_.id.value);
  writer.WriteString(metadata_.function);
  writer.WriteVarint(metadata_.request_number);
  writer.WriteVarint(metadata_.logical_size_bytes);
  writer.WriteInt64(metadata_.created_at.ToMicros());
  writer.WriteBytes(payload_);
  const uint32_t crc = Crc32(writer.data());
  writer.WriteUint32(crc);
  return writer.TakeData();
}

Result<SnapshotImage> SnapshotImage::Decode(std::span<const uint8_t> bytes) {
  if (bytes.size() < 4) {
    return DataLossError("snapshot image truncated");
  }
  // Validate the trailing CRC before parsing anything else.
  const std::span<const uint8_t> body = bytes.first(bytes.size() - 4);
  ByteReader crc_reader(bytes.subspan(bytes.size() - 4));
  PRONGHORN_ASSIGN_OR_RETURN(uint32_t stored_crc, crc_reader.ReadUint32());
  if (Crc32(body) != stored_crc) {
    return DataLossError("snapshot image CRC mismatch");
  }

  ByteReader reader(body);
  PRONGHORN_ASSIGN_OR_RETURN(uint32_t magic, reader.ReadUint32());
  if (magic != kMagic) {
    return DataLossError("bad snapshot magic");
  }
  PRONGHORN_ASSIGN_OR_RETURN(uint8_t version, reader.ReadUint8());
  if (version < kMinVersion || version > kVersion) {
    return DataLossError("unsupported snapshot version");
  }
  SnapshotMetadata metadata;
  PRONGHORN_ASSIGN_OR_RETURN(metadata.id.value, reader.ReadUint64());
  PRONGHORN_ASSIGN_OR_RETURN(metadata.function, reader.ReadString());
  PRONGHORN_ASSIGN_OR_RETURN(metadata.request_number, reader.ReadVarint());
  PRONGHORN_ASSIGN_OR_RETURN(metadata.logical_size_bytes, reader.ReadVarint());
  PRONGHORN_ASSIGN_OR_RETURN(int64_t created_us, reader.ReadInt64());
  metadata.created_at = TimePoint::FromMicros(created_us);
  PRONGHORN_ASSIGN_OR_RETURN(std::vector<uint8_t> payload, reader.ReadBytes());
  if (!reader.AtEnd()) {
    return DataLossError("trailing bytes after snapshot payload");
  }
  return SnapshotImage(std::move(metadata), std::move(payload));
}

}  // namespace pronghorn
