// Snapshot images and metadata.
//
// A SnapshotImage is the unit the checkpoint engine produces and the object
// store holds. The payload carries the complete serialized RuntimeProcess
// state (the part of a CRIU image that determines behavior); the bulk of a
// real image — anonymous heap pages — is represented by `logical_size_bytes`,
// which drives all storage/network accounting (Table 5) without materializing
// tens of megabytes per snapshot in the simulator.

#ifndef PRONGHORN_SRC_CHECKPOINT_SNAPSHOT_H_
#define PRONGHORN_SRC_CHECKPOINT_SNAPSHOT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/common/bytes.h"
#include "src/common/clock.h"
#include "src/common/result.h"

namespace pronghorn {

// Globally unique snapshot identifier (allocated from the Database sequence).
struct SnapshotId {
  uint64_t value = 0;

  auto operator<=>(const SnapshotId&) const = default;
};

struct SnapshotMetadata {
  SnapshotId id;
  // Function the snapshot belongs to.
  std::string function;
  // JIT maturity: requests the process had executed when checkpointed. This
  // is the "request number" of Algorithm 1.
  uint64_t request_number = 0;
  // Modeled on-disk image size (compressed CRIU image equivalent).
  uint64_t logical_size_bytes = 0;
  TimePoint created_at;

  bool operator==(const SnapshotMetadata&) const = default;
};

class SnapshotImage {
 public:
  SnapshotImage(SnapshotMetadata metadata, std::vector<uint8_t> payload)
      : metadata_(std::move(metadata)), payload_(std::move(payload)) {}

  const SnapshotMetadata& metadata() const { return metadata_; }
  const std::vector<uint8_t>& payload() const { return payload_; }

  // Serializes to the on-wire image format: magic, version, metadata,
  // payload, trailing CRC-32 over everything preceding it.
  std::vector<uint8_t> Encode() const;

  // Parses and validates an encoded image. Fails with kDataLoss on a bad
  // magic, unsupported version, truncation, or CRC mismatch.
  static Result<SnapshotImage> Decode(std::span<const uint8_t> bytes);

 private:
  SnapshotMetadata metadata_;
  std::vector<uint8_t> payload_;
};

}  // namespace pronghorn

#endif  // PRONGHORN_SRC_CHECKPOINT_SNAPSHOT_H_
