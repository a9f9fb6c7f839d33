#include "src/platform/sim_checkpoint.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <utility>

#include <fcntl.h>
#include <unistd.h>

#include "src/checkpoint/snapshot.h"

namespace pronghorn {

namespace {

// Flushes the directory entry so the rename itself survives a power cut.
void SyncParentDir(const std::string& path) {
  const size_t slash = path.find_last_of('/');
  const std::string dir = slash == std::string::npos ? "." : path.substr(0, slash);
  const int fd = ::open(dir.c_str(), O_RDONLY);
  if (fd >= 0) {
    ::fsync(fd);
    ::close(fd);
  }
}

}  // namespace

Status WriteSimCheckpointFile(const std::string& path, uint64_t fingerprint,
                              uint64_t progress, std::span<const uint8_t> payload) {
  // Frame the state exactly the way engine snapshots are framed: the
  // SnapshotImage wire format already carries magic, version, and a CRC32
  // trailer, and its Decode() is the corruption oracle the recovery paths
  // trust.
  SnapshotMetadata metadata;
  metadata.id.value = fingerprint;
  metadata.function = "sim-checkpoint";
  metadata.request_number = progress;
  metadata.logical_size_bytes = payload.size();
  metadata.created_at = TimePoint::FromMicros(0);  // Simulated time only.
  const SnapshotImage image(std::move(metadata),
                            std::vector<uint8_t>(payload.begin(), payload.end()));
  const std::vector<uint8_t> frame = image.Encode();

  const std::string tmp = path + ".tmp";
  std::FILE* file = std::fopen(tmp.c_str(), "wb");
  if (file == nullptr) {
    return InternalError("cannot open checkpoint temp file '" + tmp + "'");
  }
  const size_t written = std::fwrite(frame.data(), 1, frame.size(), file);
  if (written != frame.size() || std::fflush(file) != 0 ||
      ::fsync(::fileno(file)) != 0) {
    std::fclose(file);
    std::remove(tmp.c_str());
    return InternalError("short write to checkpoint temp file '" + tmp + "'");
  }
  std::fclose(file);
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return InternalError("cannot rename checkpoint into place at '" + path + "'");
  }
  SyncParentDir(path);
  return OkStatus();
}

Result<std::vector<uint8_t>> ReadSimCheckpointFile(const std::string& path,
                                                   uint64_t fingerprint) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return NotFoundError("no checkpoint at '" + path + "'");
  }
  std::stringstream buffer;
  buffer << in.rdbuf();
  const std::string bytes = buffer.str();
  PRONGHORN_ASSIGN_OR_RETURN(
      SnapshotImage image,
      SnapshotImage::Decode(std::span<const uint8_t>(
          reinterpret_cast<const uint8_t*>(bytes.data()), bytes.size())));
  if (image.metadata().function != "sim-checkpoint") {
    return DataLossError("'" + path + "' is not a simulation checkpoint");
  }
  if (image.metadata().id.value != fingerprint) {
    return FailedPreconditionError(
        "checkpoint at '" + path +
        "' belongs to a different experiment (fingerprint mismatch); refusing "
        "to resume");
  }
  return image.payload();
}

std::string WholeRunCheckpointPath(const std::string& dir) {
  return dir + "/sim.ckpt";
}

FleetCheckpointer::FleetCheckpointer(const SimCheckpointOptions& options,
                                     uint64_t fingerprint,
                                     const StreamingAccumulator& accumulator)
    : options_(options), fingerprint_(fingerprint), accumulator_(accumulator) {}

std::string FleetCheckpointer::FilePath(const std::string& dir) {
  return dir + "/fleet.ckpt";
}

void FleetCheckpointer::OnFold() {
  std::lock_guard<std::mutex> lock(mutex_);
  ++folds_since_write_;
  if (folds_since_write_ < std::max<uint64_t>(options_.every, 1)) {
    return;
  }
  folds_since_write_ = 0;
  if (const Status status = WriteFrame(); !status.ok() && first_error_.ok()) {
    first_error_ = status;
  }
}

Status FleetCheckpointer::Finish() {
  std::lock_guard<std::mutex> lock(mutex_);
  if (const Status status = WriteFrame(); !status.ok() && first_error_.ok()) {
    first_error_ = status;
  }
  return first_error_;
}

Status FleetCheckpointer::WriteFrame() {
  ByteWriter writer;
  accumulator_.SerializeState(writer);
  return WriteSimCheckpointFile(FilePath(options_.dir), fingerprint_,
                                accumulator_.folded_count(), writer.data());
}

}  // namespace pronghorn
