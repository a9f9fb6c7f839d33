#include "src/core/snapshot_pool.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <numeric>

namespace pronghorn {

Status SnapshotPool::Add(PoolEntry entry) {
  if (Contains(entry.metadata.id)) {
    return AlreadyExistsError("snapshot " + std::to_string(entry.metadata.id.value) +
                              " already in pool");
  }
  entries_.push_back(std::move(entry));
  section_fresh_ = false;
  return OkStatus();
}

Result<const PoolEntry*> SnapshotPool::Find(SnapshotId id) const {
  for (const PoolEntry& entry : entries_) {
    if (entry.metadata.id == id) {
      return &entry;
    }
  }
  return NotFoundError("snapshot " + std::to_string(id.value) + " not in pool");
}

bool SnapshotPool::Contains(SnapshotId id) const {
  return std::any_of(entries_.begin(), entries_.end(),
                     [id](const PoolEntry& e) { return e.metadata.id == id; });
}

bool SnapshotPool::Remove(SnapshotId id) {
  const auto it = std::find_if(entries_.begin(), entries_.end(),
                               [id](const PoolEntry& e) { return e.metadata.id == id; });
  if (it == entries_.end()) {
    return false;
  }
  entries_.erase(it);
  section_fresh_ = false;
  return true;
}

std::vector<PoolEntry> SnapshotPool::Prune(std::span<const double> weights,
                                           double top_percent, double random_percent,
                                           Rng& rng) {
  std::vector<PoolEntry> removed;
  if (entries_.empty() || weights.size() != entries_.size()) {
    return removed;
  }
  section_fresh_ = false;
  const size_t n = entries_.size();
  size_t keep_top = static_cast<size_t>(
      std::ceil(static_cast<double>(n) * top_percent / 100.0));
  keep_top = std::max<size_t>(keep_top, 1);  // Never empty the pool.
  keep_top = std::min(keep_top, n);
  const size_t keep_random = std::min(
      n - keep_top,
      static_cast<size_t>(std::floor(static_cast<double>(n) * random_percent / 100.0)));

  // Rank indices by weight, descending; ties broken by recency (higher id)
  // to keep the pruning deterministic.
  std::vector<size_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    if (weights[a] != weights[b]) {
      return weights[a] > weights[b];
    }
    return entries_[a].metadata.id.value > entries_[b].metadata.id.value;
  });

  std::vector<bool> keep(n, false);
  for (size_t i = 0; i < keep_top; ++i) {
    keep[order[i]] = true;
  }
  // Random survivors drawn uniformly from the non-top remainder
  // (hill-climbing escape hatch, §3.4 "Snapshot pool management").
  std::vector<size_t> remainder(order.begin() + static_cast<ptrdiff_t>(keep_top),
                                order.end());
  rng.Shuffle(remainder);
  for (size_t i = 0; i < keep_random; ++i) {
    keep[remainder[i]] = true;
  }

  std::vector<PoolEntry> survivors;
  survivors.reserve(keep_top + keep_random);
  for (size_t i = 0; i < n; ++i) {
    if (keep[i]) {
      survivors.push_back(std::move(entries_[i]));
    } else {
      removed.push_back(std::move(entries_[i]));
    }
  }
  entries_ = std::move(survivors);
  return removed;
}

const std::vector<uint8_t>& SnapshotPool::Section() const {
  if (!section_fresh_) {
    std::vector<uint8_t> buffer;
    if (section_ != nullptr && section_.use_count() == 1) {
      // Sole holder: recycle the stale buffer's storage. The acquire fence
      // orders this after any other holder's last read, which preceded its
      // release of the reference.
      std::atomic_thread_fence(std::memory_order_acquire);
      buffer = std::move(*section_);
      buffer.clear();
    } else {
      section_ = std::make_shared<std::vector<uint8_t>>();
    }
    ByteWriter writer(std::move(buffer));
    writer.WriteVarint(entries_.size());
    for (const PoolEntry& entry : entries_) {
      writer.WriteUint64(entry.metadata.id.value);
      writer.WriteString(entry.metadata.function);
      writer.WriteVarint(entry.metadata.request_number);
      writer.WriteVarint(entry.metadata.logical_size_bytes);
      writer.WriteInt64(entry.metadata.created_at.ToMicros());
      writer.WriteString(entry.object_key);
    }
    *section_ = writer.TakeData();
    section_fresh_ = true;
  }
  return *section_;
}

void SnapshotPool::Serialize(ByteWriter& writer) const { writer.WriteRaw(Section()); }

size_t SnapshotPool::SerializedSize() const { return Section().size(); }

Result<SnapshotPool> SnapshotPool::Deserialize(ByteReader& reader) {
  PRONGHORN_ASSIGN_OR_RETURN(uint64_t count, reader.ReadVarint());
  if (count > (1u << 20)) {
    return DataLossError("implausible snapshot pool size");
  }
  SnapshotPool pool;
  pool.entries_.reserve(count);
  for (uint64_t i = 0; i < count; ++i) {
    PoolEntry entry;
    PRONGHORN_ASSIGN_OR_RETURN(entry.metadata.id.value, reader.ReadUint64());
    PRONGHORN_ASSIGN_OR_RETURN(entry.metadata.function, reader.ReadString());
    PRONGHORN_ASSIGN_OR_RETURN(entry.metadata.request_number, reader.ReadVarint());
    PRONGHORN_ASSIGN_OR_RETURN(entry.metadata.logical_size_bytes, reader.ReadVarint());
    PRONGHORN_ASSIGN_OR_RETURN(int64_t created_us, reader.ReadInt64());
    entry.metadata.created_at = TimePoint::FromMicros(created_us);
    PRONGHORN_ASSIGN_OR_RETURN(entry.object_key, reader.ReadString());
    PRONGHORN_RETURN_IF_ERROR(pool.Add(std::move(entry)));
  }
  return pool;
}

}  // namespace pronghorn
