#include "src/store/kv_database.h"

#include <algorithm>

#include "src/common/bytes.h"

namespace pronghorn {

// Counter updates mirror the historical single-mutex version exactly,
// including its quirks: reads/writes count even when the operation then
// fails with kNotFound, and cas_attempts counts conflicted attempts.

Status InMemoryKvDatabase::Put(std::string_view key, std::vector<uint8_t> value) {
  if (key.empty()) {
    return InvalidArgumentError("database key must be non-empty");
  }
  writes_.fetch_add(1, std::memory_order_relaxed);
  Stripe& stripe = stripes_[StripeIndexForKey(key)];
  std::lock_guard<std::mutex> lock(stripe.mutex);
  auto it = stripe.entries.find(key);
  if (it == stripe.entries.end()) {
    stripe.entries.emplace(std::string(key), VersionedValue{std::move(value), 1});
  } else {
    it->second.value = std::move(value);
    it->second.version += 1;
  }
  return OkStatus();
}

Result<std::vector<uint8_t>> InMemoryKvDatabase::Get(std::string_view key) {
  PRONGHORN_ASSIGN_OR_RETURN(VersionedValue versioned, GetVersioned(key));
  return std::move(versioned.value);
}

Result<VersionedValue> InMemoryKvDatabase::GetVersioned(std::string_view key) {
  // Stored versions start at 1, so version 0 never matches: a full copy.
  return GetVersionedIfChanged(key, 0);
}

Result<VersionedValue> InMemoryKvDatabase::GetVersionedIfChanged(std::string_view key,
                                                                 uint64_t known_version) {
  reads_.fetch_add(1, std::memory_order_relaxed);
  Stripe& stripe = stripes_[StripeIndexForKey(key)];
  std::lock_guard<std::mutex> lock(stripe.mutex);
  auto it = stripe.entries.find(key);
  if (it == stripe.entries.end()) {
    return NotFoundError("no database entry for '" + std::string(key) + "'");
  }
  if (it->second.version == known_version) {
    return VersionedValue{{}, known_version};
  }
  return it->second;
}

Status InMemoryKvDatabase::CompareAndSwap(std::string_view key,
                                          uint64_t expected_version,
                                          std::vector<uint8_t> value) {
  if (key.empty()) {
    return InvalidArgumentError("database key must be non-empty");
  }
  cas_attempts_.fetch_add(1, std::memory_order_relaxed);
  Stripe& stripe = stripes_[StripeIndexForKey(key)];
  std::lock_guard<std::mutex> lock(stripe.mutex);
  auto it = stripe.entries.find(key);
  const uint64_t current_version = it == stripe.entries.end() ? 0 : it->second.version;
  if (current_version != expected_version) {
    cas_conflicts_.fetch_add(1, std::memory_order_relaxed);
    return AbortedError("version mismatch for '" + std::string(key) + "': expected " +
                        std::to_string(expected_version) + ", found " +
                        std::to_string(current_version));
  }
  if (it == stripe.entries.end()) {
    stripe.entries.emplace(std::string(key), VersionedValue{std::move(value), 1});
  } else {
    it->second.value = std::move(value);
    it->second.version += 1;
  }
  return OkStatus();
}

Status InMemoryKvDatabase::Delete(std::string_view key) {
  writes_.fetch_add(1, std::memory_order_relaxed);
  Stripe& stripe = stripes_[StripeIndexForKey(key)];
  std::lock_guard<std::mutex> lock(stripe.mutex);
  auto it = stripe.entries.find(key);
  if (it == stripe.entries.end()) {
    return NotFoundError("no database entry for '" + std::string(key) + "'");
  }
  stripe.entries.erase(it);
  return OkStatus();
}

Result<int64_t> InMemoryKvDatabase::Increment(std::string_view key) {
  if (key.empty()) {
    return InvalidArgumentError("database key must be non-empty");
  }
  writes_.fetch_add(1, std::memory_order_relaxed);
  Stripe& stripe = stripes_[StripeIndexForKey(key)];
  std::lock_guard<std::mutex> lock(stripe.mutex);
  auto it = stripe.entries.find(key);
  int64_t current = 0;
  if (it != stripe.entries.end()) {
    ByteReader reader(it->second.value);
    PRONGHORN_ASSIGN_OR_RETURN(current, reader.ReadInt64());
  }
  const int64_t next = current + 1;
  ByteWriter writer;
  writer.WriteInt64(next);
  if (it == stripe.entries.end()) {
    stripe.entries.emplace(std::string(key), VersionedValue{writer.TakeData(), 1});
  } else {
    it->second.value = writer.TakeData();
    it->second.version += 1;
  }
  return next;
}

std::vector<std::string> InMemoryKvDatabase::ListKeys(std::string_view prefix) const {
  // Gather per stripe, then sort once: the old std::map returned keys in
  // lexicographic order and recovery scans rely on it.
  std::vector<std::string> keys;
  for (const Stripe& stripe : stripes_) {
    std::lock_guard<std::mutex> lock(stripe.mutex);
    for (const auto& [key, value] : stripe.entries) {
      if (key.size() >= prefix.size() &&
          key.compare(0, prefix.size(), prefix) == 0) {
        keys.push_back(key);
      }
    }
  }
  std::sort(keys.begin(), keys.end());
  return keys;
}

KvAccounting InMemoryKvDatabase::accounting() const {
  KvAccounting out;
  out.reads = reads_.load(std::memory_order_relaxed);
  out.writes = writes_.load(std::memory_order_relaxed);
  out.cas_attempts = cas_attempts_.load(std::memory_order_relaxed);
  out.cas_conflicts = cas_conflicts_.load(std::memory_order_relaxed);
  return out;
}

}  // namespace pronghorn
