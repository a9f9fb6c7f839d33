#include "src/store/object_store.h"

#include <algorithm>

namespace pronghorn {

const std::vector<uint8_t>& ObjectBlob::bytes() const {
  static const std::vector<uint8_t> kEmpty;
  return data == nullptr ? kEmpty : *data;
}

Status InMemoryObjectStore::Put(std::string_view key, ObjectBlob blob) {
  if (key.empty()) {
    return InvalidArgumentError("object key must be non-empty");
  }
  const uint64_t new_logical = blob.logical_size;
  const uint64_t new_encoded = blob.bytes().size();
  uint64_t old_logical = 0;
  uint64_t old_encoded = 0;
  {
    Stripe& stripe = stripes_[StripeIndexForKey(key)];
    std::lock_guard<std::mutex> lock(stripe.mutex);
    auto it = stripe.objects.find(key);
    if (it != stripe.objects.end()) {
      old_logical = it->second.logical_size;
      old_encoded = it->second.bytes().size();
      it->second = std::move(blob);
    } else {
      stripe.objects.emplace(std::string(key), std::move(blob));
    }
  }
  AtomicStoreMax(accounting_.peak_logical_bytes,
                 AtomicAddFetch(accounting_.logical_bytes_stored,
                                new_logical - old_logical));
  accounting_.network_bytes_uploaded.fetch_add(new_logical,
                                               std::memory_order_relaxed);
  accounting_.put_count.fetch_add(1, std::memory_order_relaxed);
  AtomicStoreMax(accounting_.physical_peak_bytes,
                 AtomicAddFetch(accounting_.physical_bytes_stored,
                                new_encoded - old_encoded));
  return OkStatus();
}

Result<ObjectBlob> InMemoryObjectStore::Get(std::string_view key) {
  ObjectBlob found;
  {
    Stripe& stripe = stripes_[StripeIndexForKey(key)];
    std::lock_guard<std::mutex> lock(stripe.mutex);
    auto it = stripe.objects.find(key);
    if (it == stripe.objects.end()) {
      return NotFoundError("no object with key '" + std::string(key) + "'");
    }
    found = it->second;  // Shares the stored buffer; no payload copy.
  }
  accounting_.network_bytes_downloaded.fetch_add(found.logical_size,
                                                 std::memory_order_relaxed);
  accounting_.get_count.fetch_add(1, std::memory_order_relaxed);
  accounting_.chunks_fetched.fetch_add(1, std::memory_order_relaxed);
  accounting_.bytes_fetched.fetch_add(found.bytes().size(),
                                      std::memory_order_relaxed);
  return found;
}

Status InMemoryObjectStore::Delete(std::string_view key) {
  uint64_t old_logical = 0;
  uint64_t old_encoded = 0;
  {
    Stripe& stripe = stripes_[StripeIndexForKey(key)];
    std::lock_guard<std::mutex> lock(stripe.mutex);
    auto it = stripe.objects.find(key);
    if (it == stripe.objects.end()) {
      return NotFoundError("no object with key '" + std::string(key) + "'");
    }
    old_logical = it->second.logical_size;
    old_encoded = it->second.bytes().size();
    stripe.objects.erase(it);
  }
  accounting_.logical_bytes_stored.fetch_sub(old_logical,
                                             std::memory_order_relaxed);
  accounting_.delete_count.fetch_add(1, std::memory_order_relaxed);
  accounting_.physical_bytes_stored.fetch_sub(old_encoded,
                                              std::memory_order_relaxed);
  return OkStatus();
}

bool InMemoryObjectStore::Contains(std::string_view key) const {
  const Stripe& stripe = stripes_[StripeIndexForKey(key)];
  std::lock_guard<std::mutex> lock(stripe.mutex);
  return stripe.objects.find(key) != stripe.objects.end();
}

std::vector<std::string> InMemoryObjectStore::ListKeys(std::string_view prefix) const {
  // Gather per stripe, then sort once: the old std::map returned keys in
  // lexicographic order and callers (recovery scans, tests) rely on it.
  std::vector<std::string> keys;
  for (const Stripe& stripe : stripes_) {
    std::lock_guard<std::mutex> lock(stripe.mutex);
    for (const auto& [key, blob] : stripe.objects) {
      if (key.size() >= prefix.size() &&
          key.compare(0, prefix.size(), prefix) == 0) {
        keys.push_back(key);
      }
    }
  }
  std::sort(keys.begin(), keys.end());
  return keys;
}

StoreAccounting InMemoryObjectStore::accounting() const {
  StoreAccounting out;
  out.logical_bytes_stored =
      accounting_.logical_bytes_stored.load(std::memory_order_relaxed);
  out.peak_logical_bytes =
      accounting_.peak_logical_bytes.load(std::memory_order_relaxed);
  out.network_bytes_uploaded =
      accounting_.network_bytes_uploaded.load(std::memory_order_relaxed);
  out.network_bytes_downloaded =
      accounting_.network_bytes_downloaded.load(std::memory_order_relaxed);
  out.put_count = accounting_.put_count.load(std::memory_order_relaxed);
  out.get_count = accounting_.get_count.load(std::memory_order_relaxed);
  out.delete_count = accounting_.delete_count.load(std::memory_order_relaxed);
  // Flat store: the physical view is exactly the encoded payload held.
  out.physical.bytes_stored =
      accounting_.physical_bytes_stored.load(std::memory_order_relaxed);
  out.physical.peak_bytes =
      accounting_.physical_peak_bytes.load(std::memory_order_relaxed);
  out.physical.flat_bytes_stored = out.physical.bytes_stored;
  out.physical.peak_flat_bytes = out.physical.peak_bytes;
  out.physical.chunks_fetched =
      accounting_.chunks_fetched.load(std::memory_order_relaxed);
  out.physical.bytes_fetched =
      accounting_.bytes_fetched.load(std::memory_order_relaxed);
  return out;
}

}  // namespace pronghorn
