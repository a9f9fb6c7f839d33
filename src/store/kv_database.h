// Strongly-consistent key-value Database.
//
// The paper's Database (§4) is "a lightweight implementation of a
// general-purpose key-value store ... exposing only strongly-consistent
// atomic read and write operations", explicitly substitutable by Redis or
// Dynamo. This interface reproduces that contract, adds versioned
// compare-and-swap (the primitive a production store would provide for the
// concurrent-orchestrator update in workflow step 4), and an atomic counter
// used to allocate snapshot ids.

#ifndef PRONGHORN_SRC_STORE_KV_DATABASE_H_
#define PRONGHORN_SRC_STORE_KV_DATABASE_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "src/common/result.h"
#include "src/store/striping.h"

namespace pronghorn {

// A value plus its monotonically increasing version (1 on first write).
struct VersionedValue {
  std::vector<uint8_t> value;
  uint64_t version = 0;
};

// Cumulative operation counters (orchestrator-overhead accounting, Fig. 7).
struct KvAccounting {
  uint64_t reads = 0;
  uint64_t writes = 0;
  uint64_t cas_attempts = 0;
  uint64_t cas_conflicts = 0;
};

class KvDatabase {
 public:
  virtual ~KvDatabase() = default;

  // Unconditional atomic write.
  virtual Status Put(std::string_view key, std::vector<uint8_t> value) = 0;
  // Atomic read; kNotFound when absent.
  virtual Result<std::vector<uint8_t>> Get(std::string_view key) = 0;
  virtual Result<VersionedValue> GetVersioned(std::string_view key) = 0;
  // GetVersioned for a caller that already holds the value at
  // `known_version`: on a version match the value may be left empty, which
  // skips copying the blob. Same accounting and fault draw as GetVersioned.
  // The default forwards to GetVersioned (and so always fills the value).
  virtual Result<VersionedValue> GetVersionedIfChanged(std::string_view key,
                                                       uint64_t known_version) {
    (void)known_version;
    return GetVersioned(key);
  }
  // Writes `value` only if the current version equals `expected_version`
  // (use 0 for "key must not exist"); kAborted on conflict.
  virtual Status CompareAndSwap(std::string_view key, uint64_t expected_version,
                                std::vector<uint8_t> value) = 0;
  virtual Status Delete(std::string_view key) = 0;
  // Atomically increments the int64 counter at `key` (0 when absent) and
  // returns the new value. Used for snapshot-id allocation.
  virtual Result<int64_t> Increment(std::string_view key) = 0;
  virtual std::vector<std::string> ListKeys(std::string_view prefix = "") const = 0;

  virtual KvAccounting accounting() const = 0;
};

// Thread-safe in-memory implementation (the reference Database). Keys are
// lock-striped across kStoreStripes hash maps (see src/store/striping.h);
// per-key atomicity — including versioned CompareAndSwap and Increment — is
// provided by the key's stripe lock, and the operation counters are
// serial-exact atomics. ListKeys still returns lexicographic order.
class InMemoryKvDatabase : public KvDatabase {
 public:
  InMemoryKvDatabase() = default;

  Status Put(std::string_view key, std::vector<uint8_t> value) override;
  Result<std::vector<uint8_t>> Get(std::string_view key) override;
  Result<VersionedValue> GetVersioned(std::string_view key) override;
  // Leaves the value empty on a version match.
  Result<VersionedValue> GetVersionedIfChanged(std::string_view key,
                                               uint64_t known_version) override;
  Status CompareAndSwap(std::string_view key, uint64_t expected_version,
                        std::vector<uint8_t> value) override;
  Status Delete(std::string_view key) override;
  Result<int64_t> Increment(std::string_view key) override;
  std::vector<std::string> ListKeys(std::string_view prefix) const override;
  KvAccounting accounting() const override;

 private:
  struct alignas(kCacheLineBytes) Stripe {
    mutable std::mutex mutex;
    std::unordered_map<std::string, VersionedValue, TransparentStringHash,
                       std::equal_to<>>
        entries;
  };

  std::array<Stripe, kStoreStripes> stripes_;
  std::atomic<uint64_t> reads_{0};
  std::atomic<uint64_t> writes_{0};
  std::atomic<uint64_t> cas_attempts_{0};
  std::atomic<uint64_t> cas_conflicts_{0};
};

}  // namespace pronghorn

#endif  // PRONGHORN_SRC_STORE_KV_DATABASE_H_
