// Lock striping and serial-exact atomic accounting for the in-memory stores.
//
// The in-memory object store and database originally guarded one std::map and
// one accounting struct with a single mutex. That is perfectly correct, but
// when a store is shared across threads (service mode shards, concurrency
// stress tests) every operation — including the string hashing and node
// allocation inside the map — serializes on that one lock, and the lock word
// itself ping-pongs between cores. The stores now hash each key to one of
// kStoreStripes independently-locked unordered maps, so operations on
// different keys proceed in parallel and touch disjoint cache lines (each
// stripe is cache-line aligned).
//
// Accounting moves to plain atomics with compare-exchange maxima for the
// peak fields. This is SERIAL-EXACT: any single-threaded operation sequence
// produces an accounting snapshot bit-identical to the old mutex-guarded
// struct, which is what the digest-covered simulations rely on (every
// digest-covered sim drives a store from one thread at a time; see
// tests/fleet_determinism_test.cc). Under true concurrency the counters are
// still exact totals; only the peaks depend on interleaving, exactly as they
// did under the old mutex.

#ifndef PRONGHORN_SRC_STORE_STRIPING_H_
#define PRONGHORN_SRC_STORE_STRIPING_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <string_view>

#include "src/common/thread_pool.h"  // kCacheLineBytes

namespace pronghorn {

// Stripe count for the in-memory stores. Power of two so the stripe index is
// a mask, sized a small multiple of plausible shard counts so two concurrent
// operations rarely collide on a stripe (16 stripes, 4-8 service shards).
inline constexpr size_t kStoreStripes = 16;

// Transparent hash so unordered_map<std::string, ...> lookups take a
// string_view without materializing a temporary std::string (C++20
// heterogeneous lookup; pair with std::equal_to<>).
struct TransparentStringHash {
  using is_transparent = void;
  size_t operator()(std::string_view s) const noexcept {
    return std::hash<std::string_view>{}(s);
  }
};

// Which stripe a key lives on. Derives the index from the same hash the
// stripe's own map uses, so hashing happens once per operation in practice
// (the map re-hashes internally, but both calls hit the same short string).
inline size_t StripeIndexForKey(std::string_view key) {
  return TransparentStringHash{}(key) & (kStoreStripes - 1);
}

// Lock-free running maximum: the atomic analogue of
// `peak = std::max(peak, value)`. Relaxed ordering suffices — peaks are
// accounting data read only by accounting() snapshots, never used for
// synchronization.
inline void AtomicStoreMax(std::atomic<uint64_t>& target, uint64_t value) {
  uint64_t current = target.load(std::memory_order_relaxed);
  while (current < value &&
         !target.compare_exchange_weak(current, value, std::memory_order_relaxed)) {
  }
}

// Adds a possibly-negative delta (two's-complement wraparound on uint64_t)
// and returns the post-add value, the atomic analogue of `total += delta;
// use(total)`.
inline uint64_t AtomicAddFetch(std::atomic<uint64_t>& target, uint64_t delta) {
  return target.fetch_add(delta, std::memory_order_relaxed) + delta;
}

}  // namespace pronghorn

#endif  // PRONGHORN_SRC_STORE_STRIPING_H_
