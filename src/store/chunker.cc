#include "src/store/chunker.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cstring>

namespace pronghorn {

namespace {

// SplitMix64: seeds the Gear table deterministically at namespace scope so
// chunk boundaries are identical across builds and platforms.
constexpr uint64_t SplitMix64(uint64_t& state) {
  state += 0x9e3779b97f4a7c15ULL;
  uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

constexpr std::array<uint64_t, 256> MakeGearTable() {
  std::array<uint64_t, 256> table{};
  uint64_t state = 0x9747b28c9747b28cULL;
  for (uint64_t& entry : table) {
    entry = SplitMix64(state);
  }
  return table;
}

constexpr std::array<uint64_t, 256> kGearTable = MakeGearTable();

// Largest power-of-two mask below `target`, so the expected CDC chunk size
// tracks the configured average.
uint64_t CdcMask(uint32_t target) {
  uint64_t mask = 1;
  while ((mask << 1) < target) {
    mask <<= 1;
  }
  return mask - 1;
}

// Bytes of Gear hash context scanned before the first possible cut: the 64
// bytes the hash depends on, plus one.
constexpr uint32_t kGearWindow = 65;

uint64_t LoadLe64(const uint8_t* p) {
  uint64_t word = 0;
  std::memcpy(&word, p, sizeof(word));
  if constexpr (std::endian::native == std::endian::big) {
    word = __builtin_bswap64(word);
  }
  return word;
}

// Murmur3's 64-bit finalizer: every input bit reaches every output bit.
uint64_t FinalMix(uint64_t x) {
  x = (x ^ (x >> 33)) * 0xff51afd7ed558ccdULL;
  x = (x ^ (x >> 33)) * 0xc4ceb9fe1a85ec53ULL;
  return x ^ (x >> 33);
}

}  // namespace

ChunkKey HashChunk(std::span<const uint8_t> bytes) {
  // Two independent 64-bit lanes over the same little-endian 8-byte words:
  // a multiply-rotate-multiply lane and an add-rotate-multiply lane, each
  // finished with the Murmur3 finalizer. 128 bits of address space makes
  // accidental collisions irrelevant at simulation scale.
  const uint64_t n = bytes.size();
  uint64_t a = 0x9e3779b97f4a7c15ULL ^ n;
  uint64_t b = 0x2545f4914f6cdd1dULL ^ (n << 1);
  const auto mix = [&a, &b](uint64_t word) {
    a = std::rotl(a ^ (word * 0x87c37b91114253d5ULL), 31) * 0x4cf5ad432745937fULL;
    b = std::rotl(b + (word ^ 0xc4ceb9fe1a85ec53ULL), 27) * 0xff51afd7ed558ccdULL + 1;
  };
  size_t i = 0;
  for (; i + 8 <= bytes.size(); i += 8) {
    mix(LoadLe64(bytes.data() + i));
  }
  if (i < bytes.size()) {
    uint64_t tail = 0;  // The last 1-7 bytes, little-endian.
    for (size_t j = bytes.size(); j > i; --j) {
      tail = (tail << 8) | bytes[j - 1];
    }
    mix(tail);
  }
  return ChunkKey{FinalMix(a), FinalMix(b ^ n)};
}

std::vector<ChunkSpan> SplitChunks(std::span<const uint8_t> bytes,
                                   const ChunkerOptions& options) {
  std::vector<ChunkSpan> chunks;
  if (bytes.empty()) {
    return chunks;
  }
  const auto emit = [&](uint64_t offset, uint64_t size) {
    chunks.push_back(ChunkSpan{offset, static_cast<uint32_t>(size),
                               HashChunk(bytes.subspan(offset, size))});
  };
  const uint64_t total = bytes.size();
  const uint32_t target = std::max<uint32_t>(1, options.chunk_size);
  if (!options.cdc) {
    chunks.reserve(total / target + 1);
    for (uint64_t offset = 0; offset < total; offset += target) {
      emit(offset, std::min<uint64_t>(target, total - offset));
    }
    return chunks;
  }

  const uint32_t min_size = std::max<uint32_t>(1, std::min(options.min_size, target));
  const uint32_t max_size = std::max(options.max_size, target);
  const uint64_t mask = CdcMask(target);
  // The Gear hash shifts one bit per byte, so the hash at a candidate cut
  // (length >= min_size) depends only on the last 64 bytes: the scan can
  // start that far before min_size and find the same boundaries.
  const uint64_t skip = min_size > kGearWindow ? min_size - kGearWindow : 0;
  uint64_t start = 0;
  while (total - start > min_size) {
    const uint64_t limit = std::min<uint64_t>(total, start + max_size);
    uint64_t cut = limit;
    uint64_t hash = 0;
    for (uint64_t i = start + skip; i < limit; ++i) {
      hash = (hash << 1) + kGearTable[bytes[i]];
      if (i + 1 - start >= min_size && (hash & mask) == mask) {
        cut = i + 1;
        break;
      }
    }
    emit(start, cut - start);
    start = cut;
  }
  if (start < total) {
    emit(start, total - start);  // A tail no longer than min_size.
  }
  return chunks;
}

}  // namespace pronghorn
