// Content-addressed chunking for snapshot images.
//
// Snapshots are split into chunks keyed by a content digest so identical
// regions deduplicate across pool snapshots of one function (and across
// functions). Two splitters are provided:
//
//   - Fixed-size: cut every `chunk_size` bytes. Cheapest, and ideal when
//     adjacent snapshots differ by in-place mutation (our engines re-encode
//     the same layout, so most offsets line up).
//   - Content-defined (CDC, Gear rolling hash): cut where the rolling hash
//     matches a mask, bounded by [min, max]. Survives insertions/deletions
//     that would shift every fixed boundary, at slightly higher CPU cost —
//     this is the delta-encoding mechanism between adjacent pool snapshots.
//
// Chunk identity is a 128-bit digest: two independently mixed 64-bit lanes
// over the bytes, read eight at a time, so accidental collisions are out of
// reach for any simulation-scale corpus; equality of keys is treated as
// equality of content. Keys live only in memory (manifests are never
// persisted across processes), so the digest may change between versions.

#ifndef PRONGHORN_SRC_STORE_CHUNKER_H_
#define PRONGHORN_SRC_STORE_CHUNKER_H_

#include <cstdint>
#include <span>
#include <vector>

namespace pronghorn {

// Content address of one chunk. Totally ordered so chunk indexes can live in
// ordered containers with deterministic iteration.
struct ChunkKey {
  uint64_t hi = 0;
  uint64_t lo = 0;

  friend bool operator==(const ChunkKey&, const ChunkKey&) = default;
  friend bool operator<(const ChunkKey& a, const ChunkKey& b) {
    return a.hi != b.hi ? a.hi < b.hi : a.lo < b.lo;
  }
};

// One chunk of a split payload: a [offset, offset+size) slice plus its
// content address.
struct ChunkSpan {
  uint64_t offset = 0;
  uint32_t size = 0;
  ChunkKey key;
};

// Content address of `bytes`. Pure function of the byte sequence.
ChunkKey HashChunk(std::span<const uint8_t> bytes);

// Bounds for both splitters. `chunk_size` is the fixed-size cut and the CDC
// target average; CDC additionally enforces [min_size, max_size].
struct ChunkerOptions {
  uint32_t chunk_size = 4096;
  uint32_t min_size = 1024;
  uint32_t max_size = 16384;
  bool cdc = false;  // Content-defined boundaries instead of fixed ones.
};

// Splits `bytes` per `options` and content-addresses every chunk. The spans
// tile the input exactly: concatenating them in order reproduces `bytes`.
// An empty input yields no chunks.
std::vector<ChunkSpan> SplitChunks(std::span<const uint8_t> bytes,
                                   const ChunkerOptions& options);

}  // namespace pronghorn

#endif  // PRONGHORN_SRC_STORE_CHUNKER_H_
