#include "src/common/crc32.h"

#include <array>

namespace pronghorn {

namespace {

using Crc32Tables = std::array<std::array<uint32_t, 256>, 8>;

// tables[0] is the classic bytewise table of the reflected polynomial;
// tables[k][b] is the CRC contribution of byte b followed by k zero bytes,
// which lets the main loop fold eight input bytes per step (slice-by-8).
constexpr Crc32Tables BuildTables() {
  Crc32Tables tables{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t value = i;
    for (int bit = 0; bit < 8; ++bit) {
      value = (value & 1) ? (0xedb88320u ^ (value >> 1)) : (value >> 1);
    }
    tables[0][i] = value;
  }
  for (size_t k = 1; k < 8; ++k) {
    for (uint32_t i = 0; i < 256; ++i) {
      const uint32_t prev = tables[k - 1][i];
      tables[k][i] = (prev >> 8) ^ tables[0][prev & 0xff];
    }
  }
  return tables;
}

constexpr Crc32Tables kTables = BuildTables();

// Little-endian load assembled from bytes: alignment- and host-independent
// (compilers fuse it into one load on little-endian targets).
inline uint32_t LoadLe32(const uint8_t* p) {
  return static_cast<uint32_t>(p[0]) | static_cast<uint32_t>(p[1]) << 8 |
         static_cast<uint32_t>(p[2]) << 16 | static_cast<uint32_t>(p[3]) << 24;
}

}  // namespace

uint32_t Crc32Update(uint32_t state, std::span<const uint8_t> data) {
  const uint8_t* p = data.data();
  size_t n = data.size();
  for (; n >= 8; p += 8, n -= 8) {
    const uint32_t lo = state ^ LoadLe32(p);
    const uint32_t hi = LoadLe32(p + 4);
    state = kTables[7][lo & 0xff] ^ kTables[6][(lo >> 8) & 0xff] ^
            kTables[5][(lo >> 16) & 0xff] ^ kTables[4][lo >> 24] ^
            kTables[3][hi & 0xff] ^ kTables[2][(hi >> 8) & 0xff] ^
            kTables[1][(hi >> 16) & 0xff] ^ kTables[0][hi >> 24];
  }
  for (; n > 0; ++p, --n) {
    state = kTables[0][(state ^ *p) & 0xff] ^ (state >> 8);
  }
  return state;
}

uint32_t Crc32(std::span<const uint8_t> data) {
  return Crc32Finalize(Crc32Update(kCrc32Init, data));
}

namespace {

// Multiplies the GF(2) 32x32 matrix `mat` (one column per bit) by the bit
// vector `vec`.
uint32_t Gf2MatrixTimes(const uint32_t* mat, uint32_t vec) {
  uint32_t sum = 0;
  while (vec != 0) {
    if ((vec & 1u) != 0) {
      sum ^= *mat;
    }
    vec >>= 1;
    ++mat;
  }
  return sum;
}

void Gf2MatrixSquare(uint32_t* square, const uint32_t* mat) {
  for (int n = 0; n < 32; ++n) {
    square[n] = Gf2MatrixTimes(mat, mat[n]);
  }
}

}  // namespace

uint32_t Crc32Combine(uint32_t crc_a, uint32_t crc_b, uint64_t len_b) {
  if (len_b == 0) {
    return crc_a;
  }
  // odd = the operator for one zero bit appended (the reflected polynomial),
  // even = its square; repeated squaring walks the bits of len_b, applying
  // the "append 8*len_b zero bits" operator to crc_a.
  uint32_t even[32];
  uint32_t odd[32];
  odd[0] = 0xedb88320u;
  uint32_t row = 1;
  for (int n = 1; n < 32; ++n) {
    odd[n] = row;
    row <<= 1;
  }
  Gf2MatrixSquare(even, odd);  // Two zero bits.
  Gf2MatrixSquare(odd, even);  // Four zero bits.
  uint64_t len = len_b;
  do {
    Gf2MatrixSquare(even, odd);  // Doubles the zero-bit count each round.
    if ((len & 1u) != 0) {
      crc_a = Gf2MatrixTimes(even, crc_a);
    }
    len >>= 1;
    if (len == 0) {
      break;
    }
    Gf2MatrixSquare(odd, even);
    if ((len & 1u) != 0) {
      crc_a = Gf2MatrixTimes(odd, crc_a);
    }
    len >>= 1;
  } while (len != 0);
  return crc_a ^ crc_b;
}

}  // namespace pronghorn
