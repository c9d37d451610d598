#include "storage/durable/crc32.h"

#include <array>

namespace mosaic {
namespace durable {

namespace {

// Slicing-by-16 (Kounavis & Berry, ISCC 2005): table k maps a byte to
// its CRC contribution after k more zero bytes have been shifted
// through, so 16 input bytes fold into the CRC with 16 independent
// lookups instead of 16 dependent ones.
using CrcTables = std::array<std::array<uint32_t, 256>, 16>;

// Reflected tables for polynomial 0xEDB88320, built once at startup.
CrcTables BuildTables() {
  CrcTables t{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : (c >> 1);
    }
    t[0][i] = c;
  }
  for (size_t k = 1; k < t.size(); ++k) {
    for (size_t i = 0; i < 256; ++i) {
      t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFFu];
    }
  }
  return t;
}

// Little-endian load, byte by byte: no alignment or endianness
// assumptions about the buffer (compilers fuse it into one load).
uint32_t LoadLe32(const uint8_t* p) {
  return static_cast<uint32_t>(p[0]) | static_cast<uint32_t>(p[1]) << 8 |
         static_cast<uint32_t>(p[2]) << 16 | static_cast<uint32_t>(p[3]) << 24;
}

}  // namespace

uint32_t Crc32(const void* data, size_t n, uint32_t seed) {
  static const CrcTables kT = BuildTables();
  const auto* p = static_cast<const uint8_t*>(data);
  uint32_t c = seed ^ 0xFFFFFFFFu;
  for (; n >= 16; p += 16, n -= 16) {
    const uint32_t w0 = LoadLe32(p) ^ c;
    const uint32_t w1 = LoadLe32(p + 4);
    const uint32_t w2 = LoadLe32(p + 8);
    const uint32_t w3 = LoadLe32(p + 12);
    c = kT[15][w0 & 0xFFu] ^ kT[14][(w0 >> 8) & 0xFFu] ^
        kT[13][(w0 >> 16) & 0xFFu] ^ kT[12][w0 >> 24] ^
        kT[11][w1 & 0xFFu] ^ kT[10][(w1 >> 8) & 0xFFu] ^
        kT[9][(w1 >> 16) & 0xFFu] ^ kT[8][w1 >> 24] ^
        kT[7][w2 & 0xFFu] ^ kT[6][(w2 >> 8) & 0xFFu] ^
        kT[5][(w2 >> 16) & 0xFFu] ^ kT[4][w2 >> 24] ^
        kT[3][w3 & 0xFFu] ^ kT[2][(w3 >> 8) & 0xFFu] ^
        kT[1][(w3 >> 16) & 0xFFu] ^ kT[0][w3 >> 24];
  }
  for (; n > 0; ++p, --n) {
    c = kT[0][(c ^ *p) & 0xFFu] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFu;
}

}  // namespace durable
}  // namespace mosaic
