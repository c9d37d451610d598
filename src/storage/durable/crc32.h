// CRC-32 (IEEE 802.3 polynomial, the zlib/gzip checksum) for the
// durable storage formats. Every length-prefixed WAL record and
// snapshot segment carries a CRC over its payload so recovery can
// tell a torn tail from silent corruption. Computed 16 input bytes per
// step (slicing-by-16); the values equal the classic byte-at-a-time
// table's, so files written by either verify under the other.
#ifndef MOSAIC_STORAGE_DURABLE_CRC32_H_
#define MOSAIC_STORAGE_DURABLE_CRC32_H_

#include <cstddef>
#include <cstdint>

namespace mosaic {
namespace durable {

/// CRC of `data[0..n)`. Pass a previous CRC as `seed` to checksum a
/// buffer in pieces: Crc32(b, nb, Crc32(a, na)) == Crc32(a+b).
uint32_t Crc32(const void* data, size_t n, uint32_t seed = 0);

}  // namespace durable
}  // namespace mosaic

#endif  // MOSAIC_STORAGE_DURABLE_CRC32_H_
