#ifndef FIELDDB_STORAGE_CRC32C_H_
#define FIELDDB_STORAGE_CRC32C_H_

#include <cstddef>
#include <cstdint>

namespace fielddb {

/// CRC-32C (Castagnoli polynomial 0x1EDC6F41, reflected), the checksum
/// used by iSCSI, ext4 and most storage engines. On x86-64 CPUs with
/// SSE4.2 it runs on the `crc32` instruction (8 bytes per step); anywhere
/// else it falls back to Crc32cPortable. The choice is made once, by a
/// runtime CPUID check — there is no build flag — and both paths return
/// bit-identical values, so checksums written by either verify under the
/// other.
uint32_t Crc32c(const void* data, size_t n);

/// Extends a running CRC with more bytes (crc is the value returned by a
/// previous Crc32c/Crc32cExtend call).
uint32_t Crc32cExtend(uint32_t crc, const void* data, size_t n);

/// The table-driven, one-byte-at-a-time reference with Crc32cExtend's
/// contract: the only path off x86-64 or without SSE4.2, and the oracle
/// the differential test checks the hardware path against.
uint32_t Crc32cPortable(uint32_t crc, const void* data, size_t n);

/// Name of the implementation Crc32cExtend dispatches to: "sse4.2" or
/// "portable".
const char* Crc32cImplName();

/// Masked CRC in the style of LevelDB/RocksDB: storing the raw CRC of
/// data that itself embeds CRCs is error-prone (a zeroed page has the
/// CRC of zeros), so persisted checksums are masked with a rotation and
/// an additive constant.
inline uint32_t MaskCrc(uint32_t crc) {
  return ((crc >> 15) | (crc << 17)) + 0xa282ead8ul;
}
inline uint32_t UnmaskCrc(uint32_t masked) {
  const uint32_t rot = masked - 0xa282ead8ul;
  return (rot >> 17) | (rot << 15);
}

}  // namespace fielddb

#endif  // FIELDDB_STORAGE_CRC32C_H_
