#include "storage/crc32c.h"

#include <array>
#include <cstring>

#if defined(__x86_64__)
#include <nmmintrin.h>
#endif

namespace fielddb {

namespace {

// Reflected CRC-32C lookup table, generated at static-init time.
std::array<uint32_t, 256> MakeTable() {
  constexpr uint32_t kPoly = 0x82f63b78u;  // reflected 0x1EDC6F41
  std::array<uint32_t, 256> table{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t crc = i;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc >> 1) ^ ((crc & 1) ? kPoly : 0);
    }
    table[i] = crc;
  }
  return table;
}

const std::array<uint32_t, 256>& Table() {
  static const std::array<uint32_t, 256> table = MakeTable();
  return table;
}

#if defined(__x86_64__)
// SSE4.2 `crc32` computes exactly this polynomial with the same bit
// order, so the result is bit-identical to the table loop. Only this
// function is compiled for SSE4.2; it is reached only after the CPUID
// check in Dispatch. Slots and frames are unaligned, hence the memcpy
// word loads.
__attribute__((target("sse4.2"))) uint32_t Crc32cSse42(uint32_t crc,
                                                       const void* data,
                                                       size_t n) {
  const auto* p = static_cast<const uint8_t*>(data);
  uint64_t c = ~crc;
  for (; n >= 8; n -= 8, p += 8) {
    uint64_t word;
    std::memcpy(&word, p, sizeof(word));
    c = _mm_crc32_u64(c, word);
  }
  auto c32 = static_cast<uint32_t>(c);
  for (; n > 0; --n, ++p) c32 = _mm_crc32_u8(c32, *p);
  return ~c32;
}
#endif

struct Impl {
  uint32_t (*fn)(uint32_t, const void*, size_t);
  const char* name;
};

const Impl& Dispatch() {
  static const Impl impl = [] {
#if defined(__x86_64__)
    if (__builtin_cpu_supports("sse4.2")) return Impl{&Crc32cSse42, "sse4.2"};
#endif
    return Impl{&Crc32cPortable, "portable"};
  }();
  return impl;
}

}  // namespace

uint32_t Crc32cPortable(uint32_t crc, const void* data, size_t n) {
  const auto* p = static_cast<const uint8_t*>(data);
  const auto& table = Table();
  crc = ~crc;
  for (size_t i = 0; i < n; ++i) {
    crc = (crc >> 8) ^ table[(crc ^ p[i]) & 0xffu];
  }
  return ~crc;
}

uint32_t Crc32cExtend(uint32_t crc, const void* data, size_t n) {
  return Dispatch().fn(crc, data, n);
}

uint32_t Crc32c(const void* data, size_t n) {
  return Crc32cExtend(0, data, n);
}

const char* Crc32cImplName() { return Dispatch().name; }

}  // namespace fielddb
