#include "storage/checksum.h"

#include <array>
#include <cstring>

#if defined(__x86_64__)
#include <nmmintrin.h>
#endif

namespace octo {

namespace {

// Both loops advance the raw (un-finalized) CRC-32C register over `n`
// bytes; Crc32cExtend does the pre/post inversion around them.
using ExtendFn = uint32_t (*)(uint32_t reg, const uint8_t* p, size_t n);

// Table-driven CRC-32C (polynomial 0x1EDC6F41, reflected 0x82F63B78): the
// portable path, and the only one on CPUs without a CRC-32C instruction.
std::array<uint32_t, 256> BuildTable() {
  std::array<uint32_t, 256> table{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t crc = i;
    for (int j = 0; j < 8; ++j) {
      crc = (crc >> 1) ^ ((crc & 1) ? 0x82F63B78u : 0u);
    }
    table[i] = crc;
  }
  return table;
}

uint32_t ExtendTable(uint32_t reg, const uint8_t* p, size_t n) {
  static const std::array<uint32_t, 256> table = BuildTable();
  for (size_t i = 0; i < n; ++i) {
    reg = (reg >> 8) ^ table[(reg ^ p[i]) & 0xFF];
  }
  return reg;
}

#if defined(__x86_64__)
// SSE4.2's crc32 instruction computes the same Castagnoli polynomial,
// eight bytes per instruction. Compiled for SSE4.2 regardless of the
// build flags and only called when the CPU reports the feature.
__attribute__((target("sse4.2"))) uint32_t ExtendSse42(uint32_t reg,
                                                       const uint8_t* p,
                                                       size_t n) {
  uint64_t reg64 = reg;
  for (; n >= 8; p += 8, n -= 8) {
    uint64_t word;
    std::memcpy(&word, p, 8);
    reg64 = _mm_crc32_u64(reg64, word);
  }
  reg = static_cast<uint32_t>(reg64);
  for (; n > 0; ++p, --n) reg = _mm_crc32_u8(reg, *p);
  return reg;
}
#endif

ExtendFn PickExtend() {
#if defined(__x86_64__)
  if (__builtin_cpu_supports("sse4.2")) return ExtendSse42;
#endif
  return ExtendTable;
}

}  // namespace

uint32_t Crc32c(const void* data, size_t n) { return Crc32cExtend(0, data, n); }

uint32_t Crc32cExtend(uint32_t crc, const void* data, size_t n) {
  static const ExtendFn extend = PickExtend();
  // Un-finalize the previous digest, run the remaining bytes through the
  // same register, and re-finalize. Crc32c is the extension of the empty
  // digest (0).
  return extend(crc ^ 0xFFFFFFFFu, static_cast<const uint8_t*>(data), n) ^
         0xFFFFFFFFu;
}

}  // namespace octo
