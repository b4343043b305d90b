#include "src/base/crc.h"

#include <array>
#include <cstring>

#if defined(__x86_64__)
#include <nmmintrin.h>
#endif

namespace vnros {
namespace {

constexpr std::array<u32, 256> make_crc32c_table() {
  std::array<u32, 256> table{};
  for (u32 i = 0; i < 256; ++i) {
    u32 crc = i;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc >> 1) ^ ((crc & 1) != 0 ? 0x82F63B78u : 0u);
    }
    table[i] = crc;
  }
  return table;
}

constexpr auto kCrc32cTable = make_crc32c_table();

#if defined(__x86_64__)
// The crc32 instruction computes the same reflected CRC-32C as the table,
// without the pre- and post-inversion, eight bytes per step. Only called
// once the CPU check has passed; the rest of the module is built for the
// baseline ISA.
__attribute__((target("sse4.2"))) u32 crc32c_sse42(std::span<const u8> data, u32 seed) {
  const u8* p = data.data();
  usize n = data.size();
  u64 crc = ~seed;
  for (; n >= sizeof(u64); p += sizeof(u64), n -= sizeof(u64)) {
    u64 word;
    std::memcpy(&word, p, sizeof(word));
    crc = _mm_crc32_u64(crc, word);
  }
  u32 crc32 = static_cast<u32>(crc);
  for (; n > 0; ++p, --n) {
    crc32 = _mm_crc32_u8(crc32, *p);
  }
  return ~crc32;
}
#endif

}  // namespace

u32 crc32c_reference(std::span<const u8> data, u32 seed) {
  u32 crc = ~seed;
  for (u8 byte : data) {
    crc = (crc >> 8) ^ kCrc32cTable[(crc ^ byte) & 0xFF];
  }
  return ~crc;
}

bool crc32c_uses_hardware() {
#if defined(__x86_64__)
  // A function-local static, so calls made during static initialisation
  // see an initialised CPU model too.
  static const bool sse42 = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("sse4.2") != 0;
  }();
  return sse42;
#else
  return false;
#endif
}

u32 crc32c(std::span<const u8> data, u32 seed) {
#if defined(__x86_64__)
  if (crc32c_uses_hardware()) {
    return crc32c_sse42(data, seed);
  }
#endif
  return crc32c_reference(data, seed);
}

}  // namespace vnros
