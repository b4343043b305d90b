// Checksums used by the storage stack.
//
// crc32c (Castagnoli) guards VTP segments, UDP datagrams, filesystem journal
// records and block-store payloads. Its values are identical on any host.
// crc32c() runs the SSE4.2 crc32 instruction where the CPU has it, chosen by
// a run-time CPU check; crc32c_reference() is the portable table-driven
// loop, the path everywhere else, and the reference the VC
// base/crc32c_matches_reference pins the hardware path equal to.
#ifndef VNROS_SRC_BASE_CRC_H_
#define VNROS_SRC_BASE_CRC_H_

#include <span>

#include "src/base/types.h"

namespace vnros {

// CRC-32C (polynomial 0x1EDC6F41, reflected). `seed` allows incremental use:
// crc32c(b, crc32c(a)) == crc32c(a ++ b).
u32 crc32c(std::span<const u8> data, u32 seed = 0);

// The bytewise table loop crc32c() must equal for every input; same seed
// convention.
u32 crc32c_reference(std::span<const u8> data, u32 seed = 0);

// True when crc32c() runs the SSE4.2 instruction rather than the table loop.
bool crc32c_uses_hardware();

}  // namespace vnros

#endif  // VNROS_SRC_BASE_CRC_H_
