// CRC-32 (IEEE 802.3, bit-reflected polynomial), the one checksum
// behind every integrity check in the repo: binary event-stream pages
// (.qtz) and checkpoint chunks (.qsnap).
//
// crc32() dispatches once per process: on x86-64 CPUs with PCLMULQDQ it
// folds 64 bytes per step with carry-less multiplies and finishes with
// a Barrett reduction; everywhere else (and for inputs under 64 bytes)
// it runs the portable slicing-by-8 table loop.  Both paths compute the
// same function, so the on-disk formats do not depend on the host.
#pragma once

#include <cstddef>
#include <cstdint>

namespace quartz {

/// CRC-32 of `bytes` bytes at `data`.  `seed` chains calls:
/// crc32(b, nb, crc32(a, na)) == crc32(a‖b, na + nb).
std::uint32_t crc32(const void* data, std::size_t bytes, std::uint32_t seed = 0);

/// The portable slicing-by-8 path, callable directly so tests and
/// benchmarks cover it on hosts where crc32() takes the folding kernel.
std::uint32_t crc32_portable(const void* data, std::size_t bytes, std::uint32_t seed = 0);

/// The kernel crc32() dispatches to on this host: "pclmul" or "portable".
const char* crc32_kernel();

}  // namespace quartz
