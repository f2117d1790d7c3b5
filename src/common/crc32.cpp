#include "common/crc32.hpp"

#include <array>
#include <bit>
#include <cstring>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define QUARTZ_CRC32_PCLMUL 1
#include <cpuid.h>
#include <immintrin.h>
#else
#define QUARTZ_CRC32_PCLMUL 0
#endif

namespace quartz {
namespace {

// Slicing-by-8 tables: t[0] is the classic byte-wise table, t[k]
// advances a byte through k more zero bytes, so the loop folds eight
// bytes per iteration.  Built at compile time.
struct SlicingTable {
  std::array<std::array<std::uint32_t, 256>, 8> t{};
  constexpr SlicingTable() {
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int k = 0; k < 8; ++k) c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      t[0][i] = c;
    }
    for (std::size_t k = 1; k < 8; ++k) {
      for (std::size_t i = 0; i < 256; ++i) {
        const std::uint32_t prev = t[k - 1][i];
        t[k][i] = t[0][prev & 0xFFu] ^ (prev >> 8);
      }
    }
  }
};

constexpr SlicingTable kTable;

/// Advances the raw (pre-inverted) CRC state over `bytes` bytes.
std::uint32_t update_sliced(std::uint32_t c, const unsigned char* p, std::size_t bytes) {
  const auto& t = kTable.t;
  if constexpr (std::endian::native == std::endian::little) {
    while (bytes >= 8) {
      std::uint32_t lo, hi;
      std::memcpy(&lo, p, 4);
      std::memcpy(&hi, p + 4, 4);
      lo ^= c;
      c = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^ t[5][(lo >> 16) & 0xFFu] ^
          t[4][lo >> 24] ^ t[3][hi & 0xFFu] ^ t[2][(hi >> 8) & 0xFFu] ^
          t[1][(hi >> 16) & 0xFFu] ^ t[0][hi >> 24];
      p += 8;
      bytes -= 8;
    }
  }
  for (std::size_t i = 0; i < bytes; ++i) c = t[0][(c ^ p[i]) & 0xFFu] ^ (c >> 8);
  return c;
}

#if QUARTZ_CRC32_PCLMUL

#define QUARTZ_CRC32_TARGET __attribute__((target("pclmul,sse4.1")))

QUARTZ_CRC32_TARGET inline __m128i load(const unsigned char* at) {
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(at));
}

/// lane * x^distance mod P, xored with the data `distance` bits later;
/// k holds the two reflected constants for that distance.
QUARTZ_CRC32_TARGET inline __m128i fold(__m128i lane, __m128i k, __m128i next) {
  const __m128i lo = _mm_clmulepi64_si128(lane, k, 0x00);
  const __m128i hi = _mm_clmulepi64_si128(lane, k, 0x11);
  return _mm_xor_si128(_mm_xor_si128(lo, hi), next);
}

/// Carry-less-multiply folding (Gopal et al., "Fast CRC Computation for
/// Generic Polynomials Using PCLMULQDQ", Intel 2009), bit-reflected
/// domain.  Advances the raw CRC state over `bytes` bytes; needs
/// bytes >= 64 and bytes % 16 == 0.  Four 128-bit lanes fold 64 bytes
/// per step, collapse into one lane, fold 16 bytes per step, then the
/// 128-bit remainder is reduced to 64 and to 32 bits (Barrett).
QUARTZ_CRC32_TARGET std::uint32_t fold_pclmul(std::uint32_t c, const unsigned char* p,
                                              std::size_t bytes) {
  // x^k mod P(x), bit-reflected, for the fold distances 512±32 (k1,k2)
  // and 128±32 (k3,k4) bits, and x^64 mod P(x) (k5).
  const __m128i k1k2 = _mm_set_epi64x(0x1c6e41596, 0x154442bd4);
  const __m128i k3k4 = _mm_set_epi64x(0x0ccaa009e, 0x1751997d0);
  const __m128i k5 = _mm_set_epi64x(0, 0x163cd6124);
  // The reflected polynomial P'(x) (low) and the Barrett constant
  // mu = floor(x^64 / P(x)), reflected (high).
  const __m128i poly_mu = _mm_set_epi64x(0x1f7011641, 0x1db710641);
  const __m128i low32 = _mm_setr_epi32(-1, 0, -1, 0);

  __m128i x0 = _mm_xor_si128(load(p), _mm_cvtsi32_si128(static_cast<int>(c)));
  __m128i x1 = load(p + 16);
  __m128i x2 = load(p + 32);
  __m128i x3 = load(p + 48);
  p += 64;
  bytes -= 64;
  for (; bytes >= 64; p += 64, bytes -= 64) {
    x0 = fold(x0, k1k2, load(p));
    x1 = fold(x1, k1k2, load(p + 16));
    x2 = fold(x2, k1k2, load(p + 32));
    x3 = fold(x3, k1k2, load(p + 48));
  }
  x0 = fold(x0, k3k4, x1);
  x0 = fold(x0, k3k4, x2);
  x0 = fold(x0, k3k4, x3);
  for (; bytes >= 16; p += 16, bytes -= 16) x0 = fold(x0, k3k4, load(p));

  // 128 -> 64 bits.
  x0 = _mm_xor_si128(_mm_srli_si128(x0, 8), _mm_clmulepi64_si128(x0, k3k4, 0x10));
  x0 = _mm_xor_si128(_mm_srli_si128(x0, 4),
                     _mm_clmulepi64_si128(_mm_and_si128(x0, low32), k5, 0x00));
  // 64 -> 32 bits: Barrett reduction.
  __m128i t = _mm_clmulepi64_si128(_mm_and_si128(x0, low32), poly_mu, 0x10);
  t = _mm_clmulepi64_si128(_mm_and_si128(t, low32), poly_mu, 0x00);
  return static_cast<std::uint32_t>(_mm_extract_epi32(_mm_xor_si128(x0, t), 1));
}

#endif  // QUARTZ_CRC32_PCLMUL

/// The one-time dispatch: may crc32() run fold_pclmul on this CPU?
/// Reads CPUID leaf 1 directly: __builtin_cpu_supports would link
/// libgcc's CPU-model table and its start-up constructor into every
/// binary.  Both features use only SSE state, which every x86-64 OS
/// saves, so no OS-support check is needed.
bool use_pclmul() {
#if QUARTZ_CRC32_PCLMUL
  static const bool supported = [] {
    unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
    return __get_cpuid(1, &eax, &ebx, &ecx, &edx) != 0 && (ecx & bit_PCLMUL) != 0 &&
           (ecx & bit_SSE4_1) != 0;
  }();
  return supported;
#else
  return false;
#endif
}

}  // namespace

std::uint32_t crc32(const void* data, std::size_t bytes, std::uint32_t seed) {
  const auto* p = static_cast<const unsigned char*>(data);
  std::uint32_t c = ~seed;
#if QUARTZ_CRC32_PCLMUL
  if (bytes >= 64 && use_pclmul()) {
    const std::size_t folded = bytes & ~std::size_t{15};
    c = fold_pclmul(c, p, folded);
    p += folded;
    bytes -= folded;
  }
#endif
  return ~update_sliced(c, p, bytes);
}

std::uint32_t crc32_portable(const void* data, std::size_t bytes, std::uint32_t seed) {
  return ~update_sliced(~seed, static_cast<const unsigned char*>(data), bytes);
}

const char* crc32_kernel() { return use_pclmul() ? "pclmul" : "portable"; }

}  // namespace quartz
