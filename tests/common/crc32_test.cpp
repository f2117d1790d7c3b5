#include "common/crc32.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include "telemetry/binary_stream.hpp"

namespace quartz {
namespace {

// The textbook bit-at-a-time CRC-32 (reflected 0xEDB88320): the
// definition both kernels are checked against.
std::uint32_t crc32_bitwise(const unsigned char* p, std::size_t bytes, std::uint32_t seed = 0) {
  std::uint32_t c = ~seed;
  for (std::size_t i = 0; i < bytes; ++i) {
    c ^= p[i];
    for (int k = 0; k < 8; ++k) c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
  }
  return ~c;
}

using Crc32Fn = std::uint32_t (*)(const void*, std::size_t, std::uint32_t);

struct Kernel {
  const char* name;
  Crc32Fn fn;
};

// The dispatched entry point (the folding kernel on PCLMUL hosts for
// inputs >= 64 bytes) and the portable fallback called directly, so
// both are covered whichever one this host dispatches to.
const Kernel kKernels[] = {{"dispatched", &crc32}, {"portable", &crc32_portable}};

std::vector<unsigned char> random_bytes(std::size_t n, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::vector<unsigned char> out(n);
  for (auto& b : out) b = static_cast<unsigned char>(rng());
  return out;
}

TEST(Crc32Kernels, CheckValueAndEmptyInput) {
  const char kat[] = "123456789";
  for (const Kernel& k : kKernels) {
    EXPECT_EQ(k.fn(kat, 9, 0), 0xCBF43926u) << k.name;  // IEEE 802.3 check value
    EXPECT_EQ(k.fn(nullptr, 0, 0), 0u) << k.name;
  }
  EXPECT_EQ(crc32(nullptr, 0), 0u);
}

TEST(Crc32Kernels, MatchBitwiseReferenceAtEveryLengthUpTo1024) {
  const std::vector<unsigned char> buf = random_bytes(1024, 1);
  for (std::size_t len = 0; len <= buf.size(); ++len) {
    const std::uint32_t want = crc32_bitwise(buf.data(), len);
    for (const Kernel& k : kKernels) {
      ASSERT_EQ(k.fn(buf.data(), len, 0), want) << k.name << " len " << len;
    }
  }
}

TEST(Crc32Kernels, MatchBitwiseReferenceOnRandomLengthsUpToTwoPages) {
  constexpr std::size_t kMax = 2 * telemetry::kPagePayloadBytes;
  const std::vector<unsigned char> buf = random_bytes(kMax, 2);
  std::mt19937_64 rng(3);
  for (int i = 0; i < 48; ++i) {
    const std::size_t len = rng() % (kMax + 1);
    const std::uint32_t want = crc32_bitwise(buf.data(), len);
    for (const Kernel& k : kKernels) {
      ASSERT_EQ(k.fn(buf.data(), len, 0), want) << k.name << " len " << len;
    }
  }
  const std::uint32_t full = crc32_bitwise(buf.data(), kMax);
  for (const Kernel& k : kKernels) EXPECT_EQ(k.fn(buf.data(), kMax, 0), full) << k.name;
}

TEST(Crc32Kernels, MatchBitwiseReferenceAtEveryStartMisalignment) {
  // The kernels load unaligned; every start offset within a 16-byte
  // lane must give the same answer, for lengths around each threshold
  // (8-byte slices, 16-byte folds, the 64-byte fold block).
  const std::vector<unsigned char> buf = random_bytes(4096 + 16, 4);
  const std::size_t lengths[] = {0, 1, 7, 8, 15, 16, 17, 63, 64, 65, 79, 80,
                                 127, 128, 129, 191, 255, 1000, 4096};
  for (std::size_t offset = 0; offset < 16; ++offset) {
    for (const std::size_t len : lengths) {
      const unsigned char* p = buf.data() + offset;
      const std::uint32_t want = crc32_bitwise(p, len);
      for (const Kernel& k : kKernels) {
        ASSERT_EQ(k.fn(p, len, 0), want) << k.name << " offset " << offset << " len " << len;
      }
    }
  }
}

TEST(Crc32Kernels, MatchBitwiseReferenceUnderRandomSeeds) {
  const std::vector<unsigned char> buf = random_bytes(3000, 5);
  std::mt19937_64 rng(6);
  for (int i = 0; i < 400; ++i) {
    const auto seed = static_cast<std::uint32_t>(rng());
    const std::size_t offset = rng() % 16;
    const std::size_t len = rng() % (buf.size() - offset + 1);
    const std::uint32_t want = crc32_bitwise(buf.data() + offset, len, seed);
    for (const Kernel& k : kKernels) {
      ASSERT_EQ(k.fn(buf.data() + offset, len, seed), want)
          << k.name << " seed " << seed << " offset " << offset << " len " << len;
    }
  }
}

TEST(Crc32Kernels, DispatchedEqualsPortableOnRandomCases) {
  // The portable path is pinned to the reference above; this sweeps
  // many more (offset, length, seed) cases at table speed.
  const std::vector<unsigned char> buf = random_bytes(8192 + 16, 7);
  std::mt19937_64 rng(8);
  for (int i = 0; i < 20000; ++i) {
    const auto seed = static_cast<std::uint32_t>(rng());
    const std::size_t offset = rng() % 16;
    const std::size_t len = rng() % (8192 + 1);
    ASSERT_EQ(crc32(buf.data() + offset, len, seed),
              crc32_portable(buf.data() + offset, len, seed))
        << "seed " << seed << " offset " << offset << " len " << len;
  }
}

TEST(Crc32Kernels, SeedChainsAcrossEverySplit) {
  // crc32(b, crc32(a)) == crc32(a‖b), with both halves crossing the
  // 64-byte threshold somewhere in the sweep.
  const std::vector<unsigned char> buf = random_bytes(300, 9);
  const std::uint32_t whole = crc32_bitwise(buf.data(), buf.size());
  for (const Kernel& k : kKernels) {
    for (std::size_t split = 0; split <= buf.size(); ++split) {
      const std::uint32_t head = k.fn(buf.data(), split, 0);
      ASSERT_EQ(k.fn(buf.data() + split, buf.size() - split, head), whole)
          << k.name << " split " << split;
    }
  }
}

TEST(Crc32Kernels, ReportsTheDispatchedKernel) {
  const std::string kernel = crc32_kernel();
  EXPECT_TRUE(kernel == "pclmul" || kernel == "portable") << kernel;
#if !defined(__x86_64__)
  EXPECT_EQ(kernel, "portable");
#endif
}

}  // namespace
}  // namespace quartz
