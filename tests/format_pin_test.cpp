// Pins the on-disk integrity fields of both file formats to the
// textbook CRC-32: every .qtz page-header `crc` and every .qsnap chunk
// `crc` must equal the bit-at-a-time reference over its payload, and
// the decoders must still accept the byte streams.  Whatever kernel
// quartz::crc32 dispatches to, the files it writes stay the ones the
// reference defines.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <sstream>
#include <string>
#include <vector>

#include "serve/serve_loop.hpp"
#include "sim/experiments.hpp"
#include "snapshot/io.hpp"
#include "telemetry/binary_stream.hpp"
#include "telemetry/decode.hpp"

namespace quartz {
namespace {

std::uint32_t crc32_bitwise(const void* data, std::size_t bytes) {
  const auto* p = static_cast<const unsigned char*>(data);
  std::uint32_t c = 0xFFFFFFFFu;
  for (std::size_t i = 0; i < bytes; ++i) {
    c ^= p[i];
    for (int k = 0; k < 8; ++k) c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
  }
  return ~c;
}

std::uint32_t load_u32(const std::byte* p) {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= std::to_integer<std::uint32_t>(p[i]) << (8 * i);
  return v;
}

std::uint64_t load_u64(const std::byte* p) {
  return load_u32(p) | static_cast<std::uint64_t>(load_u32(p + 4)) << 32;
}

/// A small deterministic capture: 2 ms of localized scatter on
/// quartz-in-jellyfish, streamed into an in-memory StreamFile.
std::string capture(bool background) {
  std::ostringstream file(std::ios::out | std::ios::binary);
  {
    telemetry::StreamFile sink(file);
    sim::TaskExperimentParams params;
    params.pattern = sim::Pattern::kScatter;
    params.tasks = 3;
    params.localized = true;
    params.duration = milliseconds(2);
    params.telemetry.stream = &sink;
    params.telemetry.stream_background = background;
    sim::run_task_experiment(sim::Fabric::kQuartzInJellyfish, {}, params);
  }
  return file.str();
}

TEST(FormatPin, QtzPageCrcsAreTheReferenceCrcAndDecode) {
  for (const bool background : {false, true}) {
    SCOPED_TRACE(background ? "drainer seals" : "inline seals");
    const std::string bytes = capture(background);
    ASSERT_GE(bytes.size(), sizeof(telemetry::StreamFileHeader));
    std::size_t at = sizeof(telemetry::StreamFileHeader);
    std::uint64_t pages = 0;
    std::uint64_t full_pages = 0;
    while (at < bytes.size()) {
      ASSERT_LE(at + sizeof(telemetry::PageHeader), bytes.size());
      telemetry::PageHeader header;
      std::memcpy(&header, bytes.data() + at, sizeof(header));
      ASSERT_EQ(header.magic, telemetry::kPageMagic) << "page " << pages;
      at += sizeof(header);
      ASSERT_LE(at + header.payload_bytes, bytes.size());
      EXPECT_EQ(header.crc, crc32_bitwise(bytes.data() + at, header.payload_bytes))
          << "page " << pages;
      if (header.payload_bytes + 64 > telemetry::kPagePayloadBytes) ++full_pages;
      at += (header.payload_bytes + std::size_t{7}) & ~std::size_t{7};
      ++pages;
    }
    EXPECT_EQ(at, bytes.size());
    EXPECT_GE(full_pages, 2u) << "the capture must seal full 64 KiB pages";

    std::istringstream in(bytes, std::ios::in | std::ios::binary);
    const telemetry::DecodeStats stats = telemetry::decode_stream(in, {});
    EXPECT_TRUE(stats.gaps.empty());
    EXPECT_EQ(stats.pages, pages);
    EXPECT_GT(stats.records, 0u);
  }
}

serve::ServeConfig serve_config() {
  serve::ServeConfig config;
  config.ring.switches = 6;
  config.ring.hosts_per_switch = 2;
  config.duration = milliseconds(8);
  config.drain = milliseconds(4);
  config.arrivals_per_sec = 300'000.0;
  config.shifts = {{milliseconds(3), 0, 3, 0.8}};
  config.seed = 42;
  return config;
}

TEST(FormatPin, QsnapChunkCrcsAreTheReferenceCrcAndRestore) {
  serve::ServeLoop loop(serve_config());
  loop.start();
  loop.run_to(milliseconds(5));
  snapshot::Writer writer;
  loop.save_snapshot(writer);
  const std::vector<std::byte> bytes = snapshot::file_bytes(writer, 7);

  // file header (24 B), then id:u32 crc:u32 payload_bytes:u64 payload
  // pad-to-8, ending on the "END " chunk.
  std::size_t at = 24;
  std::size_t chunks = 0;
  bool saw_end = false;
  bool saw_large = false;
  while (!saw_end) {
    ASSERT_LE(at + 16, bytes.size());
    const std::uint32_t id = load_u32(bytes.data() + at);
    const std::uint32_t crc = load_u32(bytes.data() + at + 4);
    const std::uint64_t payload = load_u64(bytes.data() + at + 8);
    at += 16;
    ASSERT_LE(at + payload, bytes.size());
    EXPECT_EQ(crc, crc32_bitwise(bytes.data() + at, payload)) << "chunk " << chunks;
    saw_large = saw_large || payload >= 64;
    saw_end = id == snapshot::kEndChunk;
    at = (at + payload + 7) & ~std::size_t{7};
    ++chunks;
  }
  EXPECT_EQ(at, bytes.size());
  EXPECT_GE(chunks, 2u);
  EXPECT_TRUE(saw_large) << "no chunk reaches the folding kernel's 64-byte threshold";

  std::string error;
  auto reader = snapshot::Reader::from_bytes(bytes, &error);
  ASSERT_TRUE(reader.has_value()) << error;
  EXPECT_EQ(reader->sequence(), 7u);
  serve::ServeLoop restored(serve_config());
  restored.restore_snapshot(*reader);
  EXPECT_TRUE(restored.finish().conservation_ok);
}

}  // namespace
}  // namespace quartz
