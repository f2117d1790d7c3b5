// Time, data-size and data-rate units used across the Quartz libraries.
//
// The discrete-event simulator keeps time as integer picoseconds so that
// event ordering is exact and runs are bit-reproducible.  At 100 Gb/s a
// single bit lasts 10 ps, so integer picoseconds resolve every quantity
// the paper's evaluation needs; int64 picoseconds cover ~106 days.
#pragma once

#include <cstdint>
#include <string>

namespace quartz {

/// Simulation time in integer picoseconds.
using TimePs = std::int64_t;

/// Data size in bits.
using Bits = std::int64_t;

/// Link or port rate in bits per second.
using BitsPerSecond = double;

inline constexpr TimePs kPicosecond = 1;
inline constexpr TimePs kNanosecond = 1'000;
inline constexpr TimePs kMicrosecond = 1'000'000;
inline constexpr TimePs kMillisecond = 1'000'000'000;
inline constexpr TimePs kSecond = 1'000'000'000'000;

constexpr TimePs nanoseconds(double ns) {
  return static_cast<TimePs>(ns * static_cast<double>(kNanosecond));
}
constexpr TimePs microseconds(double us) {
  return static_cast<TimePs>(us * static_cast<double>(kMicrosecond));
}
constexpr TimePs milliseconds(double ms) {
  return static_cast<TimePs>(ms * static_cast<double>(kMillisecond));
}
constexpr TimePs seconds(double s) {
  return static_cast<TimePs>(s * static_cast<double>(kSecond));
}

constexpr double to_nanoseconds(TimePs t) {
  return static_cast<double>(t) / static_cast<double>(kNanosecond);
}
constexpr double to_microseconds(TimePs t) {
  return static_cast<double>(t) / static_cast<double>(kMicrosecond);
}
constexpr double to_seconds(TimePs t) {
  return static_cast<double>(t) / static_cast<double>(kSecond);
}

constexpr Bits bytes(std::int64_t n) { return n * 8; }
constexpr std::int64_t to_bytes(Bits b) { return b / 8; }

constexpr BitsPerSecond kilobits_per_second(double v) { return v * 1e3; }
constexpr BitsPerSecond megabits_per_second(double v) { return v * 1e6; }
constexpr BitsPerSecond gigabits_per_second(double v) { return v * 1e9; }

/// Time to serialize `size` bits onto a line running at `rate`.
/// Rounds up so a packet never finishes "early" at integer resolution.
constexpr TimePs transmission_time(Bits size, BitsPerSecond rate) {
  const double ps = static_cast<double>(size) * 1e12 / rate;
  const auto whole = static_cast<TimePs>(ps);
  return (static_cast<double>(whole) < ps) ? whole + 1 : whole;
}

/// Pretty-print a time value with an adaptive unit ("3.42 us").
std::string format_time(TimePs t);

}  // namespace quartz
