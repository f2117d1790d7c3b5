#include "common/units.hpp"

#include <cmath>
#include <cstdio>

namespace quartz {
namespace {

std::string format_scaled(double value, const char* unit) {
  char buf[64];
  if (value == std::floor(value) && std::fabs(value) < 1e15) {
    std::snprintf(buf, sizeof(buf), "%.0f %s", value, unit);
  } else {
    std::snprintf(buf, sizeof(buf), "%.3g %s", value, unit);
  }
  return buf;
}

}  // namespace

std::string format_time(TimePs t) {
  const double abs = std::fabs(static_cast<double>(t));
  if (abs >= static_cast<double>(kSecond)) return format_scaled(to_seconds(t), "s");
  if (abs >= static_cast<double>(kMillisecond)) {
    return format_scaled(static_cast<double>(t) / static_cast<double>(kMillisecond), "ms");
  }
  if (abs >= static_cast<double>(kMicrosecond)) return format_scaled(to_microseconds(t), "us");
  if (abs >= static_cast<double>(kNanosecond)) return format_scaled(to_nanoseconds(t), "ns");
  return format_scaled(static_cast<double>(t), "ps");
}

}  // namespace quartz
