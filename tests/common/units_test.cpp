#include "common/units.hpp"

#include <gtest/gtest.h>

namespace quartz {
namespace {

TEST(Units, TimeConversionRoundTrips) {
  EXPECT_EQ(microseconds(1), 1'000'000);
  EXPECT_EQ(nanoseconds(1), 1'000);
  EXPECT_EQ(milliseconds(2), 2'000'000'000);
  EXPECT_EQ(seconds(1), kSecond);
  EXPECT_DOUBLE_EQ(to_microseconds(microseconds(7.5)), 7.5);
  EXPECT_DOUBLE_EQ(to_nanoseconds(nanoseconds(380)), 380.0);
  EXPECT_DOUBLE_EQ(to_seconds(kSecond), 1.0);
}

TEST(Units, BytesToBits) {
  EXPECT_EQ(bytes(400), 3200);
  EXPECT_EQ(to_bytes(bytes(1500)), 1500);
}

TEST(Units, RateHelpers) {
  EXPECT_DOUBLE_EQ(gigabits_per_second(10), 1e10);
  EXPECT_DOUBLE_EQ(megabits_per_second(200), 2e8);
  EXPECT_DOUBLE_EQ(kilobits_per_second(5), 5e3);
}

TEST(Units, TransmissionTimeMatchesHandComputation) {
  // 400 bytes at 10 Gb/s = 320 ns.
  EXPECT_EQ(transmission_time(bytes(400), gigabits_per_second(10)), nanoseconds(320));
  // 1500 bytes at 1 Gb/s = 12 us.
  EXPECT_EQ(transmission_time(bytes(1500), gigabits_per_second(1)), microseconds(12));
  // 400 bytes at 40 Gb/s = 80 ns.
  EXPECT_EQ(transmission_time(bytes(400), gigabits_per_second(40)), nanoseconds(80));
}

TEST(Units, TransmissionTimeRoundsUp) {
  // 1 bit at 3 b/s is 333.3e9 ps; must round up, never down.
  const TimePs t = transmission_time(1, 3.0);
  EXPECT_GE(static_cast<double>(t) * 3.0, 1e12);
}

TEST(Units, FormatTimePicksUnit) {
  EXPECT_EQ(format_time(microseconds(6)), "6 us");
  EXPECT_EQ(format_time(nanoseconds(380)), "380 ns");
  EXPECT_EQ(format_time(seconds(2)), "2 s");
  EXPECT_EQ(format_time(5), "5 ps");
}

}  // namespace
}  // namespace quartz
