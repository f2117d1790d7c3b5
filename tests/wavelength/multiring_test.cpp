#include "wavelength/multiring.hpp"

#include <gtest/gtest.h>

#include <numeric>
#include <vector>

#include "wavelength/assign.hpp"

namespace quartz::wavelength {
namespace {

/// Per-ring channel counts for an assignment striped over
/// `physical_rings` rings by ring_for_channel.
std::vector<int> channels_per_ring(const Assignment& assignment, int physical_rings) {
  std::vector<int> counts(static_cast<std::size_t>(physical_rings), 0);
  std::vector<bool> seen(static_cast<std::size_t>(assignment.channels_used), false);
  for (const auto& p : assignment.paths) {
    if (!seen[static_cast<std::size_t>(p.channel)]) {
      seen[static_cast<std::size_t>(p.channel)] = true;
      ++counts[static_cast<std::size_t>(ring_for_channel(p.channel, physical_rings))];
    }
  }
  return counts;
}

TEST(MultiRing, RingsRequired) {
  EXPECT_EQ(rings_required(0, 80), 0);
  EXPECT_EQ(rings_required(1, 80), 1);
  EXPECT_EQ(rings_required(80, 80), 1);
  EXPECT_EQ(rings_required(81, 80), 2);
  // §3.5: 137 channels -> two 80-channel muxes.
  EXPECT_EQ(rings_required(137, 80), 2);
  EXPECT_EQ(rings_required(160, 80), 2);
  EXPECT_EQ(rings_required(161, 80), 3);
}

TEST(MultiRing, RingsRequiredRejectsBadArgs) {
  EXPECT_THROW(rings_required(-1, 80), std::invalid_argument);
  EXPECT_THROW(rings_required(10, 0), std::invalid_argument);
}

TEST(MultiRing, RoundRobinStriping) {
  EXPECT_EQ(ring_for_channel(0, 2), 0);
  EXPECT_EQ(ring_for_channel(1, 2), 1);
  EXPECT_EQ(ring_for_channel(2, 2), 0);
  EXPECT_EQ(ring_for_channel(7, 3), 1);
}

TEST(MultiRing, ChannelsPerRingBalanced) {
  const Assignment plan = greedy_assign(33);
  for (int rings : {1, 2, 3, 4}) {
    const auto counts = channels_per_ring(plan, rings);
    ASSERT_EQ(static_cast<int>(counts.size()), rings);
    const int total = std::accumulate(counts.begin(), counts.end(), 0);
    EXPECT_EQ(total, plan.channels_used);
    const int max = *std::max_element(counts.begin(), counts.end());
    const int min = *std::min_element(counts.begin(), counts.end());
    EXPECT_LE(max - min, 1) << "rings=" << rings;
  }
}

TEST(MultiRing, TwoRingsFitThe33SwitchPlanInMuxCapacity) {
  const Assignment plan = greedy_assign(33);
  const int rings = rings_required(plan.channels_used, 80);
  EXPECT_EQ(rings, 2);
  for (int count : channels_per_ring(plan, rings)) EXPECT_LE(count, 80);
}

}  // namespace
}  // namespace quartz::wavelength
