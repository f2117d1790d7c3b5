#include "wavelength/lightpath.hpp"

#include "common/rng.hpp"
#include "wavelength/assign.hpp"

#include <gtest/gtest.h>

#include <numeric>

namespace quartz::wavelength {
namespace {

TEST(Lightpath, ArcLengths) {
  EXPECT_EQ(arc_length(6, 0, 2, Direction::kClockwise), 2);
  EXPECT_EQ(arc_length(6, 0, 2, Direction::kCounterClockwise), 4);
  EXPECT_EQ(arc_length(6, 4, 1, Direction::kClockwise), 3);
  EXPECT_EQ(shortest_arc_length(6, 0, 3), 3);  // diametral
  EXPECT_EQ(shortest_arc_length(7, 0, 5), 2);
}

TEST(Lightpath, SegmentMaskClockwise) {
  // Clockwise 1 -> 4 in a 6-ring crosses segments 1, 2, 3.
  EXPECT_EQ(segment_mask(6, 1, 4, Direction::kClockwise), 0b001110ull);
}

TEST(Lightpath, SegmentMaskCounterClockwiseIsComplement) {
  for (int m : {4, 5, 8, 11}) {
    const std::uint64_t ring = (m == 64) ? ~0ull : ((1ull << m) - 1);
    for (int s = 0; s < m; ++s) {
      for (int t = s + 1; t < m; ++t) {
        const auto cw = segment_mask(m, s, t, Direction::kClockwise);
        const auto ccw = segment_mask(m, s, t, Direction::kCounterClockwise);
        EXPECT_EQ(cw | ccw, ring);
        EXPECT_EQ(cw & ccw, 0ull);
      }
    }
  }
}

TEST(Lightpath, SegmentsForMatchesMask) {
  for (auto dir : {Direction::kClockwise, Direction::kCounterClockwise}) {
    const auto segs = segments_for(8, 2, 6, dir);
    std::uint64_t mask = 0;
    for (int s : segs) mask |= (1ull << s);
    EXPECT_EQ(mask, segment_mask(8, 2, 6, dir));
    EXPECT_EQ(static_cast<int>(segs.size()), arc_length(8, 2, 6, dir));
  }
}

TEST(Lightpath, SegmentsForTraversalOrder) {
  // CCW from 2 to 6 in an 8-ring: segments 1, 0, 7, 6 in that order.
  const auto segs = segments_for(8, 2, 6, Direction::kCounterClockwise);
  EXPECT_EQ(segs, (std::vector<int>{1, 0, 7, 6}));
}

TEST(Lightpath, RejectsBadArguments) {
  EXPECT_THROW(arc_length(6, 0, 0, Direction::kClockwise), std::invalid_argument);
  EXPECT_THROW(arc_length(6, -1, 2, Direction::kClockwise), std::invalid_argument);
  EXPECT_THROW(arc_length(6, 0, 6, Direction::kClockwise), std::invalid_argument);
  EXPECT_THROW(arc_length(1, 0, 0, Direction::kClockwise), std::invalid_argument);
  EXPECT_THROW(arc_length(65, 0, 1, Direction::kClockwise), std::invalid_argument);
}

TEST(Lightpath, PairCount) {
  EXPECT_EQ(pair_count(2), 1);
  EXPECT_EQ(pair_count(4), 6);
  EXPECT_EQ(pair_count(33), 528);
}

Assignment tiny_valid_assignment() {
  // 3-ring: pairs (0,1), (0,2), (1,2).  One channel suffices: route
  // (0,1) cw over seg 0, (1,2) cw over seg 1, (0,2) ccw over seg 2.
  Assignment a;
  a.ring_size = 3;
  a.paths = {
      {0, 1, Direction::kClockwise, 0},
      {1, 2, Direction::kClockwise, 0},
      {0, 2, Direction::kCounterClockwise, 0},
  };
  a.channels_used = 1;
  return a;
}

TEST(Verify, AcceptsValidAssignment) {
  std::string error;
  EXPECT_TRUE(verify(tiny_valid_assignment(), &error)) << error;
}

TEST(Verify, RejectsChannelReuseOnSegment) {
  auto a = tiny_valid_assignment();
  a.paths[2].dir = Direction::kClockwise;  // (0,2) cw crosses segs 0,1: conflicts
  std::string error;
  EXPECT_FALSE(verify(a, &error));
  EXPECT_NE(error.find("reused"), std::string::npos);
}

TEST(Verify, RejectsMissingPair) {
  auto a = tiny_valid_assignment();
  a.paths.pop_back();
  EXPECT_FALSE(verify(a));
}

TEST(Verify, RejectsUnassignedChannel) {
  auto a = tiny_valid_assignment();
  a.paths[0].channel = -1;
  std::string error;
  EXPECT_FALSE(verify(a, &error));
  EXPECT_NE(error.find("no channel"), std::string::npos);
}

TEST(Verify, RejectsDuplicatePair) {
  auto a = tiny_valid_assignment();
  a.paths[2] = a.paths[0];
  EXPECT_FALSE(verify(a));
}

TEST(Verify, RejectsUndercountedChannels) {
  auto a = tiny_valid_assignment();
  a.paths[0].channel = 5;
  EXPECT_FALSE(verify(a));  // channels_used says 1 but channel 5 in use
}

TEST(LowerBound, MatchesHandComputedValues) {
  // M=4: pairs at distance 1 (x4) and 2 (x2): total min length = 8,
  // over 4 segments = 2.
  EXPECT_EQ(channel_lower_bound(4), 2);
  // M=5: 5 pairs at d=1, 5 at d=2 -> 15 / 5 = 3.
  EXPECT_EQ(channel_lower_bound(5), 3);
  EXPECT_EQ(channel_lower_bound(2), 1);
}

TEST(LowerBound, GrowsQuadratically) {
  // Total shortest-arc length ~ M^3/8 over M segments -> ~M^2/8.
  const int lb33 = channel_lower_bound(33);
  EXPECT_NEAR(lb33, 33 * 33 / 8, 4);
}

TEST(SegmentLoads, SumsToTotalArcLength) {
  const auto a = tiny_valid_assignment();
  const auto loads = segment_loads(a);
  EXPECT_EQ(std::accumulate(loads.begin(), loads.end(), 0), 3);
}

TEST(PathBetween, OrderInsensitive) {
  const auto a = tiny_valid_assignment();
  EXPECT_EQ(a.path_between(2, 0).src, 0);
  EXPECT_EQ(a.path_between(2, 0).dst, 2);
  EXPECT_THROW(a.path_between(1, 1), std::invalid_argument);
}

class VerifierMutationSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(VerifierMutationSweep, RandomCorruptionsAreCaughtOrStillValid) {
  // Property: verify() accepts every solver output, and random
  // single-field corruptions are either detected or (rarely) happen to
  // form another valid assignment — never an inconsistent acceptance.
  Rng rng(GetParam());
  const int m = 6 + static_cast<int>(rng.next_below(8));
  Assignment good = greedy_assign(m);
  ASSERT_TRUE(verify(good));

  for (int trial = 0; trial < 50; ++trial) {
    Assignment mutated = good;
    auto& victim = mutated.paths[rng.next_below(mutated.paths.size())];
    switch (rng.next_below(3)) {
      case 0:  // channel swap to a random other channel
        victim.channel = static_cast<int>(rng.next_below(
            static_cast<std::uint64_t>(mutated.channels_used)));
        break;
      case 1:  // direction flip (other arc of the same pair)
        victim.dir = victim.dir == Direction::kClockwise ? Direction::kCounterClockwise
                                                         : Direction::kClockwise;
        break;
      default:  // duplicate another path's pair
        victim = mutated.paths[rng.next_below(mutated.paths.size())];
        break;
    }
    std::string error;
    const bool ok = verify(mutated, &error);
    if (ok) {
      // Acceptance is only legitimate when the mutation kept all
      // invariants; re-verify from scratch agrees by construction, so
      // just check the channel accounting stayed sane.
      EXPECT_LE(mutated.channels_used, good.channels_used);
    } else {
      EXPECT_FALSE(error.empty());
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, VerifierMutationSweep, ::testing::Values(11u, 22u, 33u, 44u));

}  // namespace
}  // namespace quartz::wavelength
