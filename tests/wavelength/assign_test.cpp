#include "wavelength/assign.hpp"

#include <gtest/gtest.h>

namespace quartz::wavelength {
namespace {

TEST(Greedy, TrivialRings) {
  EXPECT_EQ(greedy_assign(2).channels_used, 1);
  EXPECT_EQ(greedy_assign(3).channels_used, 1);
}

TEST(Greedy, CoversEveryPairOnce) {
  const Assignment a = greedy_assign(9);
  EXPECT_EQ(static_cast<int>(a.paths.size()), pair_count(9));
  std::string error;
  EXPECT_TRUE(verify(a, &error)) << error;
}

TEST(Greedy, RespectsLowerBound) {
  for (int m = 2; m <= 40 && m <= kMaxRingSize; ++m) {
    EXPECT_GE(greedy_assign(m).channels_used, channel_lower_bound(m)) << "M=" << m;
  }
}

TEST(Greedy, NearOptimalVsLowerBound) {
  // Fig. 5: the greedy heuristic tracks the optimum closely; allow 25%
  // over the (itself conservative) lower bound.
  for (int m = 4; m <= 40; ++m) {
    const int lb = channel_lower_bound(m);
    const int greedy = greedy_assign(m).channels_used;
    EXPECT_LE(greedy, lb + std::max(2, lb / 4)) << "M=" << m;
  }
}

TEST(Greedy, DeterministicWithoutRng) {
  const Assignment a = greedy_assign(15);
  const Assignment b = greedy_assign(15);
  EXPECT_EQ(a.channels_used, b.channels_used);
  ASSERT_EQ(a.paths.size(), b.paths.size());
  for (std::size_t i = 0; i < a.paths.size(); ++i) EXPECT_EQ(a.paths[i], b.paths[i]);
}

TEST(Greedy, PaperHeadlineNumbers) {
  // Fig. 5: at 160 channels per fiber the maximum ring size is 35.
  EXPECT_EQ(max_ring_size(160), 35);
  // §3.5: a 33-switch ring needs ~137 channels (greedy lands within a
  // few channels of the paper's figure).
  const int ch33 = greedy_assign(33).channels_used;
  EXPECT_GE(ch33, 130);
  EXPECT_LE(ch33, 145);
}

TEST(Greedy, MaxRingSizeMonotone) {
  EXPECT_LE(max_ring_size(80), max_ring_size(160));
  EXPECT_GE(max_ring_size(1), 1);
}

TEST(Greedy, RejectsBadRingSize) {
  EXPECT_THROW(greedy_assign(1), std::invalid_argument);
  EXPECT_THROW(greedy_assign(kMaxRingSize + 1), std::invalid_argument);
}

TEST(Exact, SmallRingOptima) {
  // Hand-verifiable optima (single-fiber model: a channel is unique per
  // physical segment regardless of direction).
  struct Case {
    int ring;
    int optimum;
  };
  // Odd rings meet the load lower bound exactly; even rings exceed it
  // by one (the single-fiber constraint).
  for (const Case c : {Case{2, 1}, Case{3, 1}, Case{4, 3}, Case{5, 3}, Case{6, 5}, Case{7, 6},
                       Case{9, 10}, Case{11, 15}, Case{13, 21}}) {
    const ExactResult r = exact_assign(c.ring);
    ASSERT_TRUE(r.proved_optimal) << "M=" << c.ring;
    EXPECT_EQ(r.assignment.channels_used, c.optimum) << "M=" << c.ring;
  }
}

TEST(Exact, ProducesVerifiableAssignments) {
  for (int m = 2; m <= 8; ++m) {
    const ExactResult r = exact_assign(m);
    std::string error;
    EXPECT_TRUE(verify(r.assignment, &error)) << "M=" << m << ": " << error;
  }
}

TEST(Exact, NeverWorseThanGreedy) {
  for (int m = 2; m <= 8; ++m) {
    EXPECT_LE(exact_assign(m).assignment.channels_used, greedy_assign(m).channels_used)
        << "M=" << m;
  }
}

TEST(Exact, AtLeastLowerBound) {
  for (int m = 2; m <= 8; ++m) {
    EXPECT_GE(exact_assign(m).assignment.channels_used, channel_lower_bound(m)) << "M=" << m;
  }
}

TEST(Exact, OddRingsMeetTheLoadBound) {
  // For odd rings the balanced direction split realises the lower
  // bound; the exact solver certifies it quickly.
  for (int m : {5, 7, 9, 11, 13}) {
    const ExactResult r = exact_assign(m);
    ASSERT_TRUE(r.proved_optimal) << "M=" << m;
    EXPECT_EQ(r.assignment.channels_used, channel_lower_bound(m)) << "M=" << m;
  }
}

TEST(Exact, BudgetExhaustionFallsBackToGreedy) {
  const ExactResult r = exact_assign(16, /*node_budget=*/10);
  EXPECT_FALSE(r.proved_optimal);
  EXPECT_EQ(r.assignment.channels_used, greedy_assign(16).channels_used);
  std::string error;
  EXPECT_TRUE(verify(r.assignment, &error)) << error;
}

class GreedyValiditySweep : public ::testing::TestWithParam<int> {};

TEST_P(GreedyValiditySweep, AssignmentVerifies) {
  const Assignment a = greedy_assign(GetParam());
  std::string error;
  EXPECT_TRUE(verify(a, &error)) << error;
  EXPECT_EQ(static_cast<int>(a.paths.size()), pair_count(GetParam()));
}

INSTANTIATE_TEST_SUITE_P(RingSizes, GreedyValiditySweep,
                         ::testing::Range(2, 42));

class UnorderedGreedySweep : public ::testing::TestWithParam<int> {};

TEST_P(UnorderedGreedySweep, ValidButPaysForFragmentation) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 7 + 1);
  const int m = GetParam();
  const Assignment naive = greedy_assign_unordered(m, rng);
  std::string error;
  EXPECT_TRUE(verify(naive, &error)) << error;
  EXPECT_GE(naive.channels_used, channel_lower_bound(m));
  // The §3.1.1 heuristic should essentially never lose to random order.
  EXPECT_GE(naive.channels_used, greedy_assign(m).channels_used - 1) << "M=" << m;
}

INSTANTIATE_TEST_SUITE_P(RingSizes, UnorderedGreedySweep,
                         ::testing::Values(4, 8, 12, 16, 24, 33, 41));

TEST(UnorderedGreedy, FragmentationCostGrowsWithRingSize) {
  // Averaged over seeds, random order needs strictly more channels for
  // the paper's flagship ring.
  Rng rng(99);
  int naive_total = 0;
  for (int trial = 0; trial < 10; ++trial) {
    naive_total += greedy_assign_unordered(33, rng).channels_used;
  }
  EXPECT_GT(naive_total / 10, greedy_assign(33).channels_used);
}

}  // namespace
}  // namespace quartz::wavelength
