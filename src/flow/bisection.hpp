// The Fig. 10 bisection-bandwidth study: normalized throughput of the
// three traffic patterns on Quartz (one- and two-hop routing) vs an
// ideal full-bisection fabric and 1/2- and 1/4-bisection trees.
#pragma once

#include <string>

#include "common/units.hpp"

namespace quartz::flow {

enum class FabricUnderTest {
  kFullBisection,     ///< single non-blocking switch
  kQuartz,            ///< full mesh ring, direct + VLB two-hop paths
  kQuartzDirectOnly,  ///< ablation: direct lightpaths only
  kHalfBisection,     ///< tree with uplinks at 1/2 of host capacity
  kQuarterBisection,  ///< tree with uplinks at 1/4 of host capacity
};

enum class ThroughputPattern { kPermutation, kIncast, kRackShuffle };

std::string throughput_pattern_name(ThroughputPattern pattern);

struct BisectionParams {
  int racks = 16;
  /// Balanced server:switch port ratio (n = k), the configuration the
  /// paper's Fig. 10 assumes for its ~0.9 permutation result.
  int hosts_per_rack = 16;
  BitsPerSecond host_rate = gigabits_per_second(10);
  int incast_fan_in = 10;
  /// Destination racks per source rack; <=0 selects racks/2 (the
  /// fan-out at which the paper's ~0.75 shuffle throughput emerges).
  int shuffle_target_racks = 0;
  std::uint64_t seed = 3;
};

struct BisectionResult {
  double normalized_throughput = 0.0;  ///< aggregate / (hosts * host_rate)
  double aggregate_gbps = 0.0;
  int flows = 0;
};

BisectionResult run_bisection(FabricUnderTest fabric, ThroughputPattern pattern,
                              const BisectionParams& params);

}  // namespace quartz::flow
