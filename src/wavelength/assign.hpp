// Channel assignment algorithms (§3.1).
//
// The paper formulates minimum-channel assignment as an ILP
// (NP-complete; it is minimum circular-arc colouring with a per-pair
// direction choice) and pairs it with a greedy heuristic.  This module
// provides both:
//
//  * greedy_assign() — the §3.1.1 algorithm: process arcs in
//    decreasing-length classes (long paths first, to avoid fragmenting
//    channels) and first-fit the lowest channel free on every crossed
//    segment; and
//  * exact_assign() — a certified branch-and-bound stand-in for the
//    ILP: iterative deepening on the channel count starting from
//    channel_lower_bound(), with a DFS over (direction, channel)
//    choices, longest arcs first and first-pair symmetry breaking.
//
// Wavelength planning is a one-time, design-time event (§3.1), so
// neither routine is latency-sensitive; exact_assign() takes a node
// budget after which it falls back to the best known feasible answer
// with proved_optimal == false.
#pragma once

#include <cstdint>

#include "common/rng.hpp"
#include "wavelength/lightpath.hpp"

namespace quartz::wavelength {

/// Greedy first-fit assignment (§3.1.1), starting every length class
/// at ring offset zero so the plan is deterministic.
Assignment greedy_assign(int ring_size);

/// Ablation baseline: first-fit over pairs in RANDOM order, ignoring
/// §3.1.1's longest-first heuristic.  Exists to quantify the paper's
/// claim that prioritising long paths "avoids fragmenting the available
/// channels on the ring".
Assignment greedy_assign_unordered(int ring_size, Rng& rng);

struct ExactResult {
  Assignment assignment;
  /// True when the result is a certified minimum (search completed
  /// within the node budget at the optimal depth).
  bool proved_optimal = false;
  std::uint64_t nodes_explored = 0;
};

/// Exact minimum-channel assignment via iterative-deepening DFS.
/// Rings up to ~16 switches solve within the default budget; larger
/// rings fall back to the greedy answer (proved_optimal == false).
ExactResult exact_assign(int ring_size, std::uint64_t node_budget = 20'000'000);

/// Largest ring size whose greedy assignment fits in `available_channels`
/// (Fig. 5's "max ring size 35 at 160 channels" observation).
int max_ring_size(int available_channels);

}  // namespace quartz::wavelength
