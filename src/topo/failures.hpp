// Fiber-cut surgery on built Quartz topologies (§3.5).
//
// A cut on physical ring r's segment s severs every lightpath of ring r
// whose arc crosses s.  This module rebuilds a BuiltTopology without
// the severed mesh links, so the packet simulator can answer the
// question Fig. 6 answers combinatorially: do the surviving direct
// links still carry everyone (over multi-hop mesh routes), and at what
// latency cost?
#pragma once

#include <utility>
#include <vector>

#include "topo/builders.hpp"

namespace quartz::topo {

struct FiberCut {
  int ring = 0;     ///< physical ring index (Link::wdm_ring)
  int segment = 0;  ///< fiber span index on that ring (0..M-1)
};

/// Rebuild `topo` with every mesh link severed by `cuts` removed, and
/// report the connectivity outcome.  Works on any topology whose quartz_rings each stripe their channels
/// over a contiguous physical-ring range (quartz_ring(), and composed
/// fabrics, whose builder keeps per-leaf-ring ranges disjoint via
/// add_quartz_mesh's phys_ring_base); the channel plan is re-derived
/// deterministically to map each lightpath to the segments it crosses.
/// Legacy multi-ring builders that number every ring from zero share
/// cut fate across rings with overlapping ranges.  Host links and
/// non-WDM links are untouched.  A cut set that disconnects the
/// surviving graph (the Fig. 6 partition case) is reported, not thrown:
/// when `partitioned`, the degraded graph fails Graph::validate() and
/// must not be simulated.
struct SurvivalOutcome {
  BuiltTopology degraded;
  std::size_t severed = 0;  ///< mesh links removed by the cuts
  bool partitioned = false;
  int components = 1;  ///< connected components of the surviving graph
};
SurvivalOutcome try_survive_fiber_cuts(const BuiltTopology& topo,
                                       const std::vector<FiberCut>& cuts);

/// The mesh links a set of cuts would sever (for reporting): pairs of
/// (switch, switch) node ids.
std::vector<std::pair<NodeId, NodeId>> severed_lightpaths(const BuiltTopology& topo,
                                                          const std::vector<FiberCut>& cuts);

/// Same severed set as LinkIds *in the original topology* — the form
/// the packet simulator's fail_link()/FaultScheduler consume for live
/// fault injection (the dynamic counterpart of try_survive_fiber_cuts).
std::vector<LinkId> severed_links(const BuiltTopology& topo, const std::vector<FiberCut>& cuts);

}  // namespace quartz::topo
