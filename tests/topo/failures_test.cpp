#include "topo/failures.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

#include "common/check.hpp"
#include "routing/oracle.hpp"
#include "sim/network.hpp"
#include "wavelength/assign.hpp"

namespace quartz::topo {
namespace {

/// The degraded fabric after `cuts`; throws if they partition the mesh.
BuiltTopology survive_fiber_cuts(const BuiltTopology& topo, const std::vector<FiberCut>& cuts) {
  SurvivalOutcome outcome = try_survive_fiber_cuts(topo, cuts);
  QUARTZ_CHECK(!outcome.partitioned, "fiber cuts partitioned the mesh");
  outcome.degraded.graph.validate();
  return std::move(outcome.degraded);
}

BuiltTopology eight_ring() {
  QuartzRingParams p;
  p.switches = 8;
  p.hosts_per_switch = 2;
  return quartz_ring(p);
}

TEST(Failures, NoCutsIsIdentityShaped) {
  const BuiltTopology t = eight_ring();
  const BuiltTopology s = survive_fiber_cuts(t, {});
  EXPECT_EQ(s.graph.node_count(), t.graph.node_count());
  EXPECT_EQ(s.graph.link_count(), t.graph.link_count());
}

TEST(Failures, SingleCutRemovesCrossingLightpaths) {
  const BuiltTopology t = eight_ring();
  const auto severed = severed_lightpaths(t, {{0, 0}});
  EXPECT_GT(severed.size(), 0u);
  const BuiltTopology s = survive_fiber_cuts(t, {{0, 0}});
  EXPECT_EQ(s.graph.link_count(), t.graph.link_count() - severed.size());
  // Severed count matches segment 0's load in the deterministic plan.
  const auto plan = wavelength::greedy_assign(8);
  EXPECT_EQ(static_cast<int>(severed.size()), wavelength::segment_loads(plan)[0]);
}

TEST(Failures, SurvivorStillDeliversEverythingMultiHop) {
  // §3.5: multi-hop paths keep the mesh connected after one cut; the
  // packet simulator must deliver every packet on the survivor, some
  // over two-hop routes.
  const BuiltTopology t = eight_ring();
  const BuiltTopology s = survive_fiber_cuts(t, {{0, 3}});

  routing::EcmpRouting routing(s.graph);
  routing::EcmpOracle oracle(routing);
  sim::Network net(s, oracle);
  int max_hops = 0;
  const int task = net.new_task([&max_hops](const sim::Packet& p, TimePs) {
    max_hops = std::max(max_hops, p.hops);
  });
  Rng rng(3);
  for (int i = 0; i < 300; ++i) {
    const auto src = s.hosts[rng.next_below(s.hosts.size())];
    auto dst = s.hosts[rng.next_below(s.hosts.size())];
    while (dst == src) dst = s.hosts[rng.next_below(s.hosts.size())];
    net.send(src, dst, bytes(400), task, rng.next_u64());
  }
  net.run_until(milliseconds(10));
  EXPECT_EQ(net.packets_delivered(), 300u);
  EXPECT_EQ(net.packets_dropped(), 0u);
  // Some pairs detour over two (or, when a detour's own leg is also
  // severed, three) mesh hops.
  EXPECT_GE(max_hops, 3);
  EXPECT_LE(max_hops, 4);
}

TEST(Failures, DegradedLatencyOnlyForAffectedPairs) {
  const BuiltTopology t = eight_ring();
  const auto severed = severed_lightpaths(t, {{0, 0}});
  ASSERT_FALSE(severed.empty());
  const BuiltTopology s = survive_fiber_cuts(t, {{0, 0}});

  routing::EcmpRouting healthy(t.graph);
  routing::EcmpRouting degraded(s.graph);
  // Every severed switch pair is now two mesh hops apart; every other
  // pair keeps its direct lightpath.
  for (const auto& [a, b] : severed) {
    const topo::NodeId host_b = [&] {
      for (const auto& adj : s.graph.neighbors(b)) {
        if (s.graph.is_host(adj.peer)) return adj.peer;
      }
      return topo::kInvalidNode;
    }();
    ASSERT_NE(host_b, topo::kInvalidNode);
    EXPECT_EQ(healthy.distance(a, host_b), 2);
    EXPECT_EQ(degraded.distance(a, host_b), 3);
  }
}

TEST(Failures, PartitioningCutsAreRejected) {
  // Two cuts on the single physical ring of a small mesh partition it;
  // the surgery must refuse rather than return a broken fabric.
  QuartzRingParams p;
  p.switches = 6;
  p.hosts_per_switch = 1;
  const BuiltTopology t = quartz_ring(p);
  EXPECT_THROW(survive_fiber_cuts(t, {{0, 0}, {0, 3}}), std::logic_error);
}

TEST(Failures, TwoRingPlanSurvivesTwoCuts) {
  // A 33-switch mesh stripes over two rings; cuts on different rings
  // leave the mesh connected (the Fig. 6 headline).
  QuartzRingParams p;
  p.switches = 33;
  p.hosts_per_switch = 1;
  const BuiltTopology t = quartz_ring(p);
  const BuiltTopology s = survive_fiber_cuts(t, {{0, 4}, {1, 20}});
  EXPECT_NO_THROW(s.graph.validate());
  EXPECT_LT(s.graph.link_count(), t.graph.link_count());
}

TEST(Failures, TryVariantReportsPartitionInsteadOfThrowing) {
  QuartzRingParams p;
  p.switches = 6;
  p.hosts_per_switch = 1;
  const BuiltTopology t = quartz_ring(p);
  const SurvivalOutcome outcome = try_survive_fiber_cuts(t, {{0, 0}, {0, 3}});
  EXPECT_TRUE(outcome.partitioned);
  EXPECT_GT(outcome.components, 1);
  EXPECT_GT(outcome.severed, 0u);
  // The throwing wrapper still refuses the same cuts.
  EXPECT_THROW(survive_fiber_cuts(t, {{0, 0}, {0, 3}}), std::logic_error);
}

TEST(Failures, TryVariantMatchesThrowingOnSurvivableCuts) {
  const BuiltTopology t = eight_ring();
  const SurvivalOutcome outcome = try_survive_fiber_cuts(t, {{0, 1}});
  EXPECT_FALSE(outcome.partitioned);
  EXPECT_EQ(outcome.components, 1);
  EXPECT_EQ(outcome.severed, severed_lightpaths(t, {{0, 1}}).size());
  const BuiltTopology s = survive_fiber_cuts(t, {{0, 1}});
  EXPECT_EQ(outcome.degraded.graph.link_count(), s.graph.link_count());
}

TEST(Failures, SeveredLinksMapBackToOriginalTopology) {
  const BuiltTopology t = eight_ring();
  const auto links = severed_links(t, {{0, 0}});
  const auto pairs = severed_lightpaths(t, {{0, 0}});
  ASSERT_EQ(links.size(), pairs.size());
  for (const LinkId id : links) {
    const Link& link = t.graph.link(id);
    EXPECT_EQ(link.wdm_ring, 0);
    const bool listed =
        std::any_of(pairs.begin(), pairs.end(), [&](const std::pair<NodeId, NodeId>& pair) {
          return (pair.first == link.a && pair.second == link.b) ||
                 (pair.first == link.b && pair.second == link.a);
        });
    EXPECT_TRUE(listed) << "link " << id << " not in the severed lightpath list";
  }
}

TEST(Failures, MultiRingCutsSeverDisjointPerRingSets) {
  // A 33-switch plan stripes lightpaths over two physical rings; a cut
  // only severs lightpaths carried by its own ring.
  QuartzRingParams p;
  p.switches = 33;
  p.hosts_per_switch = 1;
  const BuiltTopology t = quartz_ring(p);
  const auto ring0 = severed_links(t, {{0, 4}});
  const auto ring1 = severed_links(t, {{1, 20}});
  ASSERT_FALSE(ring0.empty());
  ASSERT_FALSE(ring1.empty());
  for (const LinkId id : ring0) EXPECT_EQ(t.graph.link(id).wdm_ring, 0);
  for (const LinkId id : ring1) EXPECT_EQ(t.graph.link(id).wdm_ring, 1);
  for (const LinkId id : ring0) {
    EXPECT_EQ(std::count(ring1.begin(), ring1.end(), id), 0);
  }
  // Both cuts together sever exactly the union.
  const auto both = severed_links(t, {{0, 4}, {1, 20}});
  EXPECT_EQ(both.size(), ring0.size() + ring1.size());
}

TEST(Failures, RejectsOutOfRangeCuts) {
  const BuiltTopology t = eight_ring();
  EXPECT_THROW(survive_fiber_cuts(t, {{5, 0}}), std::invalid_argument);
  EXPECT_THROW(survive_fiber_cuts(t, {{0, 8}}), std::invalid_argument);
}

}  // namespace
}  // namespace quartz::topo
