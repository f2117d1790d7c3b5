#include "routing/oracle.hpp"

#include <gtest/gtest.h>

#include <map>

#include "topo/builders.hpp"

namespace quartz::routing {
namespace {

using topo::LinkId;
using topo::NodeId;

struct MeshFixture {
  topo::BuiltTopology topo;
  std::unique_ptr<EcmpRouting> routing;

  explicit MeshFixture(int switches = 6, int hosts = 2) {
    topo::QuartzRingParams p;
    p.switches = switches;
    p.hosts_per_switch = hosts;
    topo = topo::quartz_ring(p);
    routing = std::make_unique<EcmpRouting>(topo.graph);
  }
};

/// Walk a packet from src to dst using the oracle; returns the switch
/// sequence visited.
std::vector<NodeId> walk(const topo::Graph& graph, const RoutingOracle& oracle, NodeId src,
                         NodeId dst, std::uint64_t flow_hash) {
  FlowKey key;
  key.src = src;
  key.dst = dst;
  key.flow_hash = mix_hash(flow_hash);
  std::vector<NodeId> visited;
  NodeId at = src;
  for (int hop = 0; hop < 32 && at != dst; ++hop) {
    const LinkId link = oracle.next_link(at, key);
    at = graph.link(link).other(at);
    if (graph.is_switch(at)) visited.push_back(at);
  }
  EXPECT_EQ(at, dst) << "packet did not reach its destination";
  return visited;
}

TEST(EcmpOracle, MeshAlwaysDirect) {
  const MeshFixture f;
  const EcmpOracle oracle(*f.routing);
  for (std::uint64_t flow = 0; flow < 32; ++flow) {
    const auto path =
        walk(f.topo.graph, oracle, f.topo.host_groups[0][0], f.topo.host_groups[4][1], flow);
    EXPECT_EQ(path.size(), 2u);  // ingress ToR + egress ToR only
  }
}

TEST(VlbOracle, FractionZeroIsDirect) {
  const MeshFixture f;
  const VlbOracle oracle(*f.routing, f.topo.quartz_rings, 0.0);
  for (std::uint64_t flow = 0; flow < 32; ++flow) {
    const auto path =
        walk(f.topo.graph, oracle, f.topo.host_groups[0][0], f.topo.host_groups[3][0], flow);
    EXPECT_EQ(path.size(), 2u);
  }
}

TEST(VlbOracle, FractionOneAlwaysDetours) {
  const MeshFixture f;
  const VlbOracle oracle(*f.routing, f.topo.quartz_rings, 1.0);
  for (std::uint64_t flow = 0; flow < 32; ++flow) {
    const auto path =
        walk(f.topo.graph, oracle, f.topo.host_groups[0][0], f.topo.host_groups[3][0], flow);
    ASSERT_EQ(path.size(), 3u);  // ingress, intermediate, egress
    EXPECT_NE(path[1], f.topo.tors[0]);
    EXPECT_NE(path[1], f.topo.tors[3]);
  }
}

TEST(VlbOracle, FractionSplitsApproximately) {
  const MeshFixture f(8, 2);
  const double fraction = 0.5;
  const VlbOracle oracle(*f.routing, f.topo.quartz_rings, fraction);
  int detoured = 0;
  const int flows = 2000;
  for (std::uint64_t flow = 0; flow < static_cast<std::uint64_t>(flows); ++flow) {
    const auto path =
        walk(f.topo.graph, oracle, f.topo.host_groups[0][0], f.topo.host_groups[5][1], flow);
    if (path.size() == 3u) ++detoured;
  }
  EXPECT_NEAR(static_cast<double>(detoured) / flows, fraction, 0.05);
}

TEST(VlbOracle, DetourSpreadsOverIntermediates) {
  const MeshFixture f(8, 2);
  const VlbOracle oracle(*f.routing, f.topo.quartz_rings, 1.0);
  std::map<NodeId, int> intermediate_counts;
  for (std::uint64_t flow = 0; flow < 3000; ++flow) {
    const auto path =
        walk(f.topo.graph, oracle, f.topo.host_groups[0][0], f.topo.host_groups[4][0], flow);
    ASSERT_EQ(path.size(), 3u);
    ++intermediate_counts[path[1]];
  }
  // 6 eligible intermediates; each should carry a meaningful share.
  EXPECT_EQ(intermediate_counts.size(), 6u);
  for (const auto& [node, count] : intermediate_counts) {
    EXPECT_GT(count, 3000 / 6 / 3) << "intermediate " << node << " underused";
  }
}

TEST(VlbOracle, SamePairSameFlowIsStable) {
  const MeshFixture f;
  const VlbOracle oracle(*f.routing, f.topo.quartz_rings, 0.5);
  const auto first =
      walk(f.topo.graph, oracle, f.topo.host_groups[1][0], f.topo.host_groups[5][0], 77);
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(walk(f.topo.graph, oracle, f.topo.host_groups[1][0], f.topo.host_groups[5][0], 77),
              first);
  }
}

TEST(VlbOracle, IntraSwitchTrafficUnaffected) {
  const MeshFixture f;
  const VlbOracle oracle(*f.routing, f.topo.quartz_rings, 1.0);
  const auto path =
      walk(f.topo.graph, oracle, f.topo.host_groups[2][0], f.topo.host_groups[2][1], 5);
  EXPECT_EQ(path.size(), 1u);  // just the shared ToR
}

TEST(VlbOracle, RejectsBadFraction) {
  const MeshFixture f;
  EXPECT_THROW(VlbOracle(*f.routing, f.topo.quartz_rings, -0.1), std::invalid_argument);
  EXPECT_THROW(VlbOracle(*f.routing, f.topo.quartz_rings, 1.5), std::invalid_argument);
}

TEST(PinnedDetourOracle, PinnedPairTakesDetour) {
  const MeshFixture f(4, 2);
  PinnedDetourOracle oracle(*f.routing, f.topo.quartz_rings);
  const NodeId src = f.topo.host_groups[1][0];
  const NodeId dst = f.topo.host_groups[2][0];
  oracle.pin(src, dst, f.topo.tors[3]);

  const auto pinned_path = walk(f.topo.graph, oracle, src, dst, 9);
  ASSERT_EQ(pinned_path.size(), 3u);
  EXPECT_EQ(pinned_path[1], f.topo.tors[3]);

  // The reverse direction is not pinned.
  const auto reverse_path = walk(f.topo.graph, oracle, dst, src, 9);
  EXPECT_EQ(reverse_path.size(), 2u);

  // Other pairs are plain ECMP.
  const auto other =
      walk(f.topo.graph, oracle, f.topo.host_groups[0][0], f.topo.host_groups[2][1], 9);
  EXPECT_EQ(other.size(), 2u);
}

TEST(PinnedDetourOracle, PinRejectsNonRingIntermediate) {
  const MeshFixture f(4, 2);
  PinnedDetourOracle oracle(*f.routing, f.topo.quartz_rings);
  EXPECT_THROW(oracle.pin(f.topo.hosts[0], f.topo.hosts[1], f.topo.hosts[2]),
               std::invalid_argument);
}

TEST(AdaptiveVlbOracle, WithoutProbeIsPureEcmp) {
  const MeshFixture f(6, 2);
  AdaptiveVlbOracle oracle(*f.routing, f.topo.quartz_rings);
  for (std::uint64_t flow = 0; flow < 16; ++flow) {
    const auto path =
        walk(f.topo.graph, oracle, f.topo.host_groups[0][0], f.topo.host_groups[3][0], flow);
    EXPECT_EQ(path.size(), 2u);
  }
}

TEST(AdaptiveVlbOracle, DetoursWhenProbeReportsCongestion) {
  const MeshFixture f(6, 2);
  // A fake probe that reports one specific link as congested.
  class FakeProbe : public LoadProbe {
   public:
    explicit FakeProbe(topo::LinkId hot) : hot_(hot) {}
    TimePs queue_delay(topo::LinkId link, int) const override {
      return link == hot_ ? milliseconds(1) : 0;
    }

   private:
    topo::LinkId hot_;
  };
  // Find the direct lightpath between tors[0] and tors[3].
  topo::LinkId direct = topo::kInvalidLink;
  for (const auto& link : f.topo.graph.links()) {
    if ((link.a == f.topo.tors[0] && link.b == f.topo.tors[3]) ||
        (link.a == f.topo.tors[3] && link.b == f.topo.tors[0])) {
      direct = link.id;
    }
  }
  ASSERT_NE(direct, topo::kInvalidLink);
  const FakeProbe probe(direct);

  AdaptiveVlbOracle oracle(*f.routing, f.topo.quartz_rings, microseconds(1));
  oracle.attach_probe(&probe);
  const auto path =
      walk(f.topo.graph, oracle, f.topo.host_groups[0][0], f.topo.host_groups[3][0], 3);
  ASSERT_EQ(path.size(), 3u);  // detoured around the hot lightpath
  EXPECT_NE(path[1], f.topo.tors[0]);
  EXPECT_NE(path[1], f.topo.tors[3]);
}

TEST(AdaptiveVlbOracle, StaysDirectWhenEverythingIsHot) {
  const MeshFixture f(5, 2);
  class AllHotProbe : public LoadProbe {
   public:
    TimePs queue_delay(topo::LinkId, int) const override { return milliseconds(1); }
  };
  const AllHotProbe probe;
  AdaptiveVlbOracle oracle(*f.routing, f.topo.quartz_rings, microseconds(1));
  oracle.attach_probe(&probe);
  // No intermediate beats the direct path, so take it.
  const auto path =
      walk(f.topo.graph, oracle, f.topo.host_groups[0][0], f.topo.host_groups[2][0], 1);
  EXPECT_EQ(path.size(), 2u);
}

/// Direct mesh link between two switches.
LinkId direct_link(const topo::BuiltTopology& t, NodeId a, NodeId b) {
  for (const auto& adj : t.graph.neighbors(a)) {
    if (adj.peer == b) return adj.link;
  }
  return topo::kInvalidLink;
}

TEST(FailureView, TracksDeadLinksAndReadsUnknownAsAlive) {
  FailureView view(4);
  EXPECT_FALSE(view.is_dead(2));
  EXPECT_FALSE(view.is_dead(99));  // out of range degrades to alive
  view.set_dead(2, true);
  EXPECT_TRUE(view.is_dead(2));
  EXPECT_EQ(view.dead_count(), 1u);
  view.set_dead(2, false);
  EXPECT_FALSE(view.is_dead(2));
  EXPECT_EQ(view.dead_count(), 0u);
}

TEST(EcmpOracle, DetoursAroundDetectedDeadLightpath) {
  const MeshFixture f(6, 2);
  EcmpOracle oracle(*f.routing);
  FailureView view(f.topo.graph.link_count());
  oracle.attach_failure_view(&view);
  const NodeId src = f.topo.host_groups[0][0];
  const NodeId dst = f.topo.host_groups[3][0];
  const LinkId direct = direct_link(f.topo, f.topo.tors[0], f.topo.tors[3]);
  ASSERT_NE(direct, topo::kInvalidLink);

  EXPECT_EQ(walk(f.topo.graph, oracle, src, dst, 7).size(), 2u);
  view.set_dead(direct, true);
  for (std::uint64_t flow = 0; flow < 16; ++flow) {
    const auto path = walk(f.topo.graph, oracle, src, dst, flow);
    ASSERT_EQ(path.size(), 3u);  // deflected one switch around the cut
    EXPECT_NE(path[1], f.topo.tors[0]);
    EXPECT_NE(path[1], f.topo.tors[3]);
  }
  view.set_dead(direct, false);
  EXPECT_EQ(walk(f.topo.graph, oracle, src, dst, 7).size(), 2u);
}

TEST(VlbOracle, HealsDeadDirectPathOverTwoHopDetour) {
  const MeshFixture f(6, 2);
  VlbOracle oracle(*f.routing, f.topo.quartz_rings, 0.0);
  FailureView view(f.topo.graph.link_count());
  oracle.attach_failure_view(&view);
  const LinkId direct = direct_link(f.topo, f.topo.tors[1], f.topo.tors[4]);
  view.set_dead(direct, true);
  for (std::uint64_t flow = 0; flow < 16; ++flow) {
    const auto path =
        walk(f.topo.graph, oracle, f.topo.host_groups[1][0], f.topo.host_groups[4][0], flow);
    ASSERT_EQ(path.size(), 3u);
    // Both detour legs avoid the dead lightpath by construction.
    EXPECT_NE(direct_link(f.topo, path[0], path[1]), direct);
    EXPECT_NE(direct_link(f.topo, path[1], path[2]), direct);
  }
}

TEST(VlbOracle, DetourIntermediatesExcludeDeadLegs) {
  // With fraction 1 every flow detours; intermediates whose legs are
  // dead must never be chosen.
  const MeshFixture f(6, 2);
  VlbOracle oracle(*f.routing, f.topo.quartz_rings, 1.0);
  FailureView view(f.topo.graph.link_count());
  oracle.attach_failure_view(&view);
  const NodeId banned = f.topo.tors[2];
  view.set_dead(direct_link(f.topo, f.topo.tors[0], banned), true);
  for (std::uint64_t flow = 0; flow < 64; ++flow) {
    const auto path =
        walk(f.topo.graph, oracle, f.topo.host_groups[0][0], f.topo.host_groups[3][0], flow);
    ASSERT_EQ(path.size(), 3u);
    EXPECT_NE(path[1], banned) << "detoured through a dead first leg";
  }
}

TEST(AdaptiveVlbOracle, RoutesAroundDeadLightpathWithoutProbe) {
  const MeshFixture f(6, 2);
  AdaptiveVlbOracle oracle(*f.routing, f.topo.quartz_rings);
  FailureView view(f.topo.graph.link_count());
  oracle.attach_failure_view(&view);
  view.set_dead(direct_link(f.topo, f.topo.tors[0], f.topo.tors[3]), true);
  for (std::uint64_t flow = 0; flow < 16; ++flow) {
    const auto path =
        walk(f.topo.graph, oracle, f.topo.host_groups[0][0], f.topo.host_groups[3][0], flow);
    ASSERT_EQ(path.size(), 3u);
    EXPECT_NE(path[1], f.topo.tors[0]);
    EXPECT_NE(path[1], f.topo.tors[3]);
  }
}

/// Loss estimates handed to the oracles by tests (stands in for the
/// HealthMonitor).
struct FakeLossView final : LossView {
  std::map<LinkId, double> loss;
  double loss_rate(LinkId link) const override {
    const auto it = loss.find(link);
    return it == loss.end() ? 0.0 : it->second;
  }
};

TEST(EcmpOracle, AllZeroLossViewChangesNothing) {
  const MeshFixture f(6, 2);
  EcmpOracle plain(*f.routing);
  EcmpOracle attached(*f.routing);
  FakeLossView losses;  // empty: every link reads 0.0
  attached.attach_loss_view(&losses);
  for (std::uint64_t flow = 0; flow < 32; ++flow) {
    EXPECT_EQ(walk(f.topo.graph, plain, f.topo.host_groups[0][0], f.topo.host_groups[3][0], flow),
              walk(f.topo.graph, attached, f.topo.host_groups[0][0], f.topo.host_groups[3][0],
                   flow));
  }
}

TEST(EcmpOracle, DeflectsAroundLossyLightpath) {
  const MeshFixture f(6, 2);
  EcmpOracle oracle(*f.routing);
  FakeLossView losses;
  oracle.attach_loss_view(&losses);
  const NodeId src = f.topo.host_groups[0][0];
  const NodeId dst = f.topo.host_groups[3][0];
  const LinkId direct = direct_link(f.topo, f.topo.tors[0], f.topo.tors[3]);

  // A 30% gray failure on the direct lightpath: clean two-hop detours
  // beat it, so every flow deflects.
  losses.loss[direct] = 0.3;
  for (std::uint64_t flow = 0; flow < 16; ++flow) {
    const auto path = walk(f.topo.graph, oracle, src, dst, flow);
    ASSERT_EQ(path.size(), 3u);
    EXPECT_NE(path[1], f.topo.tors[0]);
    EXPECT_NE(path[1], f.topo.tors[3]);
  }
  // Healed: straight back to the direct lightpath.
  losses.loss.clear();
  EXPECT_EQ(walk(f.topo.graph, oracle, src, dst, 7).size(), 2u);
}

TEST(EcmpOracle, TracksTheSoftFailThreshold) {
  const MeshFixture f(6, 2);
  EcmpOracle oracle(*f.routing);
  FakeLossView losses;
  oracle.attach_loss_view(&losses);
  const NodeId src = f.topo.host_groups[0][0];
  const NodeId dst = f.topo.host_groups[3][0];
  const LinkId direct = direct_link(f.topo, f.topo.tors[0], f.topo.tors[3]);

  // 1% loss sits below the 2% soft-fail threshold: stay direct.
  losses.loss[direct] = kSoftFailLossThreshold - 0.01;
  EXPECT_EQ(walk(f.topo.graph, oracle, src, dst, 7).size(), 2u);
  // 3% loss crosses it and becomes a soft failure.
  losses.loss[direct] = kSoftFailLossThreshold + 0.01;
  EXPECT_EQ(walk(f.topo.graph, oracle, src, dst, 7).size(), 3u);
}

TEST(EcmpOracle, StaysDirectWhenEveryDetourIsWorse) {
  const MeshFixture f(6, 2);
  EcmpOracle oracle(*f.routing);
  FakeLossView losses;
  oracle.attach_loss_view(&losses);
  const NodeId src = f.topo.host_groups[0][0];
  const NodeId dst = f.topo.host_groups[3][0];
  // The direct lightpath is gray (30%), but every other lightpath of
  // the mesh is worse (25% per leg = ~44% per two-hop detour).
  for (const auto& link : f.topo.graph.links()) losses.loss[link.id] = 0.25;
  losses.loss[direct_link(f.topo, f.topo.tors[0], f.topo.tors[3])] = 0.3;
  EXPECT_EQ(walk(f.topo.graph, oracle, src, dst, 7).size(), 2u);
}

TEST(AdaptiveVlbOracle, HealsLossyDirectPathOverTwoHopDetour) {
  const MeshFixture f(6, 2);
  AdaptiveVlbOracle oracle(*f.routing, f.topo.quartz_rings);
  FakeLossView losses;
  oracle.attach_loss_view(&losses);
  const LinkId direct = direct_link(f.topo, f.topo.tors[0], f.topo.tors[3]);
  losses.loss[direct] = 0.5;
  for (std::uint64_t flow = 0; flow < 16; ++flow) {
    const auto path =
        walk(f.topo.graph, oracle, f.topo.host_groups[0][0], f.topo.host_groups[3][0], flow);
    ASSERT_EQ(path.size(), 3u);
    EXPECT_NE(direct_link(f.topo, path[0], path[1]), direct);
    EXPECT_NE(direct_link(f.topo, path[1], path[2]), direct);
  }
}

TEST(SpanningTreeOracle, RoutesAlongTree) {
  topo::TwoTierParams p;
  p.tors = 4;
  p.hosts_per_tor = 2;
  const auto t = topo::two_tier_tree(p);
  const SpanningTreeOracle oracle(t.graph, t.aggs[0]);
  const auto path = walk(t.graph, oracle, t.host_groups[0][0], t.host_groups[3][1], 1);
  // ToR up, agg, ToR down.
  EXPECT_EQ(path.size(), 3u);
  EXPECT_EQ(path[1], t.aggs[0]);
}

TEST(SpanningTreeOracle, MeshUsesOnlyTreeLinks) {
  // §3.4: Ethernet's single spanning tree wastes the mesh - every
  // cross-switch path detours through the root.
  const MeshFixture f(5, 2);
  const SpanningTreeOracle oracle(f.topo.graph, f.topo.tors[0]);
  const auto path =
      walk(f.topo.graph, oracle, f.topo.host_groups[1][0], f.topo.host_groups[2][0], 3);
  // Root is tors[0]; path 1 -> 0 -> 2 (two mesh links via root).
  ASSERT_EQ(path.size(), 3u);
  EXPECT_EQ(path[1], f.topo.tors[0]);
}

TEST(SpanningTreeOracle, SameSwitchShortCircuit) {
  const MeshFixture f(4, 2);
  const SpanningTreeOracle oracle(f.topo.graph, f.topo.tors[0]);
  const auto path =
      walk(f.topo.graph, oracle, f.topo.host_groups[1][0], f.topo.host_groups[1][1], 3);
  EXPECT_EQ(path.size(), 1u);
}

}  // namespace
}  // namespace quartz::routing
