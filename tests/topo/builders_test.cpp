#include "topo/builders.hpp"

#include <gtest/gtest.h>

#include <set>

namespace quartz::topo {
namespace {

int inter_switch_links(const Graph& g) {
  int count = 0;
  for (const auto& link : g.links()) {
    if (g.is_switch(link.a) && g.is_switch(link.b)) ++count;
  }
  return count;
}

TEST(Builders, TwoTierTree) {
  TwoTierParams p;
  p.tors = 4;
  p.hosts_per_tor = 8;
  const BuiltTopology t = two_tier_tree(p);
  EXPECT_EQ(t.hosts.size(), 32u);
  EXPECT_EQ(t.tors.size(), 4u);
  EXPECT_EQ(t.aggs.size(), 1u);
  EXPECT_EQ(inter_switch_links(t.graph), 4);
  EXPECT_EQ(t.host_groups.size(), 4u);
  EXPECT_NO_THROW(t.graph.validate());
}

TEST(Builders, ThreeTierTree) {
  ThreeTierParams p;  // 2 pods x 4 ToRs x 8 hosts, 2 aggs/pod, 2 cores
  const BuiltTopology t = three_tier_tree(p);
  EXPECT_EQ(t.hosts.size(), 64u);
  EXPECT_EQ(t.tors.size(), 8u);
  EXPECT_EQ(t.aggs.size(), 4u);
  EXPECT_EQ(t.cores.size(), 2u);
  // ToR->agg: 8 ToRs x 2 aggs; agg->core: 4 aggs x 2 cores.
  EXPECT_EQ(inter_switch_links(t.graph), 8 * 2 + 4 * 2);
  EXPECT_EQ(t.host_groups.size(), 2u);  // one per pod
  EXPECT_EQ(t.host_groups[0].size(), 32u);
}

TEST(Builders, FatTreeClosTable9Shape) {
  // The Table 9 "Fat-Tree" row: 32 leaves + 16 spines = 48 switches,
  // 1024 hosts, 1024 inter-switch links.
  FatTreeParams p;
  const BuiltTopology t = fat_tree_clos(p);
  EXPECT_EQ(t.graph.switches().size(), 48u);
  EXPECT_EQ(t.hosts.size(), 1024u);
  EXPECT_EQ(inter_switch_links(t.graph), 1024);
}

TEST(Builders, BCube1Shape) {
  BCubeParams p;
  p.n = 4;
  const BuiltTopology t = bcube1(p);
  EXPECT_EQ(t.hosts.size(), 16u);           // n^2
  EXPECT_EQ(t.graph.switches().size(), 8u);  // 2n
  // Every host has two NICs.
  for (NodeId h : t.hosts) EXPECT_EQ(t.graph.degree(h), 2u);
  EXPECT_EQ(inter_switch_links(t.graph), 0);
}

TEST(Builders, JellyfishRegularDegree) {
  JellyfishParams p;  // 16 switches, degree 4
  const BuiltTopology t = jellyfish(p);
  EXPECT_EQ(t.hosts.size(), 64u);
  EXPECT_EQ(inter_switch_links(t.graph), 16 * 4 / 2);
  for (NodeId sw : t.tors) {
    EXPECT_EQ(t.graph.degree(sw), static_cast<std::size_t>(4 + 4));
  }
  EXPECT_NO_THROW(t.graph.validate());
}

TEST(Builders, JellyfishNoParallelInterSwitchLinks) {
  JellyfishParams p;
  p.seed = 7;
  const BuiltTopology t = jellyfish(p);
  std::set<std::pair<NodeId, NodeId>> seen;
  for (const auto& link : t.graph.links()) {
    if (!t.graph.is_switch(link.a) || !t.graph.is_switch(link.b)) continue;
    const auto key = std::minmax(link.a, link.b);
    EXPECT_TRUE(seen.insert(key).second) << "parallel link " << link.a << "-" << link.b;
  }
}

TEST(Builders, JellyfishDeterministicPerSeed) {
  JellyfishParams p;
  p.seed = 42;
  const BuiltTopology a = jellyfish(p);
  const BuiltTopology b = jellyfish(p);
  EXPECT_EQ(a.graph.link_count(), b.graph.link_count());
  for (std::size_t i = 0; i < a.graph.link_count(); ++i) {
    EXPECT_EQ(a.graph.link(static_cast<LinkId>(i)).a, b.graph.link(static_cast<LinkId>(i)).a);
    EXPECT_EQ(a.graph.link(static_cast<LinkId>(i)).b, b.graph.link(static_cast<LinkId>(i)).b);
  }
}

TEST(Builders, QuartzRingIsFullMesh) {
  QuartzRingParams p;
  p.switches = 6;
  p.hosts_per_switch = 4;
  const BuiltTopology t = quartz_ring(p);
  EXPECT_EQ(t.hosts.size(), 24u);
  EXPECT_EQ(t.quartz_rings.size(), 1u);
  EXPECT_EQ(t.quartz_rings[0].size(), 6u);
  // Full mesh: C(6,2) = 15 lightpath links.
  EXPECT_EQ(inter_switch_links(t.graph), 15);
}

TEST(Builders, QuartzRingLinksCarryWdmMetadata) {
  QuartzRingParams p;
  p.switches = 5;
  const BuiltTopology t = quartz_ring(p);
  std::set<int> channels;
  for (const auto& link : t.graph.links()) {
    if (!t.graph.is_switch(link.a) || !t.graph.is_switch(link.b)) continue;
    EXPECT_GE(link.wdm_channel, 0);
    EXPECT_EQ(link.wdm_ring, 0);  // 5-ring fits one mux
    channels.insert(link.wdm_channel);
  }
  // Each pair has a dedicated channel; with reuse across disjoint arcs
  // the distinct count is <= pairs but >= the lower bound.
  EXPECT_LE(static_cast<int>(channels.size()), 10);
  EXPECT_GE(static_cast<int>(channels.size()), 3);
}

TEST(Builders, QuartzInCoreReplacesCores) {
  QuartzCoreParams p;
  const BuiltTopology t = quartz_in_core(p);
  EXPECT_EQ(t.cores.size(), 4u);  // ring switches act as the core
  EXPECT_EQ(t.quartz_rings.size(), 1u);
  EXPECT_EQ(t.hosts.size(), 64u);
  // Core ring is meshed: C(4,2) = 6 lightpaths.
  int mesh_links = 0;
  for (const auto& link : t.graph.links()) {
    if (link.wdm_channel >= 0) ++mesh_links;
  }
  EXPECT_EQ(mesh_links, 6);
  EXPECT_NO_THROW(t.graph.validate());
}

TEST(Builders, QuartzInEdgeHostsMatchTree) {
  QuartzEdgeParams p;  // 2 pods x 4 ring switches x 8 hosts
  const BuiltTopology t = quartz_in_edge(p);
  EXPECT_EQ(t.hosts.size(), 64u);
  EXPECT_EQ(t.quartz_rings.size(), 2u);
  EXPECT_EQ(t.cores.size(), 2u);
  EXPECT_EQ(t.host_groups.size(), 2u);
  EXPECT_EQ(t.host_groups[0].size(), 32u);
}

TEST(Builders, QuartzInEdgeAndCoreHasAllRings) {
  QuartzEdgeCoreParams p;
  const BuiltTopology t = quartz_in_edge_and_core(p);
  EXPECT_EQ(t.quartz_rings.size(), 3u);  // core ring + 2 edge rings
  EXPECT_EQ(t.hosts.size(), 64u);
  EXPECT_EQ(t.cores.size(), 4u);
  EXPECT_NO_THROW(t.graph.validate());
}

TEST(Builders, QuartzInJellyfishShape) {
  QuartzJellyfishParams p;  // 4 rings x 4 switches x 4 hosts
  const BuiltTopology t = quartz_in_jellyfish(p);
  EXPECT_EQ(t.hosts.size(), 64u);
  EXPECT_EQ(t.quartz_rings.size(), 4u);
  // Inter-ring random links: 4 rings x 4 stubs / 2.
  int inter_ring = 0;
  for (const auto& link : t.graph.links()) {
    if (t.graph.is_switch(link.a) && t.graph.is_switch(link.b) && link.wdm_channel < 0) {
      ++inter_ring;
    }
  }
  EXPECT_EQ(inter_ring, 8);
  EXPECT_NO_THROW(t.graph.validate());
}

TEST(Builders, SingleSwitch) {
  SingleSwitchParams p;
  p.hosts = 16;
  const BuiltTopology t = single_switch(p);
  EXPECT_EQ(t.hosts.size(), 16u);
  EXPECT_EQ(t.graph.switches().size(), 1u);
  EXPECT_EQ(t.cores.size(), 1u);
}

TEST(Builders, PortBudgetsRespectedEverywhere) {
  // Every builder output must pass graph validation (which checks the
  // per-model port budget).
  BCubeParams bcube_params;
  bcube_params.n = 8;
  EXPECT_NO_THROW(two_tier_tree({}).graph.validate());
  EXPECT_NO_THROW(three_tier_tree({}).graph.validate());
  EXPECT_NO_THROW(bcube1(bcube_params).graph.validate());
  EXPECT_NO_THROW(dcell1({}).graph.validate());
  EXPECT_NO_THROW(jellyfish({}).graph.validate());
  EXPECT_NO_THROW(quartz_ring({}).graph.validate());
  EXPECT_NO_THROW(quartz_in_core({}).graph.validate());
  EXPECT_NO_THROW(quartz_in_edge({}).graph.validate());
  EXPECT_NO_THROW(quartz_in_edge_and_core({}).graph.validate());
  EXPECT_NO_THROW(quartz_in_jellyfish({}).graph.validate());
}

TEST(Builders, RejectsInvalidParams) {
  QuartzRingParams tiny_ring;
  tiny_ring.switches = 1;
  EXPECT_THROW(quartz_ring(tiny_ring), std::invalid_argument);
  TwoTierParams no_tors;
  no_tors.tors = 0;
  EXPECT_THROW(two_tier_tree(no_tors), std::invalid_argument);
  ThreeTierParams no_pods;
  no_pods.pods = 0;
  EXPECT_THROW(three_tier_tree(no_pods), std::invalid_argument);
  BCubeParams tiny_bcube;
  tiny_bcube.n = 1;
  EXPECT_THROW(bcube1(tiny_bcube), std::invalid_argument);
}

TEST(Builders, DCellShape) {
  DCellParams p;
  p.n = 4;
  const BuiltTopology t = dcell1(p);
  EXPECT_EQ(t.hosts.size(), 20u);           // n(n+1)
  EXPECT_EQ(t.graph.switches().size(), 5u);  // n+1 cells
  // Every host has a switch NIC and an inter-cell NIC.
  for (NodeId h : t.hosts) EXPECT_EQ(t.graph.degree(h), 2u);
  // Inter-cell host-host links: C(n+1, 2).
  int host_host = 0;
  for (const auto& link : t.graph.links()) {
    if (t.graph.is_host(link.a) && t.graph.is_host(link.b)) ++host_host;
  }
  EXPECT_EQ(host_host, 10);
  EXPECT_NO_THROW(t.graph.validate());
}

TEST(Builders, DCellPaperScaleCounts) {
  DCellParams p;
  p.n = 32;
  const BuiltTopology t = dcell1(p);
  EXPECT_EQ(t.hosts.size(), 1056u);  // same port count as the 33-switch mesh
  EXPECT_EQ(t.graph.switches().size(), 33u);
}

class QuartzRingSizeSweep : public ::testing::TestWithParam<int> {};

TEST_P(QuartzRingSizeSweep, MeshEdgeCountIsChooseTwo) {
  QuartzRingParams p;
  p.switches = GetParam();
  p.hosts_per_switch = 1;
  const BuiltTopology t = quartz_ring(p);
  EXPECT_EQ(inter_switch_links(t.graph), GetParam() * (GetParam() - 1) / 2);
}

INSTANTIATE_TEST_SUITE_P(Sizes, QuartzRingSizeSweep, ::testing::Values(2, 3, 4, 8, 16, 24, 33));

}  // namespace
}  // namespace quartz::topo
