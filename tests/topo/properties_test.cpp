#include "topo/properties.hpp"

#include <gtest/gtest.h>

namespace quartz::topo {
namespace {

TEST(Properties, TwoTierTreeDiversityIsOne) {
  TwoTierParams p;
  p.tors = 4;
  p.hosts_per_tor = 4;
  const TopologyProperties props = analyze(two_tier_tree(p));
  EXPECT_EQ(props.path_diversity, 1);
  EXPECT_EQ(props.switch_hops, 3);  // ToR - agg - ToR
  EXPECT_EQ(props.server_hops, 0);
}

TEST(Properties, MeshDiversityIsMMinusOne) {
  // Table 9: a full mesh of M switches has M-1 edge-disjoint paths
  // between any two switches (1 direct + M-2 two-hop).
  QuartzRingParams p;
  p.switches = 8;
  p.hosts_per_switch = 2;
  const TopologyProperties props = analyze(quartz_ring(p));
  EXPECT_EQ(props.path_diversity, 7);
  EXPECT_EQ(props.switch_hops, 2);
}

TEST(Properties, MeshZeroLoadLatencyIsTwoUllHops) {
  QuartzRingParams p;
  p.switches = 4;
  p.hosts_per_switch = 2;
  const TopologyProperties props = analyze(quartz_ring(p));
  // Table 9's "1.0us (2 switch hops)" uses 0.5us switches; with the
  // ULL's 380ns the mesh worst case is 760ns.
  EXPECT_EQ(props.zero_load_latency, nanoseconds(760));
}

TEST(Properties, FatTreeClosDiversityEqualsUplinks) {
  FatTreeParams p;
  p.leaves = 8;
  p.spines = 4;
  p.hosts_per_leaf = 8;
  p.links_per_leaf_spine = 2;
  const TopologyProperties props = analyze(fat_tree_clos(p));
  EXPECT_EQ(props.path_diversity, 8);  // 4 spines x 2 links
  EXPECT_EQ(props.switch_hops, 3);
}

TEST(Properties, BCubeUsesServerHop) {
  BCubeParams p;
  p.n = 4;
  const TopologyProperties props = analyze(bcube1(p));
  EXPECT_EQ(props.switch_hops, 2);
  EXPECT_EQ(props.server_hops, 1);
  // Dual-homed hosts: diversity is the two NICs.
  EXPECT_EQ(props.path_diversity, 2);
  // Zero-load latency includes one 15us server relay.
  EXPECT_GT(props.zero_load_latency, microseconds(15));
}

TEST(Properties, ThreeTierCrossPodLatencyDominatedByCore) {
  ThreeTierParams p;
  p.pods = 2;
  p.tors_per_pod = 2;
  p.hosts_per_tor = 2;
  const TopologyProperties props = analyze(three_tier_tree(p));
  EXPECT_EQ(props.switch_hops, 5);
  // 4 ULL + 1 CCS = 4 x 380ns + 6us = 7.52us.
  EXPECT_EQ(props.zero_load_latency, nanoseconds(4 * 380) + microseconds(6));
}

TEST(Properties, WiringComplexityCountsCrossRackLinks) {
  TwoTierParams p;
  p.tors = 4;
  p.hosts_per_tor = 4;
  const BuiltTopology t = two_tier_tree(p);
  // Host links are in-rack; ToR->agg links cross.
  EXPECT_EQ(cross_rack_links(t.graph), 4);
}

TEST(Properties, MeshWiringComplexityIsChooseTwo) {
  QuartzRingParams p;
  p.switches = 33;
  p.hosts_per_switch = 1;
  const TopologyProperties props = analyze(quartz_ring(p));
  EXPECT_EQ(props.wiring_complexity, 528);  // Table 9
}

TEST(Properties, DiversityBetweenSpecificNodes) {
  QuartzRingParams p;
  p.switches = 5;
  p.hosts_per_switch = 1;
  const BuiltTopology t = quartz_ring(p);
  EXPECT_EQ(path_diversity_between(t.graph, t.tors[0], t.tors[3]), 4);
  EXPECT_THROW(path_diversity_between(t.graph, t.tors[0], t.tors[0]), std::invalid_argument);
}

TEST(Properties, CountsMatchBuilders) {
  JellyfishParams p;
  const TopologyProperties props = analyze(jellyfish(p));
  EXPECT_EQ(props.switch_count, 16);
  EXPECT_EQ(props.host_count, 64);
  EXPECT_EQ(props.wiring_complexity, 32);  // 16 x 4 / 2
  EXPECT_LE(props.path_diversity, 4);      // bounded by switch degree
  EXPECT_GE(props.path_diversity, 1);
}

TEST(Properties, JellyfishDiameterSmall) {
  JellyfishParams p;
  const TopologyProperties props = analyze(jellyfish(p));
  // 16 switches with degree 4: diameter a few hops.
  EXPECT_LE(props.switch_hops, 5);
  EXPECT_GE(props.switch_hops, 2);
}

TEST(Properties, DCellMatchesServerCentricProfile) {
  DCellParams p;
  p.n = 6;
  const TopologyProperties props = analyze(dcell1(p));
  EXPECT_EQ(props.switch_hops, 2);
  EXPECT_EQ(props.server_hops, 2);  // two server relays worst case
  EXPECT_EQ(props.path_diversity, 2);
  EXPECT_GT(props.zero_load_latency, microseconds(30));
}

}  // namespace
}  // namespace quartz::topo
