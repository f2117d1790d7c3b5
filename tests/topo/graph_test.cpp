#include "topo/graph.hpp"

#include <gtest/gtest.h>

namespace quartz::topo {
namespace {

Graph two_hosts_one_switch() {
  Graph g;
  const int model = g.add_model(SwitchModel::ull());
  const NodeId sw = g.add_switch(model, "sw0", 0);
  const NodeId h0 = g.add_host("h0", 0);
  const NodeId h1 = g.add_host("h1", 0);
  g.add_link(h0, sw, gigabits_per_second(10), nanoseconds(25));
  g.add_link(h1, sw, gigabits_per_second(10), nanoseconds(25));
  return g;
}

TEST(Graph, BasicConstruction) {
  const Graph g = two_hosts_one_switch();
  EXPECT_EQ(g.node_count(), 3u);
  EXPECT_EQ(g.link_count(), 2u);
  EXPECT_EQ(g.hosts().size(), 2u);
  EXPECT_EQ(g.switches().size(), 1u);
  EXPECT_NO_THROW(g.validate());
}

TEST(Graph, NeighborsAndDegree) {
  const Graph g = two_hosts_one_switch();
  const NodeId sw = g.switches()[0];
  EXPECT_EQ(g.degree(sw), 2u);
  EXPECT_EQ(g.neighbors(sw).size(), 2u);
  for (const auto& adj : g.neighbors(sw)) {
    EXPECT_TRUE(g.is_host(adj.peer));
    EXPECT_EQ(g.link(adj.link).other(sw), adj.peer);
  }
}

TEST(Graph, ModelOfSwitch) {
  const Graph g = two_hosts_one_switch();
  EXPECT_EQ(g.model_of(g.switches()[0]).latency, nanoseconds(380));
  EXPECT_THROW(g.model_of(g.hosts()[0]), std::invalid_argument);
}

TEST(Graph, RejectsSelfLoop) {
  Graph g;
  const NodeId h = g.add_host("h", 0);
  EXPECT_THROW(g.add_link(h, h, gigabits_per_second(1), 0), std::invalid_argument);
}

TEST(Graph, RejectsUnknownEndpoints) {
  Graph g;
  g.add_host("h", 0);
  EXPECT_THROW(g.add_link(0, 5, gigabits_per_second(1), 0), std::invalid_argument);
}

TEST(Graph, RejectsBadRates) {
  Graph g;
  const NodeId a = g.add_host("a", 0);
  const NodeId b = g.add_host("b", 0);
  EXPECT_THROW(g.add_link(a, b, 0, 0), std::invalid_argument);
  EXPECT_THROW(g.add_link(a, b, gigabits_per_second(1), -1), std::invalid_argument);
}

TEST(Graph, RejectsUnknownModel) {
  Graph g;
  EXPECT_THROW(g.add_switch(0, "sw"), std::invalid_argument);
}

TEST(Graph, ValidateCatchesPortOverflow) {
  Graph g;
  SwitchModel tiny = SwitchModel::ull();
  tiny.port_count = 1;
  const int model = g.add_model(tiny);
  const NodeId sw = g.add_switch(model, "sw");
  const NodeId h0 = g.add_host("h0", 0);
  const NodeId h1 = g.add_host("h1", 0);
  g.add_link(h0, sw, gigabits_per_second(1), 0);
  g.add_link(h1, sw, gigabits_per_second(1), 0);
  EXPECT_THROW(g.validate(), std::logic_error);
}

TEST(Graph, ValidateCatchesUnconnectedHost) {
  Graph g;
  g.add_host("orphan", 0);
  EXPECT_THROW(g.validate(), std::logic_error);
}

TEST(Graph, ValidateCatchesDisconnection) {
  Graph g;
  const int model = g.add_model(SwitchModel::ull());
  const NodeId s0 = g.add_switch(model, "s0");
  const NodeId s1 = g.add_switch(model, "s1");
  const NodeId h0 = g.add_host("h0", 0);
  const NodeId h1 = g.add_host("h1", 1);
  g.add_link(h0, s0, gigabits_per_second(1), 0);
  g.add_link(h1, s1, gigabits_per_second(1), 0);
  EXPECT_THROW(g.validate(), std::logic_error);
}

TEST(Graph, WdmMetadataStored) {
  Graph g;
  const int model = g.add_model(SwitchModel::ull());
  const NodeId s0 = g.add_switch(model, "s0");
  const NodeId s1 = g.add_switch(model, "s1");
  const LinkId l = g.add_link(s0, s1, gigabits_per_second(10), 0, /*wdm_ring=*/1,
                              /*wdm_channel=*/42);
  EXPECT_EQ(g.link(l).wdm_ring, 1);
  EXPECT_EQ(g.link(l).wdm_channel, 42);
}

TEST(Graph, AppendShiftsIdsRacksModelsAndRings) {
  Graph parent = two_hosts_one_switch();
  parent.add_model(SwitchModel::ccs());

  Graph child;
  const int ull = child.add_model(SwitchModel::ull());
  const NodeId s0 = child.add_switch(ull, "c.s0", 2);
  const NodeId s1 = child.add_switch(ull, "c.s1");  // no rack
  const NodeId h = child.add_host("c.h", 0);
  child.add_link(s0, s1, gigabits_per_second(10), 7, /*wdm_ring=*/3, /*wdm_channel=*/5);
  child.add_link(h, s1, gigabits_per_second(1), 9);

  const Graph::Splice at = parent.append(std::move(child), /*rack_base=*/10, /*wdm_ring_base=*/4);
  EXPECT_EQ(child.node_count(), 0u);
  EXPECT_EQ(at.node_base, 3);
  EXPECT_EQ(at.link_base, 2);
  EXPECT_EQ(at.racks, 3);      // highest child rack 2, plus one
  EXPECT_EQ(at.wdm_rings, 4);  // highest child ring 3, plus one

  ASSERT_EQ(parent.node_count(), 6u);
  ASSERT_EQ(parent.link_count(), 4u);
  ASSERT_EQ(parent.models().size(), 3u);
  EXPECT_EQ(parent.models()[2].name, SwitchModel::ull().name);
  EXPECT_EQ(parent.node(3).label, "c.s0");
  EXPECT_EQ(parent.node(3).id, 3);
  EXPECT_EQ(parent.node(3).model, 2);
  EXPECT_EQ(parent.node(3).rack, 12);
  EXPECT_EQ(parent.node(4).rack, -1);
  EXPECT_EQ(parent.node(5).rack, 10);
  EXPECT_TRUE(parent.is_host(5));

  const Link& mesh = parent.link(2);
  EXPECT_EQ(mesh.id, 2);
  EXPECT_EQ(mesh.a, 3);
  EXPECT_EQ(mesh.b, 4);
  EXPECT_EQ(mesh.propagation, 7);
  EXPECT_EQ(mesh.wdm_ring, 7);
  EXPECT_EQ(mesh.wdm_channel, 5);
  EXPECT_EQ(parent.link(3).wdm_ring, -1);

  const auto ports = parent.neighbors(4);
  ASSERT_EQ(ports.size(), 2u);
  EXPECT_EQ(ports[0].link, 2);
  EXPECT_EQ(ports[0].peer, 3);
  EXPECT_EQ(ports[1].link, 3);
  EXPECT_EQ(ports[1].peer, 5);

  // Links added after the splice land behind the spliced ports.
  parent.add_link(0, 3, gigabits_per_second(40), 0);
  EXPECT_EQ(parent.neighbors(3).back().link, 4);
  parent.validate();
}

TEST(SwitchModels, Table16Specs) {
  const SwitchModel ull = SwitchModel::ull();
  EXPECT_EQ(ull.latency, nanoseconds(380));
  EXPECT_TRUE(ull.cut_through);
  EXPECT_EQ(ull.port_count, 64);

  const SwitchModel ccs = SwitchModel::ccs();
  EXPECT_EQ(ccs.latency, microseconds(6));
  EXPECT_FALSE(ccs.cut_through);
  EXPECT_EQ(ccs.port_count, 768);
}

}  // namespace
}  // namespace quartz::topo
