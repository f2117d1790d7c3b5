// Hierarchical composition (topo/composite.hpp): spec grammar, the
// hand-countable 4x4 ring-of-rings, level-tagged metadata, analytic
// properties, flow-level bisection, per-element fiber-cut fate, and
// equivalence of the splicing builder with a node-by-node reference.
#include "topo/composite.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <set>
#include <string>

#include "flow/maxmin.hpp"
#include "routing/hierarchical.hpp"
#include "topo/failures.hpp"
#include "topo/properties.hpp"
#include "wavelength/assign.hpp"

namespace quartz::topo {
namespace {

TEST(CompositeSpec, ParseRoundTrips) {
  const char* specs[] = {
      "ring-of-rings:4x4",
      "ring-of-rings:8x8@2",
      "ring-of-rings:48x48x48+10",
      "ring-of-rings:4x4x4@1+10",
      "ring-of-trees:4x8@2",
  };
  for (const char* text : specs) {
    SCOPED_TRACE(text);
    std::string error;
    const auto spec = CompositeSpec::parse(text, &error);
    ASSERT_TRUE(spec.has_value()) << error;
    EXPECT_EQ(spec->to_string(), text);
    const auto again = CompositeSpec::parse(spec->to_string());
    ASSERT_TRUE(again.has_value());
    EXPECT_EQ(again->kind, spec->kind);
    EXPECT_EQ(again->dims, spec->dims);
    EXPECT_EQ(again->hosts_per_switch, spec->hosts_per_switch);
    EXPECT_EQ(again->modeled_hosts_per_switch, spec->modeled_hosts_per_switch);
  }
}

TEST(CompositeSpec, ParseFields) {
  const auto spec = CompositeSpec::parse("ring-of-rings:4x6x8@2+10");
  ASSERT_TRUE(spec.has_value());
  EXPECT_EQ(spec->kind, "ring-of-rings");
  EXPECT_EQ(spec->dims, (std::vector<int>{4, 6, 8}));
  EXPECT_EQ(spec->hosts_per_switch, 2);
  EXPECT_EQ(spec->modeled_hosts_per_switch, 10);
  EXPECT_EQ(spec->levels(), 3);
}

TEST(CompositeSpec, RejectsMalformedSpecs) {
  const char* bad[] = {
      "",                        // empty
      "ring-of-rings",           // no colon
      "quartz:4x4",              // unknown kind
      "ring-of-rings:",          // no dims
      "ring-of-rings:1x4",       // dim below 2
      "ring-of-rings:4x5000",    // dim above 4096
      "ring-of-rings:4xfour",    // non-integer dim
      "ring-of-rings:4x4@0",     // zero hosts
      "ring-of-rings:4x4+0",     // zero modeled hosts
      "ring-of-rings:4x4@-1",    // negative hosts
  };
  for (const char* text : bad) {
    SCOPED_TRACE(text);
    std::string error;
    EXPECT_FALSE(CompositeSpec::parse(text, &error).has_value());
    EXPECT_FALSE(error.empty());
  }
}

/// The hand-countable fabric: a ring of 4 elements, each a 4-switch
/// Quartz ring, two hosts per switch.
BuiltTopology four_by_four() {
  const auto spec = CompositeSpec::parse("ring-of-rings:4x4@2");
  return build_composite(*spec);
}

TEST(Composite, FourByFourHandCounts) {
  const auto t = four_by_four();
  // 16 switches; 4 leaf full meshes of C(4,2)=6 lightpaths, C(4,2)=6
  // trunks between the 4 elements, and 32 host access links.
  EXPECT_EQ(t.tors.size(), 16u);
  EXPECT_EQ(t.hosts.size(), 32u);
  std::size_t mesh = 0, trunk = 0, host = 0;
  for (const auto& link : t.graph.links()) {
    const bool host_link = t.graph.is_host(link.a) || t.graph.is_host(link.b);
    if (host_link) {
      ++host;
    } else if (link.wdm_channel >= 0) {
      ++mesh;
    } else {
      ++trunk;
    }
  }
  EXPECT_EQ(mesh, 4u * 6u);
  EXPECT_EQ(trunk, 6u);
  EXPECT_EQ(host, 32u);
  EXPECT_EQ(t.graph.links().size(), 24u + 6u + 32u);
}

TEST(Composite, MetaIsLevelTagged) {
  const auto t = four_by_four();
  ASSERT_NE(t.composite, nullptr);
  const CompositeMeta& meta = *t.composite;
  EXPECT_TRUE(meta.uniform);
  EXPECT_EQ(meta.arity, (std::vector<int>{4, 4}));
  EXPECT_EQ(meta.levels(), 2);
  EXPECT_EQ(meta.parent_count, (std::vector<std::int64_t>{1, 4}));
  EXPECT_EQ(meta.group_universe(), 8);
  EXPECT_EQ(meta.leaf_members.size(), 16u);
  EXPECT_EQ(meta.modeled_hosts, 32);

  // Every switch carries a (element, slot) path; hosts inherit their
  // attachment switch's path.
  for (int e = 0; e < 4; ++e) {
    for (int s = 0; s < 4; ++s) {
      const NodeId node = meta.leaf_members[static_cast<std::size_t>(e * 4 + s)];
      EXPECT_EQ(meta.path_at(node, 0), e);
      EXPECT_EQ(meta.path_at(node, 1), s);
    }
  }

  // Trunks: every off-diagonal element pair has a live link, shared by
  // both directions; diagonal entries stay unset.
  std::set<LinkId> trunk_links;
  for (int from = 0; from < 4; ++from) {
    for (int to = 0; to < 4; ++to) {
      const TrunkEntry& entry = meta.trunk(0, 0, from, to);
      if (from == to) {
        EXPECT_EQ(entry.link, kInvalidLink);
        continue;
      }
      ASSERT_NE(entry.link, kInvalidLink);
      EXPECT_EQ(entry.link, meta.trunk(0, 0, to, from).link);
      EXPECT_EQ(meta.path_at(entry.gateway, 0), from);
      EXPECT_EQ(meta.path_at(entry.peer_gateway, 0), to);
      trunk_links.insert(entry.link);
    }
  }
  EXPECT_EQ(trunk_links.size(), 6u);

  // group_of: co-located pairs need no FIB entry; same-element pairs
  // key on the leaf level; cross-element pairs on the outer level.
  const NodeId a = meta.leaf_members[0];   // element 0, slot 0
  const NodeId b = meta.leaf_members[1];   // element 0, slot 1
  const NodeId c = meta.leaf_members[9];   // element 2, slot 1
  EXPECT_EQ(meta.group_of(a, a), -1);
  EXPECT_EQ(meta.group_of(a, b), 4 + 1);  // level_offset[1] + slot
  EXPECT_EQ(meta.group_of(a, c), 0 + 2);  // level_offset[0] + element
  EXPECT_EQ(meta.divergence_level(a, b), 1);
  EXPECT_EQ(meta.divergence_level(a, c), 0);
}

TEST(Composite, ModeledHostsAccountVirtualSlots) {
  const auto spec = CompositeSpec::parse("ring-of-rings:4x4@2+10");
  const auto t = build_composite(*spec);
  // 32 materialized + 10 virtual on each of 16 leaf switches.
  EXPECT_EQ(t.hosts.size(), 32u);
  ASSERT_NE(t.composite, nullptr);
  EXPECT_EQ(t.composite->modeled_hosts, 32 + 16 * 10);
  EXPECT_EQ(t.composite->virtual_hosts_per_switch, 10);
}

TEST(Composite, PropertiesMatchHandComputedDiameter) {
  const auto props = analyze(four_by_four());
  EXPECT_EQ(props.switch_count, 16);
  EXPECT_EQ(props.host_count, 32);
  // Worst pair: non-gateway switch -> leaf mesh hop to its gateway ->
  // trunk -> leaf mesh hop from the peer gateway -> non-gateway switch,
  // i.e. 4 switches on the path (diameter 3 switch-to-switch hops).
  EXPECT_EQ(props.switch_hops, 4);
  EXPECT_EQ(props.server_hops, 0);
  EXPECT_GT(props.zero_load_latency, 0);
  // Each element reaches the rest of the fabric over its 3 trunk
  // gateways (edge-disjoint), so the farthest pair still has 3
  // switch-disjoint paths.
  EXPECT_EQ(props.path_diversity, 3);
}

TEST(Composite, BisectionIsTrunkLimited) {
  // Two elements joined by a single 40G trunk: four greedy 10G host
  // flows crossing the trunk waterfill to exactly the trunk rate.
  const auto spec = CompositeSpec::parse("ring-of-rings:2x4@1");
  const auto t = build_composite(*spec);
  routing::HierOracle oracle(t);

  std::vector<flow::Flow> flows;
  for (std::size_t i = 0; i < 4; ++i) {
    flow::Flow f;
    f.src = t.hosts[i];          // element 0
    f.dst = t.hosts[4 + i];      // element 1
    const auto path = oracle.route(f.src, f.dst);
    flow::Route route;
    route.links = path.links;
    route.directions = path.directions;
    f.routes.push_back(std::move(route));
    flows.push_back(std::move(f));
  }
  const auto result = flow::max_min_fair(t.graph, flows);
  EXPECT_NEAR(result.aggregate, 4e10, 1e4);
  for (const double rate : result.flow_rate) EXPECT_NEAR(rate, 1e10, 1e4);
}

TEST(Composite, FiberCutsStayPerElement) {
  // The builder keeps each leaf ring's physical-ring range disjoint, so
  // a cut on one element's fiber severs only that element's lightpaths.
  const auto t = four_by_four();
  ASSERT_NE(t.composite, nullptr);
  for (int ring = 0; ring < 4; ++ring) {
    SCOPED_TRACE(ring);
    const auto severed = severed_links(t, {FiberCut{ring, 0}});
    ASSERT_FALSE(severed.empty());
    for (const LinkId id : severed) {
      const auto& link = t.graph.link(id);
      EXPECT_EQ(t.composite->path_at(link.a, 0), ring);
      EXPECT_EQ(t.composite->path_at(link.b, 0), ring);
    }
  }
}

TEST(Composite, SurvivesSingleElementCutConnected) {
  const auto t = four_by_four();
  const auto outcome = try_survive_fiber_cuts(t, {FiberCut{0, 0}});
  EXPECT_FALSE(outcome.partitioned);
  EXPECT_GT(outcome.severed, 0u);
  EXPECT_EQ(outcome.components, 1);
}

TEST(Composite, HeterogeneousComposeGetsSlotTags) {
  // Splicing different-size rings still tags every node with its slot,
  // but cannot promise the uniform closed-form gateway rule.
  QuartzRingParams small;
  small.switches = 4;
  small.hosts_per_switch = 1;
  QuartzRingParams big;
  big.switches = 6;
  big.hosts_per_switch = 1;
  std::vector<BuiltTopology> elements;
  elements.push_back(quartz_ring(small));
  elements.push_back(quartz_ring(big));
  const auto t = compose_in_ring(std::move(elements));

  ASSERT_NE(t.composite, nullptr);
  EXPECT_FALSE(t.composite->uniform);
  EXPECT_EQ(t.composite->levels(), 1);
  EXPECT_EQ(t.composite->arity, (std::vector<int>{2}));
  EXPECT_EQ(t.tors.size(), 10u);
  // Slot tags partition the switches 4 / 6.
  int slot0 = 0, slot1 = 0;
  for (const NodeId tor : t.tors) {
    (t.composite->path_at(tor, 0) == 0 ? slot0 : slot1) += 1;
  }
  EXPECT_EQ(slot0, 4);
  EXPECT_EQ(slot1, 6);
}

// ---------------------------------------------------------------------------
// Reference-equivalence: the splicing builder against a node-by-node
// reference.
//
// The reference composes the way a straightforward builder would: it
// re-adds every child model, node and link through the public add_*
// API, in id order, into a fresh parent, and it runs the greedy channel
// planner for every leaf ring.  compose_in_ring/build_composite must
// produce the same graph (ids, fields, per-node adjacency order), role
// lists and CompositeMeta, field for field.

bool ref_is_plain_ring(const BuiltTopology& e) {
  return !e.composite && e.quartz_rings.size() == 1 && e.aggs.empty() && e.cores.empty() &&
         e.quartz_rings[0].size() == e.tors.size();
}

BuiltTopology reference_compose(std::vector<BuiltTopology> elements, const ComposeParams& params) {
  const int n = static_cast<int>(elements.size());
  bool all_plain = ref_is_plain_ring(elements[0]);
  bool all_uniform = elements[0].composite != nullptr && elements[0].composite->uniform;
  for (const auto& e : elements) {
    all_plain = all_plain && ref_is_plain_ring(e) &&
                e.quartz_rings[0].size() == elements[0].quartz_rings[0].size();
    all_uniform = all_uniform && e.composite != nullptr && e.composite->uniform &&
                  e.composite->arity == elements[0].composite->arity;
  }
  const bool uniform = all_plain || all_uniform;

  BuiltTopology out;
  out.name = params.name;
  Graph& g = out.graph;
  std::vector<NodeId> node_base;
  std::vector<LinkId> link_base;
  int rack_cursor = 0;
  int phys_cursor = 0;
  for (const BuiltTopology& e : elements) {
    const Graph& cg = e.graph;
    const auto nbase = static_cast<NodeId>(g.node_count());
    node_base.push_back(nbase);
    link_base.push_back(static_cast<LinkId>(g.link_count()));
    std::vector<int> model_map;
    for (const SwitchModel& model : cg.models()) model_map.push_back(g.add_model(model));
    int max_rack = -1;
    for (const Node& node : cg.nodes()) {
      const int rack = node.rack < 0 ? -1 : rack_cursor + node.rack;
      if (node.kind == NodeKind::kHost) {
        g.add_host(node.label, rack);
      } else {
        g.add_switch(model_map[static_cast<std::size_t>(node.model)], node.label, rack);
      }
      max_rack = std::max(max_rack, node.rack);
    }
    rack_cursor += max_rack + 1;
    int max_phys = -1;
    for (const Link& link : cg.links()) {
      g.add_link(nbase + link.a, nbase + link.b, link.rate, link.propagation,
                 link.wdm_ring < 0 ? -1 : phys_cursor + link.wdm_ring, link.wdm_channel);
      max_phys = std::max(max_phys, link.wdm_ring);
    }
    phys_cursor += max_phys + 1;
    const auto shift = [nbase](const std::vector<NodeId>& ids) {
      std::vector<NodeId> mapped;
      for (const NodeId id : ids) mapped.push_back(nbase + id);
      return mapped;
    };
    const auto extend = [](std::vector<NodeId>& to, const std::vector<NodeId>& from) {
      to.insert(to.end(), from.begin(), from.end());
    };
    extend(out.hosts, shift(e.hosts));
    extend(out.tors, shift(e.tors));
    extend(out.aggs, shift(e.aggs));
    extend(out.cores, shift(e.cores));
    for (const auto& ring : e.quartz_rings) out.quartz_rings.push_back(shift(ring));
    for (const auto& group : e.host_groups) out.host_groups.push_back(shift(group));
  }

  std::vector<std::size_t> cursor(static_cast<std::size_t>(n), 0);
  const auto next_gateway = [&](int i) {
    const auto& tors = elements[static_cast<std::size_t>(i)].tors;
    return node_base[static_cast<std::size_t>(i)] +
           tors[cursor[static_cast<std::size_t>(i)]++ % tors.size()];
  };
  std::vector<TrunkEntry> top(static_cast<std::size_t>(n * n));
  for (int i = 0; i < n; ++i) {
    for (int j = i + 1; j < n; ++j) {
      for (int t = 0; t < params.trunks_per_pair; ++t) {
        const NodeId gi = next_gateway(i);
        const NodeId gj = next_gateway(j);
        const LinkId link = g.add_link(gi, gj, params.trunk_rate, params.trunk_propagation);
        if (t == 0) {
          top[static_cast<std::size_t>(i * n + j)] = {gi, gj, link};
          top[static_cast<std::size_t>(j * n + i)] = {gj, gi, link};
        }
      }
    }
  }

  auto meta = std::make_shared<CompositeMeta>();
  meta->uniform = uniform;
  if (all_plain) {
    meta->arity = {n, static_cast<int>(elements[0].quartz_rings[0].size())};
  } else if (all_uniform) {
    meta->arity.push_back(n);
    const auto& child = elements[0].composite->arity;
    meta->arity.insert(meta->arity.end(), child.begin(), child.end());
  } else {
    meta->arity = {n};
  }
  const int levels = meta->levels();
  std::int64_t parents = 1;
  std::int32_t offset = 0;
  for (int l = 0; l < levels; ++l) {
    meta->parent_count.push_back(parents);
    parents *= meta->arity[static_cast<std::size_t>(l)];
    meta->level_offset.push_back(offset);
    offset += meta->arity[static_cast<std::size_t>(l)];
  }
  meta->level_offset.push_back(offset);

  meta->path.assign(g.node_count() * static_cast<std::size_t>(levels), 0);
  for (int i = 0; i < n; ++i) {
    const BuiltTopology& e = elements[static_cast<std::size_t>(i)];
    const NodeId nbase = node_base[static_cast<std::size_t>(i)];
    for (NodeId v = 0; v < static_cast<NodeId>(e.graph.node_count()); ++v) {
      const std::size_t at = static_cast<std::size_t>(nbase + v) * static_cast<std::size_t>(levels);
      meta->path[at] = i;
      if (all_plain) {
        const auto& ring = e.quartz_rings[0];
        const NodeId sw = e.graph.is_switch(v) ? v : e.graph.neighbors(v)[0].peer;
        meta->path[at + 1] =
            static_cast<std::int32_t>(std::find(ring.begin(), ring.end(), sw) - ring.begin());
      } else if (all_uniform) {
        for (int l = 0; l < e.composite->levels(); ++l) {
          meta->path[at + 1 + static_cast<std::size_t>(l)] = e.composite->path_at(v, l);
        }
      }
    }
  }

  if (uniform) {
    meta->trunks.push_back(top);
    if (all_plain) {
      for (int i = 0; i < n; ++i) {
        for (const NodeId sw : elements[static_cast<std::size_t>(i)].quartz_rings[0]) {
          meta->leaf_members.push_back(node_base[static_cast<std::size_t>(i)] + sw);
        }
      }
    } else {
      for (int l = 0; l + 1 < elements[0].composite->levels(); ++l) {
        auto& table = meta->trunks.emplace_back();
        for (int i = 0; i < n; ++i) {
          for (TrunkEntry entry :
               elements[static_cast<std::size_t>(i)].composite->trunks[static_cast<std::size_t>(l)]) {
            if (entry.link >= 0) {
              entry.gateway += node_base[static_cast<std::size_t>(i)];
              entry.peer_gateway += node_base[static_cast<std::size_t>(i)];
              entry.link += link_base[static_cast<std::size_t>(i)];
            }
            table.push_back(entry);
          }
        }
      }
      for (int i = 0; i < n; ++i) {
        for (const NodeId sw : elements[static_cast<std::size_t>(i)].composite->leaf_members) {
          meta->leaf_members.push_back(node_base[static_cast<std::size_t>(i)] + sw);
        }
      }
    }
  }

  int child_virtual = -1;
  bool virtual_consistent = true;
  for (const auto& e : elements) {
    meta->modeled_hosts += e.composite != nullptr ? e.composite->modeled_hosts
                                                  : static_cast<std::int64_t>(e.hosts.size());
    const int v = e.composite != nullptr ? e.composite->virtual_hosts_per_switch : 0;
    if (child_virtual < 0) child_virtual = v;
    virtual_consistent = virtual_consistent && v == child_virtual;
  }
  meta->virtual_hosts_per_switch = virtual_consistent && child_virtual > 0 ? child_virtual : 0;
  out.composite = std::move(meta);
  g.validate();
  return out;
}

BuiltTopology reference_leaf_ring(const CompositeParams& params, std::int64_t leaf,
                                  std::int64_t* foreground_cursor) {
  const int m = params.spec.dims.back();
  BuiltTopology topo;
  topo.name = "leaf-ring";
  Graph& g = topo.graph;
  const int model = g.add_model(params.switch_model);
  const std::string prefix = "L" + std::to_string(leaf);
  std::vector<NodeId> ring;
  for (int s = 0; s < m; ++s) {
    const NodeId sw = g.add_switch(model, prefix + "q" + std::to_string(s), s);
    ring.push_back(sw);
    topo.tors.push_back(sw);
    int hosts = params.spec.hosts_per_switch;
    if (*foreground_cursor < params.foreground_leaf_switches) {
      hosts = std::max(hosts, params.foreground_hosts_per_switch);
    }
    ++*foreground_cursor;
    for (int h = 0; h < hosts; ++h) {
      const NodeId host = g.add_host(prefix + "q" + std::to_string(s) + "h" + std::to_string(h), s);
      g.add_link(host, sw, params.links.host_rate, params.links.host_propagation);
      topo.hosts.push_back(host);
    }
  }
  // A fresh greedy plan per leaf.
  add_quartz_mesh(g, ring, params.mesh_rate, params.links.fabric_propagation,
                  params.channels_per_mux);
  topo.quartz_rings.push_back(std::move(ring));
  if (!topo.hosts.empty()) topo.host_groups.push_back(topo.hosts);
  return topo;
}

BuiltTopology reference_build(const CompositeParams& params) {
  const CompositeSpec& spec = params.spec;
  std::int64_t leaf_count = 1;
  for (std::size_t l = 0; l + 1 < spec.dims.size(); ++l) leaf_count *= spec.dims[l];
  std::vector<BuiltTopology> elements;
  std::int64_t foreground_cursor = 0;
  for (std::int64_t e = 0; e < leaf_count; ++e) {
    if (spec.kind == "ring-of-trees") {
      TwoTierParams tree;
      tree.tors = spec.dims.back();
      tree.hosts_per_tor = std::max(1, spec.hosts_per_switch);
      tree.aggs = 1;
      tree.links = params.links;
      elements.push_back(two_tier_tree(tree));
      elements.back().name = "pod" + std::to_string(e);
    } else {
      elements.push_back(reference_leaf_ring(params, e, &foreground_cursor));
    }
  }
  ComposeParams compose;
  compose.trunk_rate = params.trunk_rate;
  compose.trunk_propagation = params.trunk_propagation;
  for (int l = spec.levels() - 2; l >= 0; --l) {
    const auto group = static_cast<std::size_t>(spec.dims[static_cast<std::size_t>(l)]);
    std::vector<BuiltTopology> parents;
    for (std::size_t i = 0; i < elements.size(); i += group) {
      std::vector<BuiltTopology> chunk(
          std::make_move_iterator(elements.begin() + static_cast<std::ptrdiff_t>(i)),
          std::make_move_iterator(elements.begin() + static_cast<std::ptrdiff_t>(i + group)));
      compose.name = "level" + std::to_string(l);
      parents.push_back(reference_compose(std::move(chunk), compose));
    }
    elements = std::move(parents);
  }
  BuiltTopology out = std::move(elements.front());
  out.name = spec.to_string();
  if (spec.modeled_hosts_per_switch > 0) {
    auto meta = std::make_shared<CompositeMeta>(*out.composite);
    meta->virtual_hosts_per_switch = spec.modeled_hosts_per_switch;
    meta->modeled_hosts += static_cast<std::int64_t>(spec.modeled_hosts_per_switch) *
                           static_cast<std::int64_t>(out.tors.size());
    out.composite = std::move(meta);
  }
  return out;
}

void expect_same_meta(const CompositeMeta& got, const CompositeMeta& want) {
  EXPECT_EQ(got.arity, want.arity);
  EXPECT_EQ(got.path, want.path);
  EXPECT_EQ(got.uniform, want.uniform);
  EXPECT_EQ(got.parent_count, want.parent_count);
  EXPECT_EQ(got.level_offset, want.level_offset);
  ASSERT_EQ(got.trunks.size(), want.trunks.size());
  for (std::size_t l = 0; l < want.trunks.size(); ++l) {
    ASSERT_EQ(got.trunks[l].size(), want.trunks[l].size()) << "trunk level " << l;
    for (std::size_t k = 0; k < want.trunks[l].size(); ++k) {
      const TrunkEntry& a = got.trunks[l][k];
      const TrunkEntry& b = want.trunks[l][k];
      ASSERT_TRUE(a.gateway == b.gateway && a.peer_gateway == b.peer_gateway && a.link == b.link)
          << "trunk level " << l << " entry " << k;
    }
  }
  EXPECT_EQ(got.leaf_members, want.leaf_members);
  EXPECT_EQ(got.modeled_hosts, want.modeled_hosts);
  EXPECT_EQ(got.virtual_hosts_per_switch, want.virtual_hosts_per_switch);
}

void expect_same_topology(const BuiltTopology& got, const BuiltTopology& want) {
  EXPECT_EQ(got.name, want.name);
  const Graph& g = got.graph;
  const Graph& w = want.graph;

  ASSERT_EQ(g.models().size(), w.models().size());
  for (std::size_t k = 0; k < w.models().size(); ++k) {
    const SwitchModel& a = g.models()[k];
    const SwitchModel& b = w.models()[k];
    ASSERT_TRUE(a.name == b.name && a.latency == b.latency && a.cut_through == b.cut_through &&
                a.port_count == b.port_count)
        << "model " << k;
  }

  ASSERT_EQ(g.node_count(), w.node_count());
  for (std::size_t v = 0; v < w.node_count(); ++v) {
    const Node& a = g.nodes()[v];
    const Node& b = w.nodes()[v];
    ASSERT_EQ(a.id, b.id) << "node " << v;
    ASSERT_EQ(a.kind, b.kind) << "node " << v;
    ASSERT_EQ(a.model, b.model) << "node " << v;
    ASSERT_EQ(a.rack, b.rack) << "node " << v;
    ASSERT_EQ(a.label, b.label) << "node " << v;
  }

  ASSERT_EQ(g.link_count(), w.link_count());
  for (std::size_t k = 0; k < w.link_count(); ++k) {
    const Link& a = g.links()[k];
    const Link& b = w.links()[k];
    ASSERT_EQ(a.id, b.id) << "link " << k;
    ASSERT_EQ(a.a, b.a) << "link " << k;
    ASSERT_EQ(a.b, b.b) << "link " << k;
    ASSERT_EQ(a.rate, b.rate) << "link " << k;
    ASSERT_EQ(a.propagation, b.propagation) << "link " << k;
    ASSERT_EQ(a.wdm_ring, b.wdm_ring) << "link " << k;
    ASSERT_EQ(a.wdm_channel, b.wdm_channel) << "link " << k;
  }

  for (std::size_t v = 0; v < w.node_count(); ++v) {
    const auto a = g.neighbors(static_cast<NodeId>(v));
    const auto b = w.neighbors(static_cast<NodeId>(v));
    ASSERT_EQ(a.size(), b.size()) << "degree of node " << v;
    for (std::size_t p = 0; p < b.size(); ++p) {
      ASSERT_TRUE(a[p].link == b[p].link && a[p].peer == b[p].peer)
          << "port " << p << " of node " << v;
    }
  }

  EXPECT_EQ(got.hosts, want.hosts);
  EXPECT_EQ(got.tors, want.tors);
  EXPECT_EQ(got.aggs, want.aggs);
  EXPECT_EQ(got.cores, want.cores);
  EXPECT_EQ(got.quartz_rings, want.quartz_rings);
  EXPECT_EQ(got.host_groups, want.host_groups);
  ASSERT_EQ(got.composite == nullptr, want.composite == nullptr);
  if (want.composite != nullptr) expect_same_meta(*got.composite, *want.composite);
}

CompositeParams params_for(const char* text, int foreground_switches = 0,
                           int foreground_hosts = 0) {
  CompositeParams params;
  params.spec = *CompositeSpec::parse(text);
  params.foreground_leaf_switches = foreground_switches;
  params.foreground_hosts_per_switch = foreground_hosts;
  return params;
}

TEST(CompositeEquivalence, RingOfRingsMatchesNodeByNodeReference) {
  const CompositeParams cases[] = {
      params_for("ring-of-rings:4x6"),
      params_for("ring-of-rings:4x6@2"),
      params_for("ring-of-rings:5x4@1+10"),
      params_for("ring-of-rings:3x7+6", /*foreground_switches=*/9, /*foreground_hosts=*/2),
      params_for("ring-of-rings:3x4x5@1"),
      params_for("ring-of-rings:4x3x6+10", 8, 1),
      params_for("ring-of-rings:2x3x2x4@1"),
      params_for("ring-of-rings:3x2x2x5+4", 12, 3),
  };
  for (const CompositeParams& params : cases) {
    SCOPED_TRACE(params.spec.to_string());
    expect_same_topology(build_composite(params), reference_build(params));
  }
}

TEST(CompositeEquivalence, RingOfTreesMatchesNodeByNodeReference) {
  for (const char* text : {"ring-of-trees:3x4@2", "ring-of-trees:2x3x4", "ring-of-trees:2x2x2x3+5"}) {
    SCOPED_TRACE(text);
    const CompositeParams params = params_for(text);
    expect_same_topology(build_composite(params), reference_build(params));
  }
}

/// Mixed elements: plain rings of two sizes, a tree pod and a uniform
/// composite, so racks, physical rings and models all need re-basing.
std::vector<BuiltTopology> mixed_elements() {
  QuartzRingParams small;
  small.switches = 4;
  small.hosts_per_switch = 1;
  QuartzRingParams big;
  big.switches = 6;
  big.hosts_per_switch = 2;
  TwoTierParams pod;
  pod.tors = 3;
  pod.hosts_per_tor = 2;
  pod.aggs = 2;
  std::vector<BuiltTopology> elements;
  elements.push_back(quartz_ring(small));
  elements.push_back(two_tier_tree(pod));
  elements.push_back(quartz_ring(big));
  elements.push_back(build_composite(*CompositeSpec::parse("ring-of-rings:3x4@1+2")));
  return elements;
}

TEST(CompositeEquivalence, HeterogeneousComposeMatchesReference) {
  for (const int trunks : {1, 2, 3}) {
    SCOPED_TRACE(trunks);
    ComposeParams params;
    params.name = "mixed";
    params.trunks_per_pair = trunks;
    params.trunk_propagation = nanoseconds(700);
    const auto got = compose_in_ring(mixed_elements(), params);
    EXPECT_FALSE(got.composite->uniform);
    expect_same_topology(got, reference_compose(mixed_elements(), params));
  }
}

TEST(CompositeEquivalence, UniformComposeOfCompositesMatchesReference) {
  // Direct compose_in_ring over uniform children with several trunks per
  // element pair: the lifted trunk tables and leaf membership re-base too.
  const auto children = [] {
    std::vector<BuiltTopology> out;
    for (int i = 0; i < 3; ++i) {
      out.push_back(build_composite(*CompositeSpec::parse("ring-of-rings:3x4@1")));
    }
    return out;
  };
  ComposeParams params;
  params.trunks_per_pair = 2;
  const auto got = compose_in_ring(children(), params);
  EXPECT_TRUE(got.composite->uniform);
  EXPECT_EQ(got.composite->arity, (std::vector<int>{3, 3, 4}));
  expect_same_topology(got, reference_compose(children(), params));
}

TEST(CompositeEquivalence, SharedLeafPlanIsTheGreedyPlan) {
  // Every leaf of a composite carries the greedy plan of its ring size:
  // leaf e's mesh link between slots s and t is the plan's channel.
  const auto t = build_composite(*CompositeSpec::parse("ring-of-rings:3x9"));
  const wavelength::Assignment plan = wavelength::greedy_assign(9);
  const CompositeMeta& meta = *t.composite;
  std::size_t mesh = 0;
  for (const Link& link : t.graph.links()) {
    if (link.wdm_channel < 0) continue;
    ++mesh;
    EXPECT_EQ(link.wdm_channel,
              plan.path_between(meta.path_at(link.a, 1), meta.path_at(link.b, 1)).channel);
  }
  EXPECT_EQ(mesh, 3u * static_cast<std::size_t>(wavelength::pair_count(9)));
}

}  // namespace
}  // namespace quartz::topo
