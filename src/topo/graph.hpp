// Port-accounted network graph shared by the topology builders, the
// routing layer, the packet simulator and the flow-level solver.
//
// Nodes are hosts or switches; links are full-duplex with a rate and a
// propagation delay.  Links built from a Quartz WDM mesh carry their
// physical ring index and wavelength channel so that fault analysis can
// map fiber cuts back to logical mesh edges.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/units.hpp"
#include "topo/switch_models.hpp"

namespace quartz::topo {

using NodeId = std::int32_t;
using LinkId = std::int32_t;

inline constexpr NodeId kInvalidNode = -1;
inline constexpr LinkId kInvalidLink = -1;

enum class NodeKind { kHost, kSwitch };

struct Node {
  NodeId id = kInvalidNode;
  NodeKind kind = NodeKind::kHost;
  /// Index into Graph's switch-model table; -1 for hosts.
  int model = -1;
  /// Rack (locality group) label; -1 when unassigned.
  int rack = -1;
  std::string label;
};

struct Link {
  LinkId id = kInvalidLink;
  NodeId a = kInvalidNode;
  NodeId b = kInvalidNode;
  BitsPerSecond rate = 0;
  TimePs propagation = 0;
  /// Quartz metadata: physical ring and wavelength channel carrying
  /// this logical mesh edge; -1 for electrical/packet links.
  int wdm_ring = -1;
  int wdm_channel = -1;

  NodeId other(NodeId n) const { return n == a ? b : a; }
};

/// One adjacency entry: the link and the neighbour it reaches.
struct Adjacency {
  LinkId link = kInvalidLink;
  NodeId peer = kInvalidNode;
};

class Graph {
 public:
  /// Register a switch model; returns its index for add_switch().
  int add_model(const SwitchModel& model);

  NodeId add_host(std::string label, int rack = -1);
  NodeId add_switch(int model_index, std::string label, int rack = -1);

  LinkId add_link(NodeId a, NodeId b, BitsPerSecond rate, TimePs propagation,
                  int wdm_ring = -1, int wdm_channel = -1);

  /// Reserve room for `nodes`, `links` and `models` more entries, so a
  /// builder that knows its final size grows each table once.
  void reserve(std::size_t nodes, std::size_t links, std::size_t models);

  /// Where append() placed a child graph.
  struct Splice {
    NodeId node_base = 0;   ///< child node v is node_base + v here
    LinkId link_base = 0;   ///< child link k is link_base + k here
    int racks = 0;          ///< child's highest rack + 1 (0 when none set)
    int wdm_rings = 0;      ///< child's highest wdm_ring + 1 (0 when none set)
  };

  /// Move every model, node and link of `child` onto the end of this
  /// graph.  Node, link and model ids shift by this graph's current
  /// counts; assigned racks shift by `rack_base` and assigned physical
  /// rings by `wdm_ring_base` (-1 stays -1); labels, rates, channels and
  /// each node's adjacency order carry over unchanged.  The result is
  /// exactly what re-adding the child's models, nodes and links in id
  /// order through add_model/add_host/add_switch/add_link would give,
  /// without copying a label or rebuilding an adjacency list.  `child`
  /// is left empty.  Splicing several children: reserve() their total
  /// first, so the tables grow once.
  Splice append(Graph&& child, int rack_base, int wdm_ring_base);

  std::size_t node_count() const { return nodes_.size(); }
  std::size_t link_count() const { return links_.size(); }
  const Node& node(NodeId id) const;
  const Link& link(LinkId id) const;
  const std::vector<Node>& nodes() const { return nodes_; }
  const std::vector<Link>& links() const { return links_; }
  const SwitchModel& model_of(NodeId id) const;
  /// Registered switch-model table (indexable by Node::model).
  const std::vector<SwitchModel>& models() const { return models_; }

  std::span<const Adjacency> neighbors(NodeId id) const;
  /// Ports in use on a node (its degree).
  std::size_t degree(NodeId id) const { return adjacency_[static_cast<std::size_t>(id)].size(); }

  std::vector<NodeId> hosts() const;
  std::vector<NodeId> switches() const;
  bool is_host(NodeId id) const { return node(id).kind == NodeKind::kHost; }
  bool is_switch(NodeId id) const { return node(id).kind == NodeKind::kSwitch; }

  /// Whole-graph sanity: every switch within its model's port budget,
  /// hosts have exactly one (or more) links, graph connected, no self
  /// loops.  Throws std::logic_error with a diagnostic on violation.
  void validate() const;

 private:
  std::vector<Node> nodes_;
  std::vector<Link> links_;
  std::vector<std::vector<Adjacency>> adjacency_;
  std::vector<SwitchModel> models_;
};

}  // namespace quartz::topo
