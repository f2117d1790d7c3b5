#include "topo/graph.hpp"

#include <algorithm>
#include <iterator>
#include <utility>

#include "common/check.hpp"

namespace quartz::topo {

int Graph::add_model(const SwitchModel& model) {
  QUARTZ_REQUIRE(model.port_count > 0, "switch model needs ports");
  QUARTZ_REQUIRE(model.latency >= 0, "switch latency cannot be negative");
  models_.push_back(model);
  return static_cast<int>(models_.size() - 1);
}

NodeId Graph::add_host(std::string label, int rack) {
  const auto id = static_cast<NodeId>(nodes_.size());
  nodes_.push_back(Node{id, NodeKind::kHost, -1, rack, std::move(label)});
  adjacency_.emplace_back();
  return id;
}

NodeId Graph::add_switch(int model_index, std::string label, int rack) {
  QUARTZ_REQUIRE(model_index >= 0 && model_index < static_cast<int>(models_.size()),
                 "unknown switch model");
  const auto id = static_cast<NodeId>(nodes_.size());
  nodes_.push_back(Node{id, NodeKind::kSwitch, model_index, rack, std::move(label)});
  adjacency_.emplace_back();
  return id;
}

LinkId Graph::add_link(NodeId a, NodeId b, BitsPerSecond rate, TimePs propagation, int wdm_ring,
                       int wdm_channel) {
  QUARTZ_REQUIRE(a >= 0 && a < static_cast<NodeId>(nodes_.size()), "link endpoint a unknown");
  QUARTZ_REQUIRE(b >= 0 && b < static_cast<NodeId>(nodes_.size()), "link endpoint b unknown");
  QUARTZ_REQUIRE(a != b, "self loops are not allowed");
  QUARTZ_REQUIRE(rate > 0, "link rate must be positive");
  QUARTZ_REQUIRE(propagation >= 0, "propagation cannot be negative");
  const auto id = static_cast<LinkId>(links_.size());
  links_.push_back(Link{id, a, b, rate, propagation, wdm_ring, wdm_channel});
  adjacency_[static_cast<std::size_t>(a)].push_back(Adjacency{id, b});
  adjacency_[static_cast<std::size_t>(b)].push_back(Adjacency{id, a});
  return id;
}

const Node& Graph::node(NodeId id) const {
  QUARTZ_REQUIRE(id >= 0 && id < static_cast<NodeId>(nodes_.size()), "node id out of range");
  return nodes_[static_cast<std::size_t>(id)];
}

const Link& Graph::link(LinkId id) const {
  QUARTZ_REQUIRE(id >= 0 && id < static_cast<LinkId>(links_.size()), "link id out of range");
  return links_[static_cast<std::size_t>(id)];
}

const SwitchModel& Graph::model_of(NodeId id) const {
  const Node& n = node(id);
  QUARTZ_REQUIRE(n.kind == NodeKind::kSwitch, "hosts have no switch model");
  return models_[static_cast<std::size_t>(n.model)];
}

std::span<const Adjacency> Graph::neighbors(NodeId id) const {
  QUARTZ_REQUIRE(id >= 0 && id < static_cast<NodeId>(nodes_.size()), "node id out of range");
  return adjacency_[static_cast<std::size_t>(id)];
}

std::vector<NodeId> Graph::hosts() const {
  std::vector<NodeId> out;
  for (const auto& n : nodes_) {
    if (n.kind == NodeKind::kHost) out.push_back(n.id);
  }
  return out;
}

std::vector<NodeId> Graph::switches() const {
  std::vector<NodeId> out;
  for (const auto& n : nodes_) {
    if (n.kind == NodeKind::kSwitch) out.push_back(n.id);
  }
  return out;
}

void Graph::validate() const {
  QUARTZ_CHECK(!nodes_.empty(), "graph is empty");

  for (const auto& n : nodes_) {
    const std::size_t deg = adjacency_[static_cast<std::size_t>(n.id)].size();
    if (n.kind == NodeKind::kSwitch) {
      const auto& model = models_[static_cast<std::size_t>(n.model)];
      QUARTZ_CHECK(deg <= static_cast<std::size_t>(model.port_count),
                   "switch '" + n.label + "' exceeds its port count");
    } else {
      QUARTZ_CHECK(deg >= 1, "host '" + n.label + "' is unconnected");
    }
  }

  // Connectivity by BFS from node 0.  The queue is a flat array that
  // ends up holding every visited node once, so its size is the count.
  std::vector<unsigned char> seen(nodes_.size(), 0);
  std::vector<NodeId> queue;
  queue.reserve(nodes_.size());
  queue.push_back(0);
  seen[0] = 1;
  for (std::size_t head = 0; head < queue.size(); ++head) {
    for (const auto& adj : adjacency_[static_cast<std::size_t>(queue[head])]) {
      unsigned char& mark = seen[static_cast<std::size_t>(adj.peer)];
      if (mark == 0) {
        mark = 1;
        queue.push_back(adj.peer);
      }
    }
  }
  QUARTZ_CHECK(queue.size() == nodes_.size(), "graph is disconnected");
}

void Graph::reserve(std::size_t nodes, std::size_t links, std::size_t models) {
  nodes_.reserve(nodes_.size() + nodes);
  adjacency_.reserve(adjacency_.size() + nodes);
  links_.reserve(links_.size() + links);
  models_.reserve(models_.size() + models);
}

Graph::Splice Graph::append(Graph&& child, int rack_base, int wdm_ring_base) {
  QUARTZ_REQUIRE(&child != this, "a graph cannot be appended to itself");
  Splice at;
  at.node_base = static_cast<NodeId>(nodes_.size());
  at.link_base = static_cast<LinkId>(links_.size());
  const int model_base = static_cast<int>(models_.size());

  models_.insert(models_.end(), std::make_move_iterator(child.models_.begin()),
                 std::make_move_iterator(child.models_.end()));

  int max_rack = -1;
  for (Node& n : child.nodes_) {
    max_rack = std::max(max_rack, n.rack);
    n.id += at.node_base;
    if (n.kind == NodeKind::kSwitch) n.model += model_base;
    if (n.rack >= 0) n.rack += rack_base;
    nodes_.push_back(std::move(n));
  }
  at.racks = max_rack + 1;

  int max_ring = -1;
  for (Link link : child.links_) {
    max_ring = std::max(max_ring, link.wdm_ring);
    link.id += at.link_base;
    link.a += at.node_base;
    link.b += at.node_base;
    if (link.wdm_ring >= 0) link.wdm_ring += wdm_ring_base;
    links_.push_back(link);
  }
  at.wdm_rings = max_ring + 1;

  for (auto& ports : child.adjacency_) {
    for (Adjacency& adj : ports) {
      adj.link += at.link_base;
      adj.peer += at.node_base;
    }
    adjacency_.push_back(std::move(ports));
  }

  child = Graph{};
  return at;
}

}  // namespace quartz::topo
