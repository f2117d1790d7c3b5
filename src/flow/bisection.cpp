#include "flow/bisection.hpp"

#include "common/check.hpp"
#include "flow/maxmin.hpp"
#include "flow/patterns.hpp"
#include "topo/builders.hpp"

namespace quartz::flow {
namespace {

/// Regroup a flat host list into racks of fixed size (used for the
/// single-switch ideal fabric, whose builder puts every host in one
/// group).
std::vector<std::vector<topo::NodeId>> chunk_hosts(const std::vector<topo::NodeId>& hosts,
                                                   int per_rack) {
  std::vector<std::vector<topo::NodeId>> racks;
  for (std::size_t i = 0; i < hosts.size(); i += static_cast<std::size_t>(per_rack)) {
    const std::size_t end = std::min(hosts.size(), i + static_cast<std::size_t>(per_rack));
    racks.emplace_back(hosts.begin() + static_cast<std::ptrdiff_t>(i),
                       hosts.begin() + static_cast<std::ptrdiff_t>(end));
  }
  return racks;
}

}  // namespace

std::string throughput_pattern_name(ThroughputPattern pattern) {
  switch (pattern) {
    case ThroughputPattern::kPermutation: return "random permutation";
    case ThroughputPattern::kIncast: return "incast";
    case ThroughputPattern::kRackShuffle: return "rack-level shuffle";
  }
  return "unknown";
}

BisectionResult run_bisection(FabricUnderTest fabric, ThroughputPattern pattern,
                              const BisectionParams& params) {
  QUARTZ_REQUIRE(params.racks >= 2 && params.hosts_per_rack >= 1, "fabric too small");
  Rng rng(params.seed);

  // ----- build the fabric under test -----------------------------------
  topo::BuiltTopology built;
  const bool is_quartz =
      fabric == FabricUnderTest::kQuartz || fabric == FabricUnderTest::kQuartzDirectOnly;
  if (is_quartz) {
    topo::QuartzRingParams ring;
    ring.switches = params.racks;
    ring.hosts_per_switch = params.hosts_per_rack;
    ring.mesh_rate = params.host_rate;
    ring.links.host_rate = params.host_rate;
    // The flow model needs port counts to fit; use a model wide enough
    // for n + k ports.
    ring.switch_model = topo::SwitchModel::ull();
    ring.switch_model.port_count = params.racks + params.hosts_per_rack + 2;
    built = topo::quartz_ring(ring);
  } else if (fabric == FabricUnderTest::kFullBisection) {
    topo::SingleSwitchParams single;
    single.hosts = params.racks * params.hosts_per_rack;
    single.host_rate = params.host_rate;
    single.switch_model.port_count = single.hosts + 2;
    built = topo::single_switch(single);
    built.host_groups = chunk_hosts(built.hosts, params.hosts_per_rack);
  } else {
    const double fraction = fabric == FabricUnderTest::kHalfBisection ? 0.5 : 0.25;
    topo::TwoTierParams tree;
    tree.tors = params.racks;
    tree.hosts_per_tor = params.hosts_per_rack;
    tree.aggs = 1;
    tree.links.host_rate = params.host_rate;
    tree.links.fabric_rate = params.host_rate * params.hosts_per_rack * fraction;
    tree.tor_model = topo::SwitchModel::ull();
    tree.tor_model.port_count = params.hosts_per_rack + 2;
    tree.agg_model = topo::SwitchModel::ull();
    tree.agg_model.port_count = params.racks + 2;
    built = topo::two_tier_tree(tree);
  }

  // ----- traffic pattern ------------------------------------------------
  std::vector<HostPair> pairs;
  switch (pattern) {
    case ThroughputPattern::kPermutation:
      pairs = random_permutation(built.hosts, rng);
      break;
    case ThroughputPattern::kIncast:
      pairs = incast(built.hosts, params.incast_fan_in, rng);
      break;
    case ThroughputPattern::kRackShuffle:
      pairs = rack_shuffle(built.host_groups,
                           params.shuffle_target_racks > 0 ? params.shuffle_target_racks
                                                           : params.racks / 2,
                           rng);
      break;
  }

  // ----- routes ----------------------------------------------------------
  std::vector<Flow> flows;
  flows.reserve(pairs.size());
  for (const HostPair& pair : pairs) {
    Flow flow;
    flow.src = pair.src;
    flow.dst = pair.dst;
    if (is_quartz) {
      flow.routes = quartz_routes(built.graph, built.quartz_rings[0], pair.src, pair.dst,
                                  fabric == FabricUnderTest::kQuartz);
    } else {
      flow.routes = {shortest_route(built.graph, pair.src, pair.dst)};
    }
    flows.push_back(std::move(flow));
  }

  // "Quartz" in Fig. 10 routes adaptively: direct lightpaths first,
  // residual demand over VLB detours (§3.4's adaptive k).
  const MaxMinResult allocation = fabric == FabricUnderTest::kQuartz
                                      ? quartz_adaptive_allocate(built.graph, flows)
                                      : max_min_fair(built.graph, flows);

  BisectionResult result;
  result.flows = static_cast<int>(flows.size());
  result.aggregate_gbps = allocation.aggregate / 1e9;
  const double ideal =
      static_cast<double>(built.hosts.size()) * params.host_rate;
  result.normalized_throughput = allocation.aggregate / ideal;
  return result;
}

}  // namespace quartz::flow
