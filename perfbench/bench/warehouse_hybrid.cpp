// warehouse_hybrid: ring-of-rings:32x32x32+10 (32,768 switches) routed
// by HierOracle, with foreground CbrSource flows on a materialized
// island that crosses the leaf mesh and a trunk, and a FluidBackground
// re-solved every 200 µs.  Here set-up (composite build, oracle), not
// the run, dominates; the foreground is sized so the run still reaches
// well over a million events.
#include <algorithm>
#include <optional>
#include <vector>

#include "common/rng.hpp"
#include "common/stats.hpp"
#include "probe_sink.hpp"
#include "routing/hierarchical.hpp"
#include "sim/fluid.hpp"
#include "topo/composite.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace quartz;

/// One cycle of foreground flows: every chosen host sends to the next,
/// so each host link carries one flow each way.  Both hosts of the
/// second leaf ring are in the cycle, so flows cross a trunk.
std::vector<sim::CbrFlow> foreground_flows(const std::vector<topo::NodeId>& hosts,
                                           std::size_t first_leaf_hosts, std::size_t count,
                                           Rng& rng) {
  std::vector<topo::NodeId> leaf0(hosts.begin(),
                                  hosts.begin() + static_cast<std::ptrdiff_t>(first_leaf_hosts));
  rng.shuffle(leaf0);
  std::vector<topo::NodeId> cycle(hosts.begin() + static_cast<std::ptrdiff_t>(first_leaf_hosts),
                                  hosts.end());
  cycle.insert(cycle.end(), leaf0.begin(),
               leaf0.begin() + static_cast<std::ptrdiff_t>(count - cycle.size()));
  rng.shuffle(cycle);
  std::vector<sim::CbrFlow> flows;
  for (std::size_t i = 0; i < cycle.size(); ++i) {
    sim::CbrFlow f;
    f.src = cycle[i];
    f.dst = cycle[(i + 1) % cycle.size()];
    f.rate_bps = 2e9 * (0.75 + 0.5 * rng.next_double());
    flows.push_back(f);
  }
  return flows;
}

std::vector<sim::FluidDemand> background_demands(const std::vector<topo::NodeId>& hosts,
                                                 std::size_t count, Rng& rng) {
  std::vector<sim::FluidDemand> demands;
  for (std::size_t i = 0; i < count; ++i) {
    const std::uint64_t src = rng.next_below(hosts.size());
    std::uint64_t dst = rng.next_below(hosts.size() - 1);
    if (dst >= src) ++dst;  // skip self
    demands.push_back({hosts[src], hosts[dst], 1e9 * (0.5 + rng.next_double())});
  }
  return demands;
}

}  // namespace

RepResult run_warehouse_hybrid(const RepOptions& options) {
  Ledger* ledger = options.ledger;
  const char* spec_text = options.small ? "ring-of-rings:8x8x8+10" : "ring-of-rings:32x32x32+10";
  const TimePs duration = options.small ? milliseconds(1) : milliseconds(80);
  const TimePs end = duration + milliseconds(1);  // drain in-flight foreground
  Rng rng(options.seed);

  RepResult result;
  Stopwatch rep;
  const auto spec = topo::CompositeSpec::parse(spec_text);
  topo::CompositeParams params;
  params.spec = *spec;
  // Foreground island: every switch of the first leaf ring plus two of
  // the second, one materialized host each.
  params.foreground_leaf_switches = spec->dims.back() + 2;
  params.foreground_hosts_per_switch = 1;
  std::optional<topo::BuiltTopology> topo;
  {
    Ledger::Scope scope(ledger, "build_composite");
    topo.emplace(topo::build_composite(params));
  }
  std::optional<routing::HierOracle> oracle;
  {
    Ledger::Scope scope(ledger, "hier_oracle.construct");
    oracle.emplace(*topo);
  }
  sim::Network net(*topo, *oracle);
  CountingSink probe;
  if (ledger != nullptr) net.add_sink(&probe);

  SampleSet latency_us;
  Digest digest;
  const int task = net.new_task([&](const sim::Packet& p, TimePs latency) {
    latency_us.add(to_microseconds(latency));
    digest.add(p.id);
    digest.add(static_cast<std::uint64_t>(latency));
  });
  const std::vector<topo::NodeId>& hosts = topo->hosts;
  const std::size_t leaf_hosts = static_cast<std::size_t>(spec->dims.back());
  std::vector<sim::CbrFlow> flows =
      foreground_flows(hosts, leaf_hosts, options.small ? 8 : 24, rng);
  sim::CbrSource source(net, std::move(flows), task, 0, duration);
  source.arm();

  std::optional<sim::FluidBackground> fluid;
  std::size_t demand_count = 0;
  if (options.fluid) {
    std::vector<sim::FluidDemand> demands = background_demands(hosts, 16, rng);
    demand_count = demands.size();
    fluid.emplace(net, *oracle, std::move(demands));
    Ledger::Scope scope(ledger, "fluid_background.arm");
    fluid->arm();
  }
  result.setup_s = rep.elapsed_s();

  Stopwatch run;
  std::uint64_t pending_peak = 0;
  if (ledger != nullptr) {
    pending_peak = run_sliced(ledger, net, end, 50);
  } else {
    net.run_until(end);
  }
  result.run_s = run.elapsed_s();

  result.delivered = net.packets_delivered();
  result.events = net.events_processed();
  result.attempted = net.packets_sent();
  result.failed = net.packets_dropped();
  const double p50_us = latency_us.empty() ? 0.0 : latency_us.percentile(50.0);
  if (!latency_us.empty()) {
    result.mean_us = latency_us.mean();
    result.p99_us = latency_us.percentile(99.0);
  }
  digest.add(result.attempted);
  digest.add(result.failed);
  digest.add_double(p50_us);
  digest.add_double(result.p99_us);
  if (fluid.has_value()) {
    digest.add(fluid->epochs());
    digest.add(fluid->digest());
  }
  result.model_digest = digest.value();

  if (net.packets_sent() != net.packets_delivered() + net.packets_dropped() ||
      source.packets_sent() != net.packets_sent()) {
    result.check_failures.push_back("warehouse_hybrid: packets sent != delivered + dropped");
  }
  if (net.packets_delivered() == 0) {
    result.check_failures.push_back("warehouse_hybrid: foreground delivered nothing");
  }
  if (fluid.has_value() && fluid->epochs() == 0) {
    result.check_failures.push_back("warehouse_hybrid: fluid background never solved");
  }

  if (ledger != nullptr) {
    Metrics& layer = result.layer;
    layer.set("topo.build_s", ledger->total_s("build_composite"), "s");
    layer.set("topo.switches", static_cast<double>(topo->graph.switches().size()), "count");
    layer.set("topo.links", static_cast<double>(topo->graph.link_count()), "count");
    layer.set("routing.build_s", ledger->total_s("hier_oracle.construct"), "s");
    const routing::HierOracle::Stats hier = oracle->stats();
    const double lookups = static_cast<double>(hier.hits + hier.misses);
    layer.set("routing.hier_miss_ratio", lookups > 0 ? hier.misses / lookups : 0.0, "ratio");
    layer.set("routing.hier_entry_kib", static_cast<double>(hier.entry_bytes) / 1024.0, "KiB");
    report_sim_layer(layer, net, probe, ledger->self_s("network.run_until"), pending_peak);
    layer.set("flow.arm_s", ledger->total_s("fluid_background.arm"), "s");
    layer.set("flow.epochs", fluid.has_value() ? static_cast<double>(fluid->epochs()) : 0.0,
              "count");
    layer.set("flow.demands", static_cast<double>(demand_count), "count");
  }
  return result;
}

}  // namespace perfbench
