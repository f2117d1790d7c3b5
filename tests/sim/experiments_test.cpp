// Integration tests: the experiment harnesses must reproduce the
// paper's qualitative results (shapes, orderings, crossovers) at small
// scale.  These are the paper's headline claims encoded as assertions.
#include "sim/experiments.hpp"

#include "sim/workloads.hpp"

#include <gtest/gtest.h>

namespace quartz::sim {
namespace {

TEST(BuildFabric, AllFabricsConstructAndValidate) {
  for (Fabric fabric :
       {Fabric::kThreeTierTree, Fabric::kJellyfish, Fabric::kQuartzInCore,
        Fabric::kQuartzInEdge, Fabric::kQuartzInEdgeAndCore, Fabric::kQuartzInJellyfish}) {
    const BuiltFabric built = build_fabric(fabric);
    EXPECT_NO_THROW(built.topo.graph.validate()) << fabric_name(fabric);
    EXPECT_EQ(built.topo.hosts.size(), 64u) << fabric_name(fabric);
  }
}

TEST(BuildFabric, VlbRequestedWhereMeaningful) {
  FabricConfig config;
  config.vlb_fraction = 0.5;
  const BuiltFabric quartz = build_fabric(Fabric::kQuartzInEdge, config);
  EXPECT_NE(dynamic_cast<routing::VlbOracle*>(quartz.oracle.get()), nullptr);
  const BuiltFabric tree = build_fabric(Fabric::kThreeTierTree, config);
  EXPECT_NE(dynamic_cast<routing::EcmpOracle*>(tree.oracle.get()), nullptr);
}

TEST(Fig17, TreeIsSlowestAndQuartzEdgeCoreHalvesIt) {
  TaskExperimentParams params;
  params.pattern = Pattern::kScatter;
  params.tasks = 4;
  params.duration = milliseconds(5);
  const FabricConfig config;

  const double tree =
      run_task_experiment(Fabric::kThreeTierTree, config, params).mean_latency_us;
  const double edge_core =
      run_task_experiment(Fabric::kQuartzInEdgeAndCore, config, params).mean_latency_us;
  const double core = run_task_experiment(Fabric::kQuartzInCore, config, params).mean_latency_us;

  EXPECT_GT(tree, edge_core);
  EXPECT_GT(tree, core);
  // §9: "using Quartz in both the core and edge can reduce latency by
  // 50% in typical scenarios."
  EXPECT_LT(edge_core, 0.6 * tree);
  // §7.1: "more than a three microsecond reduction in latency by
  // replacing the core switches ... with Quartz rings."
  EXPECT_GT(tree - core, 2.0);
}

TEST(Fig17, GatherShowsSameOrdering) {
  TaskExperimentParams params;
  params.pattern = Pattern::kGather;
  params.tasks = 4;
  params.duration = milliseconds(5);
  const FabricConfig config;
  const double tree =
      run_task_experiment(Fabric::kThreeTierTree, config, params).mean_latency_us;
  const double edge_core =
      run_task_experiment(Fabric::kQuartzInEdgeAndCore, config, params).mean_latency_us;
  EXPECT_GT(tree, edge_core);
}

TEST(Fig18, LocalizedTaskFavorsQuartzOverJellyfish) {
  TaskExperimentParams params;
  params.pattern = Pattern::kScatter;
  params.tasks = 3;
  params.localized = true;
  params.duration = milliseconds(5);
  const FabricConfig config;

  const double jellyfish =
      run_task_experiment(Fabric::kJellyfish, config, params).mean_latency_us;
  const double quartz_jf =
      run_task_experiment(Fabric::kQuartzInJellyfish, config, params).mean_latency_us;
  const double edge_core =
      run_task_experiment(Fabric::kQuartzInEdgeAndCore, config, params).mean_latency_us;

  // §7.1: Jellyfish cannot exploit locality; Quartz variants keep the
  // local task inside one ring.
  EXPECT_GT(jellyfish, quartz_jf);
  EXPECT_GT(jellyfish, edge_core);
}

TEST(Fig14, TreeDegradesQuartzDoesNot) {
  CrossTrafficParams quiet;
  quiet.cross_mbps = 0;
  quiet.rpc_calls = 300;
  CrossTrafficParams loud;
  loud.cross_mbps = 200;
  loud.rpc_calls = 300;

  const double tree_quiet =
      run_cross_traffic(PrototypeFabric::kTwoTierTree, quiet).mean_rtt_us;
  const double tree_loud = run_cross_traffic(PrototypeFabric::kTwoTierTree, loud).mean_rtt_us;
  const double quartz_quiet = run_cross_traffic(PrototypeFabric::kQuartz, quiet).mean_rtt_us;
  const double quartz_loud = run_cross_traffic(PrototypeFabric::kQuartz, loud).mean_rtt_us;

  // §6.1: tree RPC latency rises sharply with cross-traffic; Quartz is
  // unaffected.
  EXPECT_GT(tree_loud, tree_quiet * 1.15);
  EXPECT_NEAR(quartz_loud, quartz_quiet, quartz_quiet * 0.02);
  // Quartz also has the lower baseline (one fewer switch hop).
  EXPECT_LT(quartz_quiet, tree_quiet);
}

TEST(Fig20, NonBlockingFlatEcmpSaturatesVlbSurvives) {
  PathologicalParams params;
  params.duration = milliseconds(2);

  params.aggregate_gbps = 20;
  const auto nb20 = run_pathological(CoreKind::kNonBlockingSwitch, params);
  const auto ecmp20 = run_pathological(CoreKind::kQuartzEcmp, params);
  const auto vlb20 = run_pathological(CoreKind::kQuartzVlb, params);

  // Below saturation: both Quartz variants beat the 6us store-and-
  // forward core by a wide margin.
  EXPECT_GT(nb20.mean_latency_us, 5.5);
  EXPECT_LT(ecmp20.mean_latency_us, 2.5);
  EXPECT_LT(vlb20.mean_latency_us, 3.0);
  EXPECT_FALSE(ecmp20.saturated);

  params.aggregate_gbps = 50;
  const auto nb50 = run_pathological(CoreKind::kNonBlockingSwitch, params);
  const auto ecmp50 = run_pathological(CoreKind::kQuartzEcmp, params);
  const auto vlb50 = run_pathological(CoreKind::kQuartzVlb, params);

  // Past the 40 Gb/s direct lightpath: ECMP latency becomes unbounded
  // (Fig. 20's 125us arrow); VLB and the non-blocking switch stay flat.
  EXPECT_GT(ecmp50.mean_latency_us, 50.0);
  EXPECT_LT(vlb50.mean_latency_us, 3.5);
  EXPECT_NEAR(nb50.mean_latency_us, nb20.mean_latency_us, 0.5);
}

TEST(Fig20, VlbCostsSlightlyMoreThanEcmpWhenIdle) {
  PathologicalParams params;
  params.aggregate_gbps = 10;
  params.duration = milliseconds(2);
  const auto ecmp = run_pathological(CoreKind::kQuartzEcmp, params);
  const auto vlb = run_pathological(CoreKind::kQuartzVlb, params);
  // The detour adds one cut-through hop for the detoured fraction.
  EXPECT_GT(vlb.mean_latency_us, ecmp.mean_latency_us);
  EXPECT_LT(vlb.mean_latency_us, ecmp.mean_latency_us + 1.5);
}

TEST(Fig20, AdaptiveVlbDominatesFixedPolicies) {
  // Our §3.4 extension: adaptive detouring must match ECMP when the
  // direct lightpath is healthy and match VLB's flatness when it is
  // saturated.
  PathologicalParams params;
  params.duration = milliseconds(2);

  params.aggregate_gbps = 15;
  const auto ecmp_cold = run_pathological(CoreKind::kQuartzEcmp, params);
  const auto adaptive_cold = run_pathological(CoreKind::kQuartzAdaptive, params);
  EXPECT_NEAR(adaptive_cold.mean_latency_us, ecmp_cold.mean_latency_us, 0.05);

  params.aggregate_gbps = 50;
  const auto adaptive_hot = run_pathological(CoreKind::kQuartzAdaptive, params);
  EXPECT_LT(adaptive_hot.mean_latency_us, 4.0);
  EXPECT_EQ(adaptive_hot.packets_dropped, 0u);
}

TEST(Fig20, AdaptiveThresholdControlsSensitivity) {
  PathologicalParams params;
  params.duration = milliseconds(2);
  params.aggregate_gbps = 44;
  params.adaptive_threshold = microseconds(1);
  const auto eager = run_pathological(CoreKind::kQuartzAdaptive, params);
  params.adaptive_threshold = milliseconds(1);  // effectively never detour
  const auto lazy = run_pathological(CoreKind::kQuartzAdaptive, params);
  // A detour bar the queue never reaches degenerates to ECMP, which is
  // past saturation here.
  EXPECT_LT(eager.mean_latency_us, lazy.mean_latency_us / 3);
}

class ConservationSweep : public ::testing::TestWithParam<std::tuple<Fabric, std::uint64_t>> {};

TEST_P(ConservationSweep, EveryPacketDeliveredOrDropped) {
  // Conservation invariant: across fabrics and seeds, sent packets are
  // fully accounted for once the network drains.
  const auto [fabric, seed] = GetParam();
  FabricConfig config;
  config.seed = seed;
  BuiltFabric built = build_fabric(fabric, config);
  Network network(built.topo, *built.oracle);
  Rng rng(seed * 31 + 7);
  std::vector<std::unique_ptr<PoissonFlow>> flows;
  FlowParams flow;
  flow.rate = megabits_per_second(300);
  flow.stop = milliseconds(3);
  for (int i = 0; i < 16; ++i) {
    const auto src = built.topo.hosts[rng.next_below(built.topo.hosts.size())];
    auto dst = built.topo.hosts[rng.next_below(built.topo.hosts.size())];
    while (dst == src) dst = built.topo.hosts[rng.next_below(built.topo.hosts.size())];
    flows.push_back(std::make_unique<PoissonFlow>(network, src, dst, network.new_task({}),
                                                  flow, rng.fork()));
  }
  network.run_until(milliseconds(20));
  EXPECT_EQ(network.packets_delivered() + network.packets_dropped(), network.packets_sent())
      << fabric_name(fabric) << " seed " << seed;
  EXPECT_GT(network.packets_sent(), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    FabricsAndSeeds, ConservationSweep,
    ::testing::Combine(::testing::Values(Fabric::kThreeTierTree, Fabric::kJellyfish,
                                         Fabric::kQuartzInCore, Fabric::kQuartzInEdge,
                                         Fabric::kQuartzInEdgeAndCore,
                                         Fabric::kQuartzInJellyfish),
                       ::testing::Values(1u, 2u, 3u)));

TEST(Fig20, FlowletModeEliminatesReordering) {
  // Per-packet adaptive detouring can reorder flows when it oscillates
  // between the short direct path and longer detours; flowlet
  // stickiness must remove that while keeping latency flat.
  PathologicalParams params;
  params.duration = milliseconds(4);
  params.aggregate_gbps = 44;  // past the 40G direct lightpath

  const auto per_packet = run_pathological(CoreKind::kQuartzAdaptive, params);
  params.adaptive_flowlet_timeout = microseconds(100);
  const auto flowlet = run_pathological(CoreKind::kQuartzAdaptive, params);

  EXPECT_GT(per_packet.reordered_packets, 0u);
  // Flowlet stickiness removes the bulk of the reordering while keeping
  // latency flat (re-decisions only at flowlet boundaries or when the
  // sticky path saturates).
  EXPECT_LT(flowlet.reordered_packets, per_packet.reordered_packets / 4 + 1);
  EXPECT_LT(flowlet.mean_latency_us, 5.0);
  EXPECT_EQ(flowlet.packets_dropped, 0u);
}

TEST(Fig20, FixedVlbNeverReorders) {
  // The per-flow hashed VLB picks one path per flow: no reordering by
  // construction, at any load.
  PathologicalParams params;
  params.duration = milliseconds(3);
  for (double gbps : {20.0, 50.0}) {
    params.aggregate_gbps = gbps;
    EXPECT_EQ(run_pathological(CoreKind::kQuartzVlb, params).reordered_packets, 0u);
    EXPECT_EQ(run_pathological(CoreKind::kQuartzEcmp, params).reordered_packets, 0u);
  }
}

TEST(Decomposition, QueueingShareSmallAtLightLoadLargeNearSaturation) {
  // The per-packet latency decomposition must attribute almost nothing
  // to queueing at light load and (by construction of the hop budget)
  // everything beyond switch latency + serialization near saturation.
  TaskExperimentParams light;
  light.tasks = 1;
  light.per_flow_rate = megabits_per_second(20);
  light.duration = milliseconds(5);
  const auto quiet = run_task_experiment(Fabric::kQuartzInEdgeAndCore, {}, light);
  EXPECT_LT(quiet.mean_queueing_us, 0.15);
  EXPECT_LT(quiet.mean_queueing_us, quiet.mean_latency_us * 0.1);

  TaskExperimentParams heavy = light;
  heavy.tasks = 8;
  heavy.per_flow_rate = megabits_per_second(550);  // pushes sender NICs hard
  const auto loud = run_task_experiment(Fabric::kQuartzInEdgeAndCore, {}, heavy);
  EXPECT_GT(loud.mean_queueing_us, quiet.mean_queueing_us * 5);
  // Decomposition sanity: queueing never exceeds total latency.
  EXPECT_LT(loud.mean_queueing_us, loud.mean_latency_us);
}

TEST(Names, AllEnumsHaveNames) {
  EXPECT_EQ(fabric_name(Fabric::kThreeTierTree), "three-tier tree");
  EXPECT_EQ(pattern_name(Pattern::kScatterGather), "scatter/gather");
}

}  // namespace
}  // namespace quartz::sim
