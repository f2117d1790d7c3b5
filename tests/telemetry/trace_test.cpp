#include "telemetry/trace.hpp"

#include <gtest/gtest.h>


#include "routing/ecmp.hpp"
#include "routing/oracle.hpp"
#include "sim/network.hpp"
#include "topo/builders.hpp"

namespace quartz::telemetry {
namespace {

struct Fixture {
  topo::BuiltTopology topo;
  std::unique_ptr<routing::EcmpRouting> routing;
  std::unique_ptr<routing::EcmpOracle> oracle;

  static Fixture single_switch(topo::SwitchModel model) {
    topo::SingleSwitchParams p;
    p.hosts = 4;
    p.host_rate = gigabits_per_second(10);
    p.switch_model = model;
    p.propagation = 0;
    Fixture f;
    f.topo = topo::single_switch(p);
    f.routing = std::make_unique<routing::EcmpRouting>(f.topo.graph);
    f.oracle = std::make_unique<routing::EcmpOracle>(*f.routing);
    return f;
  }
};

TEST(PacketTracer, CutThroughDecompositionIsExact) {
  // One ULL switch at 10 Gb/s, 400 B packet: 320 ns host serialization
  // on the critical path, 380 ns switching, nothing else.  The tracer
  // must reproduce the simulator's own arithmetic component by
  // component, with zero residual.
  auto f = Fixture::single_switch(topo::SwitchModel::ull());
  sim::Network net(f.topo, *f.oracle);
  PacketTracer tracer;
  net.add_sink(&tracer);
  const int task = net.new_task({});
  net.send(f.topo.hosts[0], f.topo.hosts[1], bytes(400), task, 1);
  net.run_until(milliseconds(1));

  const DecompositionSummary d = tracer.summary();
  ASSERT_EQ(d.packets, 1u);
  EXPECT_DOUBLE_EQ(d.host_us, 0.0);
  EXPECT_DOUBLE_EQ(d.queueing_us, 0.0);
  EXPECT_DOUBLE_EQ(d.serialization_us, 0.320);
  EXPECT_DOUBLE_EQ(d.switching_us, 0.380);
  EXPECT_DOUBLE_EQ(d.propagation_us, 0.0);
  EXPECT_DOUBLE_EQ(d.total_us, 0.700);
  EXPECT_DOUBLE_EQ(d.residual_us(), 0.0);
}

TEST(PacketTracer, StoreAndForwardChargesSerializationPerHop) {
  // A CCS pays the full receive time before forwarding: 320 ns receive
  // + 6 us forwarding + 320 ns egress = 6.64 us, with both wire times
  // attributed to serialization.
  auto f = Fixture::single_switch(topo::SwitchModel::ccs());
  sim::Network net(f.topo, *f.oracle);
  PacketTracer tracer;
  net.add_sink(&tracer);
  const int task = net.new_task({});
  net.send(f.topo.hosts[0], f.topo.hosts[1], bytes(400), task, 1);
  net.run_until(milliseconds(1));

  const DecompositionSummary d = tracer.summary();
  ASSERT_EQ(d.packets, 1u);
  EXPECT_DOUBLE_EQ(d.serialization_us, 0.640);
  EXPECT_DOUBLE_EQ(d.switching_us, 6.0);
  EXPECT_DOUBLE_EQ(d.total_us, 6.640);
  EXPECT_DOUBLE_EQ(d.residual_us(), 0.0);
}

TEST(PacketTracer, ComponentsTelescopeUnderLoad) {
  // With queueing in play the attribution still sums exactly to the
  // measured end-to-end latency for the aggregate.
  auto f = Fixture::single_switch(topo::SwitchModel::ull());
  sim::Network net(f.topo, *f.oracle);
  PacketTracer tracer;
  net.add_sink(&tracer);
  const int task = net.new_task({});
  for (int i = 0; i < 40; ++i) {
    net.send(f.topo.hosts[static_cast<std::size_t>(i % 3)], f.topo.hosts[3], bytes(400), task,
             static_cast<std::uint64_t>(i));
  }
  net.run_until(milliseconds(1));

  const DecompositionSummary d = tracer.summary();
  ASSERT_EQ(d.packets, 40u);
  EXPECT_GT(d.queueing_us, 0.0);
  EXPECT_NEAR(d.residual_us(), 0.0, 1e-9);
  EXPECT_GE(d.p99_total_us, d.total_us);
}

TEST(PacketTracer, SamplingTracesEveryNth) {
  auto f = Fixture::single_switch(topo::SwitchModel::ull());
  sim::Network net(f.topo, *f.oracle);
  PacketTracer::Options options;
  options.sample_every = 2;
  PacketTracer tracer(options);
  net.add_sink(&tracer);
  const int task = net.new_task({});
  for (int i = 0; i < 10; ++i) {
    net.send(f.topo.hosts[0], f.topo.hosts[1], bytes(400), task, 1);
    net.run_until(net.now() + microseconds(10));
  }
  EXPECT_EQ(tracer.completed(), 5u);
  EXPECT_EQ(tracer.in_flight(), 0u);
}

TEST(PacketTracer, PerTaskSummariesSeparate) {
  auto f = Fixture::single_switch(topo::SwitchModel::ull());
  sim::Network net(f.topo, *f.oracle);
  PacketTracer tracer;
  net.add_sink(&tracer);
  const int task_a = net.new_task({});
  const int task_b = net.new_task({});
  net.send(f.topo.hosts[0], f.topo.hosts[1], bytes(400), task_a, 1);
  net.send(f.topo.hosts[2], f.topo.hosts[3], bytes(400), task_b, 2);
  net.send(f.topo.hosts[1], f.topo.hosts[2], bytes(400), task_b, 3);
  net.run_until(milliseconds(1));

  EXPECT_EQ(tracer.tasks().size(), 2u);
  EXPECT_EQ(tracer.summary(task_a).packets, 1u);
  EXPECT_EQ(tracer.summary(task_b).packets, 2u);
  EXPECT_EQ(tracer.summary().packets, 3u);
}

TEST(PacketTracer, KeepsBoundedFullTraces) {
  auto f = Fixture::single_switch(topo::SwitchModel::ull());
  sim::Network net(f.topo, *f.oracle);
  PacketTracer::Options options;
  options.keep_traces = 2;
  PacketTracer tracer(options);
  net.add_sink(&tracer);
  const int task = net.new_task({});
  for (int i = 0; i < 5; ++i) {
    net.send(f.topo.hosts[0], f.topo.hosts[1], bytes(400), task, 1);
  }
  net.run_until(milliseconds(1));

  ASSERT_EQ(tracer.kept_traces().size(), 2u);
  const PacketTrace& t = tracer.kept_traces().front();
  ASSERT_EQ(t.hops.size(), 2u);  // host egress + switch egress
  EXPECT_EQ(t.host + t.queueing + t.serialization + t.switching + t.propagation, t.total());
}

TEST(PacketTracer, DroppedPacketsLeaveTheRollup) {
  auto f = Fixture::single_switch(topo::SwitchModel::ull());
  sim::SimConfig config;
  config.max_queue_delay = microseconds(1);
  sim::Network net(f.topo, *f.oracle, config);
  PacketTracer tracer;
  net.add_sink(&tracer);
  const int task = net.new_task({});
  for (int i = 0; i < 50; ++i) {
    net.send(f.topo.hosts[0], f.topo.hosts[1], bytes(400), task, 1);
  }
  net.run_until(milliseconds(1));

  EXPECT_GT(tracer.dropped(), 0u);
  EXPECT_EQ(tracer.completed() + tracer.dropped(), 50u);
  EXPECT_EQ(tracer.summary().packets, tracer.completed());
  EXPECT_EQ(tracer.in_flight(), 0u);
}

}  // namespace
}  // namespace quartz::telemetry
