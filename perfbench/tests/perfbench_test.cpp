// The benchmark's own tests: its workloads are deterministic in their
// seed, its fig17_capture composition simulates exactly what
// run_task_experiment does, and every metric it prints is well formed
// and named in BENCHMARK.json.
#include <gtest/gtest.h>

#include <fstream>
#include <regex>
#include <set>
#include <sstream>
#include <string>

#include "harness.hpp"
#include "sim/experiments.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

RepOptions small_rep(std::uint64_t seed) {
  RepOptions options;
  options.seed = seed;
  options.small = true;
  return options;
}

TEST(ModelDigest, SameSeedRepeatsAndAnotherSeedChangesIt) {
  for (const Workload& w : workloads()) {
    SCOPED_TRACE(w.name);
    const RepResult a = w.run(small_rep(1));
    const RepResult b = w.run(small_rep(1));
    const RepResult c = w.run(small_rep(2));
    EXPECT_TRUE(a.check_failures.empty()) << a.check_failures.front();
    EXPECT_TRUE(c.check_failures.empty()) << c.check_failures.front();
    EXPECT_GT(a.delivered, 0u);
    EXPECT_EQ(a.model_digest, b.model_digest);
    EXPECT_EQ(a.attempted, b.attempted);
    EXPECT_EQ(a.failed, b.failed);
    EXPECT_NE(a.model_digest, c.model_digest);
  }
}

TEST(ModelDigest, TracingAndCompanionPassesKeepTheModel) {
  for (const char* name : {"fig17_capture", "storm_sharded"}) {
    SCOPED_TRACE(name);
    const Workload* w = find_workload(name);
    ASSERT_NE(w, nullptr);
    const RepResult plain = w->run(small_rep(3));
    Ledger ledger;
    RepOptions traced = small_rep(3);
    traced.ledger = &ledger;
    RepOptions companion = small_rep(3);
    companion.capture = false;  // fig17_capture: capture is passive
    companion.shards = 1;       // storm_sharded: sharding matches serial
    EXPECT_EQ(w->run(traced).model_digest, plain.model_digest);
    EXPECT_EQ(w->run(companion).model_digest, plain.model_digest);
    EXPECT_FALSE(ledger.spans().empty());
  }
}

TEST(Fig17Capture, MatchesRunTaskExperiment) {
  for (const std::uint64_t seed : {5u, 6u}) {
    const RepResult rep = run_fig17_capture(small_rep(seed));

    quartz::sim::TaskExperimentParams params;
    params.pattern = quartz::sim::Pattern::kScatter;
    params.tasks = 16;
    params.fanout = 15;
    params.per_flow_rate = quartz::megabits_per_second(200);
    params.duration = quartz::milliseconds(2);  // the workload's small size
    params.seed = seed;
    const quartz::sim::TaskExperimentResult ref = quartz::sim::run_task_experiment(
        quartz::sim::Fabric::kQuartzInEdgeAndCore, quartz::sim::FabricConfig{}, params);

    EXPECT_GT(ref.packets_measured, 0u);
    EXPECT_EQ(rep.delivered, ref.packets_measured);
    EXPECT_EQ(rep.failed, ref.packets_dropped);
    EXPECT_DOUBLE_EQ(rep.mean_us, ref.mean_latency_us);
    EXPECT_DOUBLE_EQ(rep.p99_us, ref.p99_latency_us);
  }
}

std::string read_spec() {
  std::ifstream in(PERFBENCH_SPEC);
  std::stringstream text;
  text << in.rdbuf();
  return text.str();
}

TEST(Metrics, PrintedNamesAreWellFormedAndDeclared) {
  const std::regex name_re("[A-Za-z0-9_.-]+");
  const std::regex unit_re("[A-Za-z0-9_/%.-]{1,16}");
  // The metric names the benchmark was specified with.
  const std::set<std::string> declared = {
      "pkts_per_s", "setup_s", "peak_rss_mb", "ok_share",
      "topo.build_s", "topo.switches", "topo.links",
      "routing.build_s", "routing.fib_hits", "routing.fib_misses", "routing.fib_hit_ratio",
      "routing.hier_miss_ratio", "routing.hier_entry_kib",
      "sim.events", "sim.ns_per_event", "sim.events_per_pkt", "sim.pending_peak",
      "sim.run_self_s", "sim.hops_per_pkt", "sim.queue_wait_us_p99", "sim.drops_queue",
      "sim.drops_link", "sim.drops_corrupt",
      "sim.shard_mail", "sim.shard_mail_per_pkt", "sim.shard_events_vs_serial",
      "sim.shard_speedup", "sim.shard_slice_ms_p50", "sim.shard_slice_ms_p99",
      "sim.shard_cpu_per_wall",
      "telemetry.pages", "telemetry.bytes_per_event", "telemetry.seal_s",
      "telemetry.capture_overhead_rel",
      "snapshot.saves", "snapshot.save_ms_p50", "snapshot.bytes_per_save",
      "snapshot.restore_ms",
      "serve.run_self_s", "serve.arrivals", "serve.shed", "serve.retries",
      "serve.events_per_request",
      "flow.arm_s", "flow.epochs", "flow.demands", "flow.share",
      "chaos.faults", "chaos.health_transitions", "trace_overhead_rel"};
  const std::string spec = read_spec();
  ASSERT_FALSE(spec.empty()) << "cannot read " << PERFBENCH_SPEC;

  for (const Workload& w : workloads()) {
    for (const bool trace : {false, true}) {
      SCOPED_TRACE(std::string(w.name) + (trace ? " traced" : " untraced"));
      MeasureOptions options;
      options.seed = 4;
      options.seconds = 0;
      options.small = true;
      options.trace = trace;
      const Outcome out = measure(w, options);
      EXPECT_TRUE(out.correct) << (out.messages.empty() ? "" : out.messages.front());
      EXPECT_EQ(out.failed, 0u);
      EXPECT_GT(out.attempted, 0u);

      const std::vector<MetricSpec>& expected = trace ? per_layer_metrics() : end_to_end_metrics();
      ASSERT_EQ(out.metrics.all().size(), expected.size());
      for (std::size_t i = 0; i < expected.size(); ++i) {
        const Metric& m = out.metrics.all()[i];
        EXPECT_EQ(m.name, expected[i].name);
        EXPECT_EQ(m.unit, expected[i].unit);
        EXPECT_TRUE(std::regex_match(m.name, name_re)) << m.name;
        EXPECT_TRUE(std::regex_match(m.unit, unit_re)) << m.name << " unit " << m.unit;
        EXPECT_TRUE(declared.count(m.name)) << m.name;
        const std::string entry =
            "{\"name\": \"" + m.name + "\", \"unit\": \"" + m.unit + "\"";
        EXPECT_NE(spec.find(entry), std::string::npos) << m.name << " not in BENCHMARK.json";
      }
      if (!trace) {
        EXPECT_GT(out.metrics.value("pkts_per_s"), 0.0);
        EXPECT_GT(out.metrics.value("setup_s"), 0.0);
      }
    }
  }
}

}  // namespace
}  // namespace perfbench
