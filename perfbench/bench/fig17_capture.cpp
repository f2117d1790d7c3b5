// fig17_capture: the paper's Fig. 17 global scatter on the
// Quartz-in-edge-and-core fabric (16 tasks, fanout 15, FIB on), with
// full binary event capture sealed into a page sink that counts and
// drops pages, so no disk is measured.
//
// Composed from the public pieces run_task_experiment uses
// (build_fabric, Network, ScatterTask), in the same order, so for one
// seed it simulates the same run (the benchmark's tests check this).
#include <memory>
#include <vector>

#include "common/rng.hpp"
#include "common/stats.hpp"
#include "probe_sink.hpp"
#include "sim/experiments.hpp"
#include "sim/workloads.hpp"
#include "telemetry/binary_stream.hpp"
#include "telemetry/stream_sink.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace quartz;

/// Counts sealed pages and their bytes, then drops them.
class CountingPageSink final : public telemetry::PageSink {
 public:
  explicit CountingPageSink(Ledger* ledger) : ledger_(ledger) {}

  void accept(const telemetry::Page& page) override {
    Ledger::Scope scope(ledger_, "page_sink.accept");
    ++pages_;
    bytes_ += page.header.payload_bytes;
    if (page.header.magic != telemetry::kPageMagic) ++bad_;
  }

  std::uint64_t pages() const { return pages_; }
  std::uint64_t bytes() const { return bytes_; }
  std::uint64_t bad() const { return bad_; }

 private:
  Ledger* ledger_;
  std::uint64_t pages_ = 0;
  std::uint64_t bytes_ = 0;
  std::uint64_t bad_ = 0;
};

}  // namespace

RepResult run_fig17_capture(const RepOptions& options) {
  Ledger* ledger = options.ledger;
  const int tasks = 16;
  const int fanout = 15;
  const TimePs duration = options.small ? milliseconds(2) : milliseconds(40);
  const TimePs end = duration + milliseconds(1);  // drain in-flight packets

  RepResult result;
  Stopwatch rep;

  sim::FabricConfig config;  // §7's ~64-host fabrics, FIB on
  sim::BuiltFabric built;
  {
    Ledger::Scope scope(ledger, "build_fabric");
    built = sim::build_fabric(sim::Fabric::kQuartzInEdgeAndCore, config);
  }
  sim::Network network(built.topo, *built.oracle);
  if (built.fib != nullptr) network.set_fib(built.fib.get());
  Rng rng(options.seed);

  CountingSink probe;
  if (ledger != nullptr) network.add_sink(&probe);
  CountingPageSink pages(ledger);
  std::unique_ptr<telemetry::BinaryStream> stream;
  std::unique_ptr<telemetry::BinaryStreamSink> stream_sink;
  if (options.capture) {
    telemetry::BinaryStream::Options stream_options;
    stream_options.background = false;  // seal inline: one thread, no drainer
    stream = std::make_unique<telemetry::BinaryStream>(pages, stream_options);
    stream_sink = std::make_unique<telemetry::BinaryStreamSink>(*stream);
    network.set_stream_sink(stream_sink.get());
  }

  sim::TaskPatternParams flow_params;
  flow_params.per_flow_rate = megabits_per_second(200);
  flow_params.stop = duration;
  std::vector<std::unique_ptr<sim::ScatterTask>> scatters;
  for (int t = 0; t < tasks; ++t) {
    std::vector<topo::NodeId> members = built.topo.hosts;
    rng.shuffle(members);
    members.resize(static_cast<std::size_t>(fanout) + 1);
    const topo::NodeId head = members.back();
    members.pop_back();
    scatters.push_back(
        std::make_unique<sim::ScatterTask>(network, head, members, flow_params, rng.fork()));
  }
  result.setup_s = rep.elapsed_s();

  Stopwatch run;
  std::uint64_t pending_peak = 0;
  if (ledger != nullptr) {
    pending_peak = run_sliced(ledger, network, end, 50);
  } else {
    network.run_until(end);
  }
  if (stream != nullptr) {
    Ledger::Scope scope(ledger, "stream.finish");
    stream->finish();
  }
  result.run_s = run.elapsed_s();

  // Outcomes: every task's latencies in delivery order, then totals.
  SampleSet all;
  Digest digest;
  for (const auto& task : scatters) {
    for (const double s : task->latencies_us().samples()) {
      all.add(s);
      digest.add_double(s);
    }
  }
  result.delivered = network.packets_delivered();
  result.events = network.events_processed();
  result.attempted = network.packets_sent();
  result.failed = network.packets_dropped();
  result.mean_us = all.empty() ? 0.0 : all.mean();
  result.p99_us = all.empty() ? 0.0 : all.percentile(99.0);
  for (const std::uint64_t v : {result.attempted, result.delivered, result.failed}) digest.add(v);
  digest.add_double(all.empty() ? 0.0 : all.percentile(50.0));
  digest.add_double(result.p99_us);
  result.model_digest = digest.value();

  if (network.packets_sent() != network.packets_delivered() + network.packets_dropped()) {
    result.check_failures.push_back("fig17_capture: packets sent != delivered + dropped");
  }
  if (network.packets_delivered() != all.count()) {
    result.check_failures.push_back("fig17_capture: deliveries missing from task samples");
  }
  if (stream != nullptr &&
      (stream->records() == 0 || pages.pages() != stream->pages_sealed() || pages.bad() != 0)) {
    result.check_failures.push_back("fig17_capture: capture lost or corrupted pages");
  }

  if (ledger != nullptr) {
    Metrics& layer = result.layer;
    layer.set("topo.build_s", ledger->total_s("build_fabric"), "s");
    layer.set("topo.switches", static_cast<double>(built.topo.graph.switches().size()), "count");
    layer.set("topo.links", static_cast<double>(built.topo.graph.link_count()), "count");
    const routing::Fib::Stats& fib = built.fib->stats();
    const double lookups = static_cast<double>(fib.hits + fib.misses);
    layer.set("routing.fib_hits", static_cast<double>(fib.hits), "count");
    layer.set("routing.fib_misses", static_cast<double>(fib.misses), "count");
    layer.set("routing.fib_hit_ratio", lookups > 0 ? fib.hits / lookups : 0.0, "ratio");
    report_sim_layer(layer, network, probe, ledger->self_s("network.run_until"), pending_peak);
    if (stream != nullptr) {
      layer.set("telemetry.pages", static_cast<double>(pages.pages()), "count");
      layer.set("telemetry.bytes_per_event",
                static_cast<double>(pages.bytes()) / static_cast<double>(stream->records()),
                "B");
      layer.set("telemetry.seal_s", ledger->total_s("page_sink.accept"), "s");
    }
  }
  return result;
}

}  // namespace perfbench
