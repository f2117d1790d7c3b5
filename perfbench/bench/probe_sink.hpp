// Passive observers the traced runs attach to a Network through its
// public sink interface.  Sinks never perturb the event stream, so a
// traced rep simulates exactly what an untraced one does.
#pragma once

#include <algorithm>
#include <cstdint>

#include "ledger.hpp"
#include "sim/network.hpp"
#include "telemetry/histogram.hpp"
#include "telemetry/sink.hpp"

namespace perfbench {

/// Counts switch hops and port queue waits.
class CountingSink final : public quartz::telemetry::TelemetrySink {
 public:
  void on_transmit(const quartz::sim::Packet&, quartz::topo::NodeId, quartz::topo::LinkId, int,
                   quartz::TimePs ready, quartz::TimePs start, quartz::TimePs) override {
    queue_wait_us_.add(quartz::to_microseconds(start - ready));
  }
  void on_forward(const quartz::sim::Packet&, quartz::topo::NodeId, quartz::telemetry::HopKind,
                  quartz::TimePs, quartz::TimePs, quartz::TimePs) override {
    ++hops_;
  }

  std::uint64_t hops() const { return hops_; }
  /// p99 of the simulated wait between a packet being ready on a port
  /// and its first bit leaving (µs).
  double queue_wait_us_p99() const { return queue_wait_us_.percentile(99.0); }

 private:
  quartz::telemetry::StreamingHistogram queue_wait_us_;
  std::uint64_t hops_ = 0;
};

/// The engine and port metrics every packet workload reports from its
/// Network once the run ends.  `run_self_s` is the self time of the
/// spans that drove the engine.
inline void report_sim_layer(Metrics& layer, const quartz::sim::Network& net,
                             const CountingSink& sink, double run_self_s,
                             std::uint64_t pending_peak) {
  using quartz::sim::DropReason;
  const double events = static_cast<double>(net.events_processed());
  const double delivered = static_cast<double>(net.packets_delivered());
  layer.set("sim.events", events, "count");
  layer.set("sim.ns_per_event", events > 0 ? 1e9 * run_self_s / events : 0.0, "ns");
  layer.set("sim.events_per_pkt", delivered > 0 ? events / delivered : 0.0, "ratio");
  layer.set("sim.pending_peak", static_cast<double>(pending_peak), "count");
  layer.set("sim.run_self_s", run_self_s, "s");
  layer.set("sim.hops_per_pkt",
            delivered > 0 ? static_cast<double>(sink.hops()) / delivered : 0.0, "ratio");
  layer.set("sim.queue_wait_us_p99", sink.queue_wait_us_p99(), "us");
  layer.set("sim.drops_queue",
            static_cast<double>(net.packets_dropped(DropReason::kQueueOverflow)), "count");
  layer.set("sim.drops_link", static_cast<double>(net.packets_dropped(DropReason::kLinkDown)),
            "count");
  layer.set("sim.drops_corrupt",
            static_cast<double>(net.packets_dropped(DropReason::kCorrupted)), "count");
}

/// Drive `net` to `end` in `slices` equal steps, each inside a span
/// named "network.run_until", and return the engine's pending-event peak
/// at slice ends.  Equivalent to one run_until(end): the engine runs
/// every event at or before each slice end, in the same order.
inline std::uint64_t run_sliced(Ledger* ledger, quartz::sim::Network& net, quartz::TimePs end,
                                int slices) {
  std::uint64_t peak = net.engine().size();
  for (int i = 1; i <= slices; ++i) {
    {
      Ledger::Scope scope(ledger, "network.run_until");
      net.run_until(end * i / slices);
    }
    peak = std::max<std::uint64_t>(peak, net.engine().size());
  }
  return peak;
}

}  // namespace perfbench
