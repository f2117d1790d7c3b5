// Per-hop packet tracing and end-to-end latency decomposition.
//
// The PacketTracer subscribes to the simulator's telemetry events and,
// for sampled packets, reconstructs where every picosecond of
// end-to-end latency went.  The attribution follows the packet's
// critical path — the first-bit / forwarding-decision trajectory — so
// the five components telescope EXACTLY to the measured latency:
//
//   total = host + queueing + serialization + switching + propagation
//
//  * host          — send/receive OS+NIC overhead, plus server-relay
//                    forwarding stacks (Table 2's "OS network stack");
//  * queueing      — output-port waits (the congestion share);
//  * serialization — wire time actually on the critical path: the
//                    final hop's occupancy under cut-through pipelining
//                    (paid once, the pipelining win), plus the full
//                    store-and-forward receive time at each SAF hop;
//  * switching     — per-hop forwarding latency (380 ns ULL vs 6 us CCS);
//  * propagation   — speed-of-light fiber delay.
//
// This is the measurement substrate for the paper's Table 2 budget and
// the Fig. 17/18 argument that Quartz wins on queueing and hop count.
#pragma once

#include <cstdint>
#include <map>
#include <unordered_map>
#include <vector>

#include "common/stats.hpp"
#include "common/units.hpp"
#include "sim/packet.hpp"
#include "telemetry/export.hpp"
#include "telemetry/sink.hpp"

namespace quartz::telemetry {

/// Rolled-up decomposition: mean microseconds per component over the
/// traced packets.  component_sum() and total_us agree to rounding.
struct DecompositionSummary {
  std::uint64_t packets = 0;
  double host_us = 0;
  double queueing_us = 0;
  double serialization_us = 0;
  double switching_us = 0;
  double propagation_us = 0;
  double total_us = 0;  ///< mean end-to-end latency of the traced packets
  double p99_total_us = 0;

  double component_sum_us() const {
    return host_us + queueing_us + serialization_us + switching_us + propagation_us;
  }
  double residual_us() const { return total_us - component_sum_us(); }

  JsonRow to_row() const;
};

/// One forwarding step of a completed trace.  `serialization` is the
/// local wire occupancy of the hop (which may be pipelined away from
/// the end-to-end critical path under cut-through forwarding).
struct HopRecord {
  topo::NodeId node = topo::kInvalidNode;  ///< transmitting node
  topo::LinkId link = topo::kInvalidLink;
  TimePs queue_wait = 0;
  TimePs serialization = 0;
  TimePs propagation = 0;
  TimePs switching = 0;  ///< forwarding latency paid on arrival at `node`
};

/// A fully recorded packet journey.
struct PacketTrace {
  std::uint64_t packet_id = 0;
  int task = -1;
  TimePs created = 0;
  TimePs delivered = 0;
  // Critical-path attribution (picoseconds; sums exactly to
  // delivered - created).
  TimePs host = 0;
  TimePs queueing = 0;
  TimePs serialization = 0;
  TimePs switching = 0;
  TimePs propagation = 0;
  std::vector<HopRecord> hops;

  TimePs total() const { return delivered - created; }
};

class PacketTracer final : public TelemetrySink {
 public:
  struct Options {
    /// Trace packets whose id is a multiple of this; 1 = every packet.
    std::uint32_t sample_every = 1;
    /// Retain the full per-hop journey of the first N completed traces
    /// (the rollups always cover every sampled packet).
    std::size_t keep_traces = 0;
  };

  PacketTracer();
  explicit PacketTracer(Options options);

  /// Decomposition over every traced packet / one task's packets.
  DecompositionSummary summary() const;
  DecompositionSummary summary(int task) const;
  /// Task ids that completed at least one traced packet.
  std::vector<int> tasks() const;

  const std::vector<PacketTrace>& kept_traces() const { return kept_; }
  std::uint64_t completed() const { return completed_; }
  std::uint64_t dropped() const { return dropped_; }
  /// Sampled packets still in flight (or stranded at simulation end).
  std::size_t in_flight() const { return live_.size(); }

  // --- TelemetrySink ---------------------------------------------------------
  void on_send(const sim::Packet& packet, TimePs ready) override;
  void on_transmit(const sim::Packet& packet, topo::NodeId from, topo::LinkId link,
                   int direction, TimePs ready, TimePs start, TimePs finish) override;
  void on_arrival(const sim::Packet& packet, topo::NodeId node, TimePs first_bit,
                  TimePs last_bit) override;
  void on_forward(const sim::Packet& packet, topo::NodeId node, HopKind kind, TimePs first_bit,
                  TimePs last_bit, TimePs decision_ready) override;
  void on_delivery(const sim::Packet& packet, TimePs delivered, TimePs latency) override;
  void on_drop(const sim::Packet& packet, DropReason reason, TimePs when) override;

 private:
  struct Live {
    PacketTrace trace;
    TimePs pending_start = 0;   ///< transmit start awaiting its arrival
    TimePs arrival_first = 0;   ///< latest arrival's first-bit time
    TimePs arrival_last = 0;    ///< latest arrival's last-bit time
    bool keep_hops = false;
  };
  struct Accumulator {
    RunningStats host, queueing, serialization, switching, propagation;
    SampleSet total;
    void add(const PacketTrace& t);
    DecompositionSummary summarize() const;
  };

  bool sampled(const sim::Packet& packet) const;
  Live* find(const sim::Packet& packet);

  Options options_;
  std::unordered_map<std::uint64_t, Live> live_;
  Accumulator overall_;
  std::map<int, Accumulator> by_task_;
  std::vector<PacketTrace> kept_;
  std::uint64_t completed_ = 0;
  std::uint64_t dropped_ = 0;
};

}  // namespace quartz::telemetry
