#include "telemetry/trace.hpp"

#include "common/check.hpp"

namespace quartz::telemetry {

JsonRow DecompositionSummary::to_row() const {
  return {
      {"packets", packets},
      {"host_us", host_us},
      {"queueing_us", queueing_us},
      {"serialization_us", serialization_us},
      {"switching_us", switching_us},
      {"propagation_us", propagation_us},
      {"component_sum_us", component_sum_us()},
      {"total_us", total_us},
      {"residual_us", residual_us()},
      {"p99_total_us", p99_total_us},
  };
}

PacketTracer::PacketTracer() : PacketTracer(Options{}) {}

PacketTracer::PacketTracer(Options options) : options_(options) {
  QUARTZ_REQUIRE(options_.sample_every >= 1, "sample_every must be at least 1");
}

bool PacketTracer::sampled(const sim::Packet& packet) const {
  return packet.id % options_.sample_every == 0;
}

PacketTracer::Live* PacketTracer::find(const sim::Packet& packet) {
  const auto it = live_.find(packet.id);
  return it == live_.end() ? nullptr : &it->second;
}

void PacketTracer::on_send(const sim::Packet& packet, TimePs ready) {
  if (!sampled(packet)) return;
  Live& live = live_[packet.id];
  live.trace.packet_id = packet.id;
  live.trace.task = packet.task;
  live.trace.created = packet.created;
  live.trace.host = ready - packet.created;  // host send overhead
  live.keep_hops = kept_.size() < options_.keep_traces;
}

void PacketTracer::on_transmit(const sim::Packet& packet, topo::NodeId from, topo::LinkId link,
                               int /*direction*/, TimePs ready, TimePs start, TimePs finish) {
  Live* live = find(packet);
  if (live == nullptr) return;
  live->trace.queueing += start - ready;
  live->pending_start = start;
  if (live->keep_hops) {
    HopRecord hop;
    hop.node = from;
    hop.link = link;
    hop.queue_wait = start - ready;
    hop.serialization = finish - start;  // local wire occupancy
    live->trace.hops.push_back(hop);
  }
}

void PacketTracer::on_arrival(const sim::Packet& packet, topo::NodeId /*node*/, TimePs first_bit,
                              TimePs last_bit) {
  Live* live = find(packet);
  if (live == nullptr) return;
  const TimePs propagation = first_bit - live->pending_start;
  live->trace.propagation += propagation;
  live->arrival_first = first_bit;
  live->arrival_last = last_bit;
  if (live->keep_hops && !live->trace.hops.empty()) {
    live->trace.hops.back().propagation = propagation;
  }
}

void PacketTracer::on_forward(const sim::Packet& packet, topo::NodeId /*node*/, HopKind kind,
                              TimePs first_bit, TimePs last_bit, TimePs decision_ready) {
  Live* live = find(packet);
  if (live == nullptr) return;
  TimePs switching = 0;
  switch (kind) {
    case HopKind::kCutThrough:
      // Decision on the header: only the forwarding latency sits on the
      // critical path; the upstream serialization is pipelined away.
      switching = decision_ready - first_bit;
      break;
    case HopKind::kStoreAndForward:
      // Waits for the last bit: the full receive time is on the path.
      live->trace.serialization += last_bit - first_bit;
      switching = decision_ready - last_bit;
      break;
    case HopKind::kServerRelay:
      // Full receive, then the relay's OS stack (host overhead).
      live->trace.serialization += last_bit - first_bit;
      live->trace.host += decision_ready - last_bit;
      break;
  }
  live->trace.switching += switching;
  if (live->keep_hops && !live->trace.hops.empty()) {
    live->trace.hops.back().switching = switching;
  }
}

void PacketTracer::on_delivery(const sim::Packet& packet, TimePs delivered, TimePs /*latency*/) {
  Live* live = find(packet);
  if (live == nullptr) return;
  // The destination pays the last hop's wire time in full, then the
  // host receive overhead.
  live->trace.serialization += live->arrival_last - live->arrival_first;
  live->trace.host += delivered - live->arrival_last;
  live->trace.delivered = delivered;

  overall_.add(live->trace);
  by_task_[live->trace.task].add(live->trace);
  ++completed_;
  if (live->keep_hops && kept_.size() < options_.keep_traces) {
    kept_.push_back(std::move(live->trace));
  }
  live_.erase(packet.id);
}

void PacketTracer::on_drop(const sim::Packet& packet, DropReason /*reason*/, TimePs /*when*/) {
  if (live_.erase(packet.id) > 0) ++dropped_;
}

void PacketTracer::Accumulator::add(const PacketTrace& t) {
  host.add(to_microseconds(t.host));
  queueing.add(to_microseconds(t.queueing));
  serialization.add(to_microseconds(t.serialization));
  switching.add(to_microseconds(t.switching));
  propagation.add(to_microseconds(t.propagation));
  total.add(to_microseconds(t.total()));
}

DecompositionSummary PacketTracer::Accumulator::summarize() const {
  DecompositionSummary s;
  s.packets = total.count();
  if (s.packets == 0) return s;
  s.host_us = host.mean();
  s.queueing_us = queueing.mean();
  s.serialization_us = serialization.mean();
  s.switching_us = switching.mean();
  s.propagation_us = propagation.mean();
  s.total_us = total.mean();
  s.p99_total_us = total.percentile(99.0);
  return s;
}

DecompositionSummary PacketTracer::summary() const { return overall_.summarize(); }

DecompositionSummary PacketTracer::summary(int task) const {
  const auto it = by_task_.find(task);
  return it == by_task_.end() ? DecompositionSummary{} : it->second.summarize();
}

std::vector<int> PacketTracer::tasks() const {
  std::vector<int> out;
  out.reserve(by_task_.size());
  for (const auto& [task, accum] : by_task_) out.push_back(task);
  return out;
}

}  // namespace quartz::telemetry
