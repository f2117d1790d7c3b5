// storm_sharded: chaos::ShardedStormRun with the default storm script
// (2 cuts, 2 gray links at 25% loss, 1 flapping link, 5 µs probes) on
// ring-of-rings:8x8@2, at 2 shards.  Loads the sharded engine (windows,
// mailboxes, the replicated control plane) and the EcmpOracle slow
// path under failure and loss views.
//
// ShardedStormRun exposes no per-shard network, so the traced run reads
// the control plane's counters back out of a barrier-aligned snapshot
// (ShardedStormRun::save), restoring each component through its own
// public restore().
#include <cstring>
#include <optional>

#include "chaos/sharded_storm.hpp"
#include "routing/ecmp.hpp"
#include "routing/health_monitor.hpp"
#include "routing/oracle.hpp"
#include "sim/fault_injection.hpp"
#include "sim/network.hpp"
#include "snapshot/io.hpp"
#include "topo/composite.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace quartz;

constexpr char kSpec[] = "ring-of-rings:8x8@2";

chaos::ShardedStormParams storm_params(const RepOptions& options) {
  chaos::ShardedStormParams params;
  params.seed = options.seed;
  params.composite = kSpec;
  params.shards = options.shards;
  params.packets_per_host = options.small ? 100 : 1500;
  params.packet_gap = microseconds(2);
  // The default script (cuts, gray links, a flapping link, 5 µs probes)
  // spread over the traffic: faults land in the first half, repairs
  // before the traffic ends, and the run drains after it.
  const TimePs traffic = params.packet_gap * params.packets_per_host;
  params.storm_start = traffic / 20;
  params.storm_end = traffic / 2;
  params.run_until = traffic + microseconds(300);
  return params;
}

/// Every chunk `id` in a ShardedStormRun snapshot, each re-wrapped as a
/// standalone snapshot so the owning component's restore() can read it.
std::vector<snapshot::Reader> chunks_of(const snapshot::Writer& writer, const char (&tag)[5]) {
  constexpr std::size_t kChunkHeader = 16;  // id u32, crc u32, payload bytes u64
  const std::uint32_t id = snapshot::chunk_id(tag);
  const std::vector<std::byte>& body = writer.buffer();
  std::vector<snapshot::Reader> out;
  std::size_t at = 0;
  while (at + kChunkHeader <= body.size()) {
    std::uint32_t found = 0;
    std::uint64_t payload = 0;
    std::memcpy(&found, body.data() + at, sizeof(found));
    std::memcpy(&payload, body.data() + at + 8, sizeof(payload));
    const std::size_t next = (at + kChunkHeader + payload + 7) / 8 * 8;
    if (found == id) {
      std::vector<std::byte> image = snapshot::file_bytes(snapshot::Writer{}, 0);
      image.insert(image.end() - kChunkHeader, body.begin() + static_cast<std::ptrdiff_t>(at),
                   body.begin() + static_cast<std::ptrdiff_t>(std::min(next, body.size())));
      std::string error;
      std::optional<snapshot::Reader> reader = snapshot::Reader::from_bytes(image, &error);
      QUARTZ_REQUIRE(reader.has_value(), "storm snapshot chunk unreadable: " + error);
      reader->open_chunk(id);
      out.push_back(std::move(*reader));
    }
    at = next;
  }
  return out;
}

/// Control-plane counters recovered from a finished run's snapshot.
struct ControlPlane {
  std::uint64_t drops_by_reason[telemetry::kDropReasonCount] = {};
  std::uint64_t faults = 0;
  std::uint64_t health_transitions = 0;
};

ControlPlane read_control_plane(chaos::ShardedStormRun& run, const topo::BuiltTopology& topo) {
  snapshot::Writer writer;
  run.save(writer);
  ControlPlane out;
  // Per-shard outcome records: (when, packet id, aux, kind); kind 1 is a
  // drop whose aux is the DropReason.
  for (snapshot::Reader& r : chunks_of(writer, "SREC")) {
    const std::uint64_t count = r.get_u64();
    for (std::uint64_t i = 0; i < count; ++i) {
      r.get_i64();
      r.get_u64();
      const std::uint64_t aux = r.get_u64();
      if (r.get_u8() == 1 && aux < telemetry::kDropReasonCount) ++out.drops_by_reason[aux];
    }
    r.close_chunk();
  }
  // The control plane is replicated on every shard: read shard 0's.
  std::vector<snapshot::Reader> monitors = chunks_of(writer, "MONI");
  std::vector<snapshot::Reader> faults = chunks_of(writer, "FLTS");
  if (monitors.empty() || faults.empty()) return out;

  routing::HealthMonitor monitor(topo.graph.link_count());
  monitor.restore(monitors.front());
  out.health_transitions = monitor.deaths() + monitor.revivals();

  const routing::EcmpRouting routing(topo.graph);
  const routing::EcmpOracle oracle(routing);
  sim::Network scratch(topo, oracle);
  sim::FaultScheduler scheduler(scratch);
  scheduler.restore(faults.front());
  out.faults = scheduler.cuts() + scheduler.degradations();
  return out;
}

}  // namespace

RepResult run_storm_sharded(const RepOptions& options) {
  Ledger* ledger = options.ledger;
  const chaos::ShardedStormParams params = storm_params(options);

  RepResult result;
  Stopwatch rep;
  std::optional<chaos::ShardedStormRun> run;
  {
    Ledger::Scope scope(ledger, "sharded_storm.construct");
    run.emplace(params);
  }
  {
    Ledger::Scope scope(ledger, "sharded_storm.arm");
    run->arm();
  }
  result.setup_s = rep.elapsed_s();

  Stopwatch wall;
  const double cpu_start = process_cpu_s();
  if (ledger != nullptr) {
    const int slices = 40;
    for (int i = 1; i <= slices; ++i) {
      Ledger::Scope scope(ledger, "sharded_storm.run_to");
      run->run_to(params.run_until * i / slices);
    }
  } else {
    run->run_to(params.run_until);
  }
  chaos::ShardedStormResult storm;
  {
    Ledger::Scope scope(ledger, "sharded_storm.finish");
    storm = run->finish();
  }
  result.run_s = wall.elapsed_s();
  const double cpu_s = process_cpu_s() - cpu_start;

  result.delivered = storm.deliveries;
  result.failed = storm.drops;
  result.p99_us = storm.p99_latency_us;
  result.mean_us = storm.mean_latency_us;
  result.events = storm.events;
  Digest digest;
  digest.add(storm.delivery_digest);
  digest.add(storm.drop_digest);
  digest.add(storm.deliveries);
  digest.add(storm.drops);
  digest.add_double(storm.mean_latency_us);
  digest.add_double(storm.p99_latency_us);
  result.model_digest = digest.value();

  // Every scripted packet is either delivered or dropped by run_until.
  // (The storm builds its own copy of this small fabric internally.)
  const topo::BuiltTopology topo = topo::build_composite(*topo::CompositeSpec::parse(kSpec));
  result.attempted =
      static_cast<std::uint64_t>(params.packets_per_host) * topo.hosts.size();
  if (storm.deliveries + storm.drops != result.attempted) {
    result.check_failures.push_back("storm_sharded: deliveries + drops != packets scripted");
  }
  if (storm.deliveries == 0) {
    result.check_failures.push_back("storm_sharded: nothing delivered");
  }

  if (ledger != nullptr) {
    Metrics& layer = result.layer;
    layer.set("topo.build_s", ledger->total_s("sharded_storm.construct"), "s");
    layer.set("topo.switches", static_cast<double>(topo.graph.switches().size()), "count");
    layer.set("topo.links", static_cast<double>(topo.graph.link_count()), "count");
    const ControlPlane control = read_control_plane(*run, topo);
    const double events = static_cast<double>(storm.events);
    const double delivered = static_cast<double>(storm.deliveries);
    const double run_self_s = ledger->self_s("sharded_storm.run_to");
    layer.set("sim.events", events, "count");
    layer.set("sim.ns_per_event", events > 0 ? 1e9 * run_self_s / events : 0.0, "ns");
    layer.set("sim.events_per_pkt", delivered > 0 ? events / delivered : 0.0, "ratio");
    layer.set("sim.run_self_s", run_self_s, "s");
    layer.set("sim.drops_queue", static_cast<double>(control.drops_by_reason[0]), "count");
    layer.set("sim.drops_link", static_cast<double>(control.drops_by_reason[1]), "count");
    layer.set("sim.drops_corrupt", static_cast<double>(control.drops_by_reason[2]), "count");
    layer.set("sim.shard_mail", static_cast<double>(storm.mail_posted), "count");
    layer.set("sim.shard_mail_per_pkt",
              delivered > 0 ? static_cast<double>(storm.mail_posted) / delivered : 0.0, "ratio");
    const std::vector<double> slices = ledger->durations_s("sharded_storm.run_to");
    layer.set("sim.shard_slice_ms_p50", 1e3 * percentile(slices, 50.0), "ms");
    layer.set("sim.shard_slice_ms_p99", 1e3 * percentile(slices, 99.0), "ms");
    layer.set("sim.shard_cpu_per_wall", result.run_s > 0 ? cpu_s / result.run_s : 0.0, "ratio");
    layer.set("chaos.faults", static_cast<double>(control.faults), "count");
    layer.set("chaos.health_transitions", static_cast<double>(control.health_transitions),
              "count");
  }
  return result;
}

}  // namespace perfbench
