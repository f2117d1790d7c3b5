#include "workloads.hpp"

namespace perfbench {

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> all = {
      {"fig17_capture", run_fig17_capture},
      {"serve_knee2x", run_serve_knee2x},
      {"storm_sharded", run_storm_sharded},
      {"warehouse_hybrid", run_warehouse_hybrid},
  };
  return all;
}

const Workload* find_workload(const std::string& name) {
  for (const Workload& w : workloads()) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

const std::vector<MetricSpec>& end_to_end_metrics() {
  static const std::vector<MetricSpec> all = {
      {"pkts_per_s", "packets/s"},
      {"setup_s", "s"},
      {"peak_rss_mb", "MiB"},
      {"ok_share", "ratio"},
  };
  return all;
}

const std::vector<MetricSpec>& per_layer_metrics() {
  static const std::vector<MetricSpec> all = {
      {"topo.build_s", "s"},
      {"topo.switches", "count"},
      {"topo.links", "count"},
      {"routing.build_s", "s"},
      {"routing.fib_hits", "count"},
      {"routing.fib_misses", "count"},
      {"routing.fib_hit_ratio", "ratio"},
      {"routing.hier_miss_ratio", "ratio"},
      {"routing.hier_entry_kib", "KiB"},
      {"sim.events", "count"},
      {"sim.ns_per_event", "ns"},
      {"sim.events_per_pkt", "ratio"},
      {"sim.pending_peak", "count"},
      {"sim.run_self_s", "s"},
      {"sim.hops_per_pkt", "ratio"},
      {"sim.queue_wait_us_p99", "us"},
      {"sim.drops_queue", "count"},
      {"sim.drops_link", "count"},
      {"sim.drops_corrupt", "count"},
      {"sim.shard_mail", "count"},
      {"sim.shard_mail_per_pkt", "ratio"},
      {"sim.shard_events_vs_serial", "ratio"},
      {"sim.shard_speedup", "ratio"},
      {"sim.shard_slice_ms_p50", "ms"},
      {"sim.shard_slice_ms_p99", "ms"},
      {"sim.shard_cpu_per_wall", "ratio"},
      {"telemetry.pages", "count"},
      {"telemetry.bytes_per_event", "B"},
      {"telemetry.seal_s", "s"},
      {"telemetry.capture_overhead_rel", "ratio"},
      {"snapshot.saves", "count"},
      {"snapshot.save_ms_p50", "ms"},
      {"snapshot.bytes_per_save", "B"},
      {"snapshot.restore_ms", "ms"},
      {"serve.run_self_s", "s"},
      {"serve.arrivals", "count"},
      {"serve.shed", "count"},
      {"serve.retries", "count"},
      {"serve.events_per_request", "ratio"},
      {"flow.arm_s", "s"},
      {"flow.epochs", "count"},
      {"flow.demands", "count"},
      {"flow.share", "ratio"},
      {"chaos.faults", "count"},
      {"chaos.health_transitions", "count"},
      {"trace_overhead_rel", "ratio"},
  };
  return all;
}

}  // namespace perfbench
