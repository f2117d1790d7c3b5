#include "chaos/sharded_storm.hpp"

#include <algorithm>
#include <utility>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "routing/health_monitor.hpp"
#include "routing/oracle.hpp"
#include "sim/fault_injection.hpp"
#include "sim/network.hpp"
#include "sim/probes.hpp"
#include "snapshot/io.hpp"
#include "topo/composite.hpp"

namespace quartz::chaos {
namespace {

constexpr std::uint32_t kTrafficTag = 1;

/// Keyed PRF over (seed, domain, a, b): the workload's only source of
/// randomness.  Pure function — every shard count derives the same
/// schedule, destinations and flow hashes.
std::uint64_t prf(std::uint64_t seed, std::uint64_t domain, std::uint64_t a, std::uint64_t b) {
  auto mix = [](std::uint64_t x) {
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
  };
  std::uint64_t x = mix(seed ^ (domain + 0x9e3779b97f4a7c15ull));
  x = mix(x + a);
  x = mix(x + b);
  return x;
}

topo::BuiltTopology build_storm_topo(const ShardedStormParams& params) {
  if (params.composite.empty()) {
    topo::QuartzRingParams ring;
    ring.switches = params.flat_switches;
    ring.hosts_per_switch = params.flat_hosts_per_switch;
    return topo::quartz_ring(ring);
  }
  std::string error;
  const auto spec = topo::CompositeSpec::parse(params.composite, &error);
  QUARTZ_REQUIRE(spec.has_value(), "bad composite spec '" + params.composite + "': " + error);
  return topo::build_composite(*spec);
}

/// Fault targets: every switch-to-switch link (mesh lightpaths and
/// trunks alike — cutting a cross-shard trunk is exactly the case the
/// determinism tests must cover).
std::vector<topo::LinkId> fault_mesh(const topo::BuiltTopology& topo) {
  std::vector<topo::LinkId> out;
  for (const auto& link : topo.graph.links()) {
    if (topo.graph.is_switch(link.a) && topo.graph.is_switch(link.b)) out.push_back(link.id);
  }
  return out;
}

sim::SimConfig storm_sim_config(const ShardedStormParams& params) {
  sim::SimConfig config;
  config.corruption_seed = params.seed ^ 0x434F5252ull;  // "CORR"
  return config;
}

routing::HealthMonitorConfig storm_monitor_config() {
  // Microsecond storm timescales: tighten the hold-downs so damped
  // recoveries resolve inside the run.
  routing::HealthMonitorConfig config;
  config.hold_down = microseconds(20);
  config.hold_down_cap = microseconds(200);
  config.flap_memory = microseconds(500);
  return config;
}

sim::ProbePlane::Options storm_probe_options(const ShardedStormParams& params) {
  sim::ProbePlane::Options options;
  options.interval = params.probe_interval;
  options.seed = params.seed ^ 0x50524FBEull;
  return options;
}

void mix_digest(std::uint64_t& digest, std::uint64_t value) {
  for (int byte = 0; byte < 8; ++byte) {
    digest ^= (value >> (8 * byte)) & 0xFF;
    digest *= 1099511628211ull;
  }
}

TimePs uniform_time(Rng& rng, TimePs lo, TimePs hi) {
  return lo + static_cast<TimePs>(rng.next_below(static_cast<std::uint64_t>(hi - lo)));
}

}  // namespace

/// One shard of the storm: full control plane (oracle, monitor,
/// probes, fault scheduler) over the whole graph, workload chains for
/// the hosts it owns, and a record stream feeding the merged digest.
class ShardedStormRun::StormShard final : public sim::Shard, public sim::TimerHandler {
 public:
  struct Rec {
    TimePs when = 0;
    std::uint64_t id = 0;
    std::uint64_t aux = 0;   ///< latency (delivery) or DropReason (drop)
    std::uint8_t kind = 0;   ///< 0 = delivery, 1 = drop
  };

  StormShard(const ShardedStormParams& params, const topo::BuiltTopology& topo,
             const std::vector<topo::LinkId>& mesh, const routing::EcmpRouting& routing,
             const sim::ShardContext& ctx)
      : params_(params),
        topo_(topo),
        mesh_(mesh),
        oracle_(routing),
        monitor_(topo.graph.link_count(), storm_monitor_config()),
        net_(topo, oracle_, storm_sim_config(params)),
        probes_(net_, monitor_, storm_probe_options(params)),
        faults_(net_) {
    net_.bind_shard(ctx.binding);
    oracle_.attach_failure_view(&monitor_.view());
    oracle_.attach_loss_view(&monitor_);
    task_ = net_.new_task([this](const sim::Packet& p, TimePs latency) {
      records_.push_back({net_.now(), p.id, static_cast<std::uint64_t>(latency), 0});
    });
    net_.add_drop_hook([this](const sim::Packet& p, sim::DropReason reason) {
      records_.push_back({net_.now(), p.id, static_cast<std::uint64_t>(reason), 1});
    });
  }

  sim::Network& network() override { return net_; }
  const std::vector<Rec>& records() const { return records_; }

  void arm() {
    probes_.start(mesh_);

    // Workload: one self-chained timer per OWNED host; schedule and
    // destinations are PRF-derived, so every shard count sees the
    // identical global traffic script.
    const auto& hosts = topo_.hosts;
    for (std::size_t i = 0; i < hosts.size(); ++i) {
      if (!net_.owns_node(hosts[i])) continue;
      net_.schedule_timer(chain_start(i), {this, kTrafficTag, i, 0});
    }

    // Storm script, replicated: the same seeded RNG consumed in the
    // same order on every shard yields identical fault timelines with
    // zero cross-shard coordination.
    Rng storm_rng(params_.seed ^ 0x53544F52ull);  // "STOR"
    const TimePs quiesce = params_.storm_end + (params_.run_until - params_.storm_end) / 2;
    auto window = [&](TimePs& fail_at, TimePs& repair_at) {
      fail_at = uniform_time(storm_rng, params_.storm_start, params_.storm_end);
      repair_at = uniform_time(storm_rng, fail_at + 1, quiesce);
    };
    for (int c = 0; c < params_.cuts; ++c) {
      const topo::LinkId victim = mesh_[storm_rng.next_below(mesh_.size())];
      TimePs fail_at = 0, repair_at = 0;
      window(fail_at, repair_at);
      faults_.schedule_cut(fail_at, {victim}, repair_at);
    }
    for (int g = 0; g < params_.gray_links; ++g) {
      const topo::LinkId victim = mesh_[storm_rng.next_below(mesh_.size())];
      TimePs fail_at = 0, repair_at = 0;
      window(fail_at, repair_at);
      faults_.schedule_transceiver_aging(fail_at, victim, params_.gray_loss, repair_at);
    }
    for (int f = 0; f < params_.flapping_links; ++f) {
      const topo::LinkId victim = mesh_[storm_rng.next_below(mesh_.size())];
      const TimePs down = params_.probe_interval * 3;
      const TimePs up = params_.probe_interval * 3;
      const int cycles = static_cast<int>(
          std::min<TimePs>(6, (params_.storm_end - params_.storm_start) / (down + up)));
      if (cycles > 0) faults_.schedule_flapping(params_.storm_start, victim, down, up, cycles);
    }
  }

  void save(snapshot::Writer& w) const {
    const sim::HandlerMap handlers = handler_map();
    w.begin_chunk(snapshot::chunk_id("SREC"));
    w.put_u64(records_.size());
    for (const Rec& rec : records_) {
      w.put_i64(rec.when);
      w.put_u64(rec.id);
      w.put_u64(rec.aux);
      w.put_u8(rec.kind);
    }
    w.end_chunk();
    w.begin_chunk(snapshot::chunk_id("FLTS"));
    faults_.save(w);
    w.end_chunk();
    w.begin_chunk(snapshot::chunk_id("MONI"));
    monitor_.save(w);
    w.end_chunk();
    w.begin_chunk(snapshot::chunk_id("PRBS"));
    probes_.save(w);
    w.end_chunk();
    w.begin_chunk(snapshot::chunk_id("NETW"));
    net_.save(w, handlers);
    w.end_chunk();
  }

  void restore(snapshot::Reader& r) {
    const sim::HandlerMap handlers = handler_map();
    r.open_chunk(snapshot::chunk_id("SREC"));
    const std::uint64_t count = r.get_u64();
    records_.clear();
    records_.reserve(count);
    for (std::uint64_t i = 0; i < count; ++i) {
      Rec rec;
      rec.when = r.get_i64();
      rec.id = r.get_u64();
      rec.aux = r.get_u64();
      rec.kind = r.get_u8();
      records_.push_back(rec);
    }
    r.close_chunk();
    r.open_chunk(snapshot::chunk_id("FLTS"));
    faults_.restore(r);
    r.close_chunk();
    r.open_chunk(snapshot::chunk_id("MONI"));
    monitor_.restore(r);
    r.close_chunk();
    r.open_chunk(snapshot::chunk_id("PRBS"));
    probes_.restore(r);
    r.close_chunk();
    r.open_chunk(snapshot::chunk_id("NETW"));
    net_.restore(r, handlers);
    r.close_chunk();
  }

 private:
  TimePs chain_start(std::size_t host_index) const {
    return static_cast<TimePs>(prf(params_.seed, 0x574B4C44ull, host_index, 0) %
                               static_cast<std::uint64_t>(params_.packet_gap));
  }

  void on_timer(const sim::TimerEvent& event) override {
    QUARTZ_CHECK(event.tag == kTrafficTag, "storm shard owns only the traffic timer");
    const std::uint64_t i = event.a;  // host index in topo_.hosts
    const std::uint64_t k = event.b;  // packet number on this host's chain
    const auto& hosts = topo_.hosts;
    const topo::NodeId src = hosts[static_cast<std::size_t>(i)];
    std::uint64_t pick = prf(params_.seed, 0x44535421ull, i, k) % (hosts.size() - 1);
    if (pick >= i) ++pick;  // skip self
    const topo::NodeId dst = hosts[static_cast<std::size_t>(pick)];
    net_.send(src, dst, params_.packet_size, task_, prf(params_.seed, 0x464C4F57ull, i, k));
    if (k + 1 < static_cast<std::uint64_t>(params_.packets_per_host)) {
      net_.schedule_timer(
          chain_start(static_cast<std::size_t>(i)) +
              params_.packet_gap * static_cast<TimePs>(k + 1),
          {this, kTrafficTag, i, k + 1});
    }
  }

  /// Registration order is part of the snapshot contract (mirrors
  /// StormRun::handler_map).
  sim::HandlerMap handler_map() const {
    sim::HandlerMap handlers;
    handlers.probes.push_back(const_cast<sim::ProbePlane*>(&probes_));
    handlers.timers.push_back(const_cast<sim::FaultScheduler*>(&faults_));
    handlers.timers.push_back(const_cast<StormShard*>(this));
    return handlers;
  }

  const ShardedStormParams& params_;
  const topo::BuiltTopology& topo_;
  const std::vector<topo::LinkId>& mesh_;
  routing::EcmpOracle oracle_;
  routing::HealthMonitor monitor_;
  sim::Network net_;
  sim::ProbePlane probes_;
  sim::FaultScheduler faults_;
  int task_ = -1;
  std::vector<Rec> records_;
};

ShardedStormRun::ShardedStormRun(const ShardedStormParams& params)
    : params_(params), topo_(build_storm_topo(params)), mesh_(fault_mesh(topo_)),
      routing_(topo_.graph) {
  QUARTZ_REQUIRE(params_.packets_per_host > 0 && params_.packet_gap > 0, "storm needs traffic");
  // A degenerate storm window (start == end) is a fault-free run — the
  // CLIs use it for pure-workload sharded execution.
  const bool has_faults =
      params_.cuts > 0 || params_.gray_links > 0 || params_.flapping_links > 0;
  QUARTZ_REQUIRE(0 <= params_.storm_start && params_.storm_start <= params_.storm_end &&
                     params_.storm_end < params_.run_until &&
                     (!has_faults || params_.storm_start < params_.storm_end),
                 "storm phases must be ordered: start < end < run_until");
  QUARTZ_CHECK(!mesh_.empty(), "storm fabric has no fault targets");
  sim_ = std::make_unique<sim::ShardedSim>(
      sim::plan_partition(topo_, params_.shards),
      [this](const sim::ShardContext& ctx) -> std::unique_ptr<sim::Shard> {
        return std::make_unique<StormShard>(params_, topo_, mesh_, routing_, ctx);
      });
}

ShardedStormRun::~ShardedStormRun() = default;

void ShardedStormRun::arm() {
  QUARTZ_REQUIRE(!armed_, "a sharded storm arms exactly once (restore replaces arm)");
  armed_ = true;
  sim_->visit([](int, sim::Shard& shard) { static_cast<StormShard&>(shard).arm(); });
}

void ShardedStormRun::run_to(TimePs end) {
  QUARTZ_REQUIRE(armed_, "arm (or restore) the sharded storm before driving it");
  sim_->run_until(end);
}

void ShardedStormRun::save(snapshot::Writer& w) {
  QUARTZ_REQUIRE(armed_, "save requires an armed sharded storm");
  w.begin_chunk(snapshot::chunk_id("SSPR"));
  w.put_u64(params_.seed);
  w.put_string(params_.composite);
  w.put_i32(params_.shards);
  w.put_i32(params_.packets_per_host);
  w.put_i64(params_.packet_gap);
  w.put_i64(params_.run_until);
  w.end_chunk();
  sim_->save_layout(w);
  sim_->visit([&w](int, sim::Shard& shard) { static_cast<StormShard&>(shard).save(w); });
}

void ShardedStormRun::restore(snapshot::Reader& r) {
  QUARTZ_REQUIRE(!armed_, "restore requires a freshly constructed (never armed) sharded storm");
  armed_ = true;
  r.open_chunk(snapshot::chunk_id("SSPR"));
  QUARTZ_REQUIRE(r.get_u64() == params_.seed && r.get_string() == params_.composite,
                 "snapshot was taken from a different sharded storm");
  const int shards = r.get_i32();
  QUARTZ_REQUIRE(shards == params_.shards,
                 "snapshot shard count mismatch: saved at shards=" + std::to_string(shards) +
                     ", restoring at shards=" + std::to_string(params_.shards));
  QUARTZ_REQUIRE(r.get_i32() == params_.packets_per_host && r.get_i64() == params_.packet_gap &&
                     r.get_i64() == params_.run_until,
                 "snapshot was taken from a different sharded storm");
  r.close_chunk();
  sim_->restore_layout(r);
  sim_->visit([&r](int, sim::Shard& shard) { static_cast<StormShard&>(shard).restore(r); });
}

ShardedStormResult ShardedStormRun::finish() {
  run_to(params_.run_until);

  ShardedStormResult result;
  result.shards = params_.shards;
  result.lookahead = sim_->plan().lookahead;
  result.strategy = sim_->plan().strategy;
  result.window_stats = sim_->window_stats();

  std::vector<std::vector<StormShard::Rec>> streams(
      static_cast<std::size_t>(params_.shards));
  sim_->visit([&](int shard, sim::Shard& s) {
    StormShard& storm = static_cast<StormShard&>(s);
    streams[static_cast<std::size_t>(shard)] = storm.records();
    result.events += storm.network().events_processed();
    result.mail_posted += storm.network().mail_posted();
  });

  // K-way merge by the engine's own total order, (time, stamp, kind):
  // each per-shard stream is already sorted under it (records are
  // appended in execution order), so the merged sequence — and the
  // digests below — is identical at every shard count.
  auto key_less = [](const StormShard::Rec& a, const StormShard::Rec& b) {
    if (a.when != b.when) return a.when < b.when;
    const std::uint64_t sa = sim::shard_stamp(a.id);
    const std::uint64_t sb = sim::shard_stamp(b.id);
    if (sa != sb) return sa < sb;
    return a.kind < b.kind;
  };
  std::vector<std::size_t> cursor(streams.size(), 0);
  std::vector<double> latencies;
  result.delivery_digest = 14695981039346656037ull;  // FNV-1a offset
  result.drop_digest = 14695981039346656037ull;
  for (;;) {
    int best = -1;
    for (std::size_t s = 0; s < streams.size(); ++s) {
      if (cursor[s] >= streams[s].size()) continue;
      if (best < 0 ||
          key_less(streams[s][cursor[s]], streams[static_cast<std::size_t>(best)]
                                              [cursor[static_cast<std::size_t>(best)]])) {
        best = static_cast<int>(s);
      }
    }
    if (best < 0) break;
    const StormShard::Rec& rec =
        streams[static_cast<std::size_t>(best)][cursor[static_cast<std::size_t>(best)]++];
    std::uint64_t& digest = rec.kind == 0 ? result.delivery_digest : result.drop_digest;
    mix_digest(digest, rec.id);
    mix_digest(digest, static_cast<std::uint64_t>(rec.when));
    mix_digest(digest, rec.aux);
    if (rec.kind == 0) {
      ++result.deliveries;
      latencies.push_back(static_cast<double>(rec.aux));
    } else {
      ++result.drops;
    }
  }
  if (!latencies.empty()) {
    double sum = 0.0;
    for (const double v : latencies) sum += v;
    result.mean_latency_us = sum / static_cast<double>(latencies.size()) * 1e-6;
    std::sort(latencies.begin(), latencies.end());
    const auto p99 =
        static_cast<std::size_t>(0.99 * static_cast<double>(latencies.size() - 1));
    result.p99_latency_us = latencies[p99] * 1e-6;
  }
  return result;
}

ShardedStormResult run_sharded_storm(const ShardedStormParams& params) {
  ShardedStormRun run(params);
  run.arm();
  return run.finish();
}

}  // namespace quartz::chaos
