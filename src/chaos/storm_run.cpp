#include "chaos/storm_run.hpp"

#include <algorithm>
#include <sstream>

#include "common/check.hpp"
#include "common/stats.hpp"
#include "optical/budget.hpp"
#include "snapshot/io.hpp"
#include "topo/failures.hpp"

namespace quartz::chaos {
namespace {

/// Mesh lightpaths of the fabric (the links faults target).
std::vector<topo::LinkId> wdm_links(const topo::BuiltTopology& topo) {
  std::vector<topo::LinkId> out;
  for (const auto& link : topo.graph.links()) {
    if (link.wdm_channel >= 0) out.push_back(link.id);
  }
  return out;
}

/// A time uniform in [lo, hi) on the storm clock.
TimePs uniform_time(Rng& rng, TimePs lo, TimePs hi) {
  return lo + static_cast<TimePs>(rng.next_below(static_cast<std::uint64_t>(hi - lo)));
}

/// Gray-failure drop probability from the optical plant: erode the
/// ring's worst-case margin down to `residual_db` (negative = below
/// sensitivity) and convert margin → Q → BER → per-packet loss.
double gray_drop_probability(std::size_t ring_size, double residual_db, Bits packet_bits) {
  optical::RingBudgetParams budget;
  budget.ring_size = ring_size;
  const optical::AmplifierPlan plan = optical::plan_ring_amplifiers(budget);
  QUARTZ_CHECK(plan.feasible, "storm fabric has no feasible amplifier plan");
  const double margin = optical::worst_case_margin_db(budget, plan);
  const double extra = std::max(0.0, margin - residual_db);
  return optical::degraded_drop_probability(budget, plan, extra,
                                            static_cast<std::uint64_t>(packet_bits));
}

sim::SimConfig storm_sim_config(const StormParams& params) {
  sim::SimConfig config;
  config.corruption_seed = params.seed ^ 0x434F5252ull;  // "CORR"
  if (params.mode == DetectionMode::kFixedDelay) {
    config.failure_detection_delay = params.fixed_detection_delay;
  }
  return config;
}

routing::HealthMonitorConfig storm_monitor_config() {
  // Storm timescales are milliseconds, so the monitor's default
  // BGP-scale hold-downs are tightened to keep recovery inside the run.
  routing::HealthMonitorConfig config;
  config.hold_down = microseconds(200);
  config.hold_down_cap = milliseconds(20);
  config.flap_memory = milliseconds(10);
  return config;
}

void mix_digest(std::uint64_t& digest, std::uint64_t value) {
  for (int byte = 0; byte < 8; ++byte) {
    digest ^= (value >> (8 * byte)) & 0xFF;
    digest *= 1099511628211ull;
  }
}

}  // namespace

StormRun::StormRun(const StormParams& params)
    : params_(params),
      topo_([&params] {
        QUARTZ_REQUIRE(params.switches >= 4, "storm fabric needs at least four switches");
        QUARTZ_REQUIRE(params.packets > 0 && params.packet_gap > 0, "storm needs traffic");
        QUARTZ_REQUIRE(
            0 <= params.storm_start && params.storm_start < params.storm_end &&
                params.storm_end < params.quiesce_at && params.quiesce_at < params.run_until,
            "storm phases must be ordered: start < end < quiesce < run_until");
        const TimePs traffic_end = params.packet_gap * params.packets;
        QUARTZ_REQUIRE(params.quiesce_at < traffic_end && traffic_end <= params.run_until,
                       "traffic must outlast the quiescence point and fit the run");
        topo::QuartzRingParams ring;
        ring.switches = static_cast<int>(params.switches);
        ring.hosts_per_switch = params.hosts_per_switch;
        return topo::quartz_ring(ring);
      }()),
      mesh_(wdm_links(topo_)),
      routing_(topo_.graph),
      oracle_(routing_),
      monitor_(topo_.graph.link_count(), storm_monitor_config()),
      net_(topo_, oracle_, storm_sim_config(params)),
      faults_(net_) {
  QUARTZ_CHECK(!mesh_.empty(), "storm fabric has no mesh lightpaths");

  // Detection plane: probe-based monitor or the omniscient fixed-delay
  // view.
  if (params_.mode == DetectionMode::kHealthMonitor) {
    sim::ProbePlane::Options probe_options;
    probe_options.interval = params_.probe_interval;
    probe_options.seed = params_.seed ^ 0x50524FBEull;
    probes_ = std::make_unique<sim::ProbePlane>(net_, monitor_, probe_options);
    oracle_.attach_failure_view(&monitor_.view());
    oracle_.attach_loss_view(&monitor_);
  } else {
    oracle_.attach_failure_view(&net_.failure_view());
  }

  // Workload sink: record each delivery for the invariant judges.
  task_ = net_.new_task([this](const sim::Packet& p, TimePs latency) {
    deliveries_.push_back({net_.now(), latency, p.hops});
  });
  traffic_ = std::make_unique<sim::RandomPairSource>(
      net_, task_, params_.packet_size, params_.packet_gap,
      static_cast<std::uint64_t>(params_.packets), Rng(params_.seed ^ 0x545241FFull));
  // Digest sink: this object mixes the delivery and drop streams.
  net_.add_sink(this);

  // Hybrid slice: a fluid background over deterministic host pairs
  // (host i paired with its mirror) whose queueing bias shifts every
  // storm packet.  Demands are a pure function of the fabric, so a
  // restored run reconstructs the identical set.
  if (params_.hybrid_background) {
    const auto& hosts = topo_.hosts;
    std::vector<sim::FluidDemand> demands;
    for (std::size_t i = 0; i + 1 < hosts.size(); i += 2) {
      demands.push_back({hosts[i], hosts[hosts.size() - 1 - i], 2e9});
    }
    sim::FluidParams fluid_params;
    fluid_params.mean_packet = params_.packet_size;
    fluid_ = std::make_unique<sim::FluidBackground>(net_, oracle_, std::move(demands),
                                                    fluid_params);
  }
}

sim::HandlerMap StormRun::handler_map() const {
  sim::HandlerMap handlers;
  if (probes_ != nullptr) handlers.probes.push_back(probes_.get());
  handlers.timers.push_back(const_cast<sim::FaultScheduler*>(&faults_));
  handlers.timers.push_back(traffic_.get());
  if (fluid_ != nullptr) handlers.timers.push_back(fluid_.get());
  return handlers;
}

void StormRun::arm() {
  QUARTZ_REQUIRE(!armed_, "a storm run arms exactly once (restore replaces arm)");
  armed_ = true;

  if (probes_ != nullptr) probes_->start(mesh_);
  if (fluid_ != nullptr) fluid_->arm();

  traffic_->arm();

  // Storm script.  The script RNG is fully consumed here at arm time,
  // so it never needs serializing.
  Rng storm_rng(params_.seed ^ 0x53544F52ull);  // "STOR"
  const TimePs window = params_.storm_end - params_.storm_start;
  auto cut_window = [&](TimePs& fail_at, TimePs& repair_at) {
    fail_at = uniform_time(storm_rng, params_.storm_start, params_.storm_end);
    repair_at = uniform_time(storm_rng, fail_at + 1, params_.quiesce_at);
  };
  for (int c = 0; c < params_.cuts; ++c) {
    const topo::LinkId victim = mesh_[storm_rng.next_below(mesh_.size())];
    TimePs fail_at = 0, repair_at = 0;
    cut_window(fail_at, repair_at);
    faults_.schedule_cut(fail_at, {victim}, repair_at);
    if (c == 0 && params_.cuts >= 2) {
      // Deliberately overlap a second window on the same link: the
      // first repair must not resurrect it while the second holds.
      const TimePs fail2 = uniform_time(storm_rng, fail_at, repair_at);
      const TimePs repair2 = uniform_time(storm_rng, repair_at + 1, params_.quiesce_at);
      faults_.schedule_cut(fail2, {victim}, repair2);
      ++c;
    }
  }
  for (int a = 0; a < params_.amplifier_failures; ++a) {
    const topo::FiberCut span{0, static_cast<int>(storm_rng.next_below(params_.switches))};
    const double residual = -2.2 - storm_rng.next_double();  // margin in [-3.2, -2.2] dB
    const double p = gray_drop_probability(params_.switches, residual, params_.packet_size);
    TimePs fail_at = 0, repair_at = 0;
    cut_window(fail_at, repair_at);
    faults_.schedule_amplifier_failure(fail_at, span, p, repair_at);
  }
  for (int x = 0; x < params_.transceiver_agings; ++x) {
    const topo::LinkId victim = mesh_[storm_rng.next_below(mesh_.size())];
    const double residual = -2.2 - storm_rng.next_double();
    const double p = gray_drop_probability(params_.switches, residual, params_.packet_size);
    TimePs fail_at = 0, repair_at = 0;
    cut_window(fail_at, repair_at);
    faults_.schedule_transceiver_aging(fail_at, victim, p, repair_at);
  }
  for (int f = 0; f < params_.flapping_links; ++f) {
    const topo::LinkId victim = mesh_[storm_rng.next_below(mesh_.size())];
    const TimePs down = microseconds(300);
    const TimePs up = microseconds(300);
    const int cycles = static_cast<int>(std::min<TimePs>(20, window / (down + up)));
    if (cycles > 0) {
      faults_.schedule_flapping(params_.storm_start, victim, down, up, cycles);
    }
  }
  if (params_.poisson_churn) {
    sim::PoissonFaultParams churn;
    churn.failures_per_link_per_hour = 7.2e4;  // mean TTF 50 ms per lightpath
    churn.mean_repair_hours = 1e-7;            // mean TTR 0.36 ms
    churn.start = params_.storm_start;
    churn.stop = params_.storm_end;
    faults_.run_poisson(churn, mesh_, Rng(params_.seed ^ 0x504F4953ull));  // "POIS"
  }
}

void StormRun::on_delivery(const sim::Packet& packet, TimePs delivered, TimePs latency) {
  mix_digest(delivery_digest_, packet.id);
  mix_digest(delivery_digest_, static_cast<std::uint64_t>(delivered));
  mix_digest(delivery_digest_, static_cast<std::uint64_t>(latency));
  ++digest_deliveries_;
}

void StormRun::on_drop(const sim::Packet& packet, telemetry::DropReason reason, TimePs when) {
  mix_digest(drop_digest_, packet.id);
  mix_digest(drop_digest_, static_cast<std::uint64_t>(reason));
  mix_digest(drop_digest_, static_cast<std::uint64_t>(when));
  ++digest_drops_;
}

void StormRun::run_to(TimePs end) {
  QUARTZ_REQUIRE(armed_, "arm (or restore) the storm run before driving it");
  net_.run_until(end);
}

void StormRun::save(snapshot::Writer& w) const {
  QUARTZ_REQUIRE(armed_, "save requires an armed storm run");
  const sim::HandlerMap handlers = handler_map();

  w.begin_chunk(snapshot::chunk_id("STRM"));
  // Params echo: restore refuses a snapshot from a different storm.
  w.put_u64(params_.seed);
  w.put_u8(static_cast<std::uint8_t>(params_.mode));
  w.put_u64(params_.switches);
  w.put_i32(params_.hosts_per_switch);
  w.put_i32(params_.packets);
  w.put_u8(params_.hybrid_background ? 1 : 0);
  // Digest state and the deliveries harvested so far.
  w.put_u64(delivery_digest_);
  w.put_u64(drop_digest_);
  w.put_u64(digest_deliveries_);
  w.put_u64(digest_drops_);
  w.put_u64(deliveries_.size());
  for (const Delivery& d : deliveries_) {
    w.put_i64(d.when);
    w.put_i64(d.latency);
    w.put_i32(d.hops);
  }
  traffic_->save(w);
  w.end_chunk();

  w.begin_chunk(snapshot::chunk_id("FLTS"));
  faults_.save(w);
  w.end_chunk();

  w.begin_chunk(snapshot::chunk_id("MONI"));
  monitor_.save(w);
  w.end_chunk();

  if (probes_ != nullptr) {
    w.begin_chunk(snapshot::chunk_id("PRBS"));
    probes_->save(w);
    w.end_chunk();
  }

  if (fluid_ != nullptr) {
    w.begin_chunk(snapshot::chunk_id("FLUI"));
    fluid_->save(w);
    w.end_chunk();
  }

  // The network chunk (which embeds the engine with every pending
  // event) goes last, mirroring the restore order: components first,
  // then the event queue that points back into them.
  w.begin_chunk(snapshot::chunk_id("NETW"));
  net_.save(w, handlers);
  w.end_chunk();
}

void StormRun::restore(snapshot::Reader& r) {
  QUARTZ_REQUIRE(!armed_, "restore requires a freshly constructed (never armed) storm run");
  armed_ = true;
  const sim::HandlerMap handlers = handler_map();

  r.open_chunk(snapshot::chunk_id("STRM"));
  QUARTZ_REQUIRE(r.get_u64() == params_.seed &&
                     r.get_u8() == static_cast<std::uint8_t>(params_.mode) &&
                     r.get_u64() == params_.switches && r.get_i32() == params_.hosts_per_switch &&
                     r.get_i32() == params_.packets &&
                     r.get_u8() == (params_.hybrid_background ? 1 : 0),
                 "snapshot was taken from a storm with different params");
  delivery_digest_ = r.get_u64();
  drop_digest_ = r.get_u64();
  digest_deliveries_ = r.get_u64();
  digest_drops_ = r.get_u64();
  const std::uint64_t count = r.get_u64();
  deliveries_.clear();
  deliveries_.reserve(count);
  for (std::uint64_t i = 0; i < count; ++i) {
    Delivery d;
    d.when = r.get_i64();
    d.latency = r.get_i64();
    d.hops = r.get_i32();
    deliveries_.push_back(d);
  }
  traffic_->restore(r);
  r.close_chunk();

  r.open_chunk(snapshot::chunk_id("FLTS"));
  faults_.restore(r);
  r.close_chunk();

  r.open_chunk(snapshot::chunk_id("MONI"));
  monitor_.restore(r);
  r.close_chunk();

  if (probes_ != nullptr) {
    r.open_chunk(snapshot::chunk_id("PRBS"));
    probes_->restore(r);
    r.close_chunk();
  }

  if (fluid_ != nullptr) {
    r.open_chunk(snapshot::chunk_id("FLUI"));
    fluid_->restore(r);
    r.close_chunk();
  }

  r.open_chunk(snapshot::chunk_id("NETW"));
  net_.restore(r, handlers);
  r.close_chunk();
}

StormReport StormRun::finish() {
  run_to(params_.run_until);
  const TimePs traffic_end = params_.packet_gap * params_.packets;

  StormReport report;
  report.seed = params_.seed;
  report.mode = params_.mode;
  report.sent = net_.packets_sent();
  report.delivered = net_.packets_delivered();
  report.queue_drops = net_.packets_dropped(telemetry::DropReason::kQueueOverflow);
  report.link_down_drops = net_.packets_dropped(telemetry::DropReason::kLinkDown);
  report.corrupted_drops = net_.packets_dropped(telemetry::DropReason::kCorrupted);
  report.cuts = faults_.cuts();
  report.repairs = faults_.repairs();
  report.degradations = faults_.degradations();
  report.restorations = faults_.restorations();
  report.probes = monitor_.probes();
  report.missed_probes = monitor_.missed_probes();
  report.deaths = monitor_.deaths();
  report.revivals = monitor_.revivals();
  report.damped_recoveries = monitor_.damped_recoveries();
  report.hop_bound = static_cast<int>(params_.switches);
  report.delivery_digest = delivery_digest_;
  report.drop_digest = drop_digest_;
  report.events_dispatched = net_.events_processed();
  if (fluid_ != nullptr) {
    report.fluid_epochs = fluid_->epochs();
    report.fluid_digest = fluid_->digest();
  }

  QUARTZ_CHECK(digest_deliveries_ == report.delivered && digest_drops_ == net_.packets_dropped(),
               "digest sink disagrees with the network's packet counters");

  // Invariant 1: exact per-reason packet conservation.
  const std::uint64_t drops =
      report.queue_drops + report.link_down_drops + report.corrupted_drops;
  report.invariants.conservation =
      report.sent == static_cast<std::uint64_t>(params_.packets) &&
      report.delivered + drops == report.sent && drops == net_.packets_dropped() &&
      net_.task_drops(task_) == net_.packets_dropped();
  if (!report.invariants.conservation) {
    std::ostringstream os;
    os << "conservation: sent=" << report.sent << " delivered=" << report.delivered
       << " drops=" << drops << " (dropped=" << net_.packets_dropped() << ")";
    report.violations.push_back(os.str());
  }

  // Invariant 2: hop bound on every delivered packet.
  for (const Delivery& d : deliveries_) report.max_hops = std::max(report.max_hops, d.hops);
  report.invariants.hop_bound = report.max_hops <= report.hop_bound;
  if (!report.invariants.hop_bound) {
    report.violations.push_back("hop bound: a packet crossed " + std::to_string(report.max_hops) +
                                " switches (bound " + std::to_string(report.hop_bound) + ")");
  }

  // Invariant 3: the detector's view matches the physical truth on
  // every link once everything is repaired.
  bool converged = true;
  for (const auto& link : topo_.graph.links()) {
    const routing::LinkHealth physical = net_.link_health(link.id);
    if (physical != routing::LinkHealth::kHealthy) {
      converged = false;
      report.violations.push_back("convergence: link " + std::to_string(link.id) +
                                  " still physically " + routing::link_health_name(physical) +
                                  " after quiescence");
      continue;
    }
    if (params_.mode == DetectionMode::kHealthMonitor) {
      const routing::LinkHealth seen = monitor_.health(link.id);
      if (seen != physical) {
        converged = false;
        report.violations.push_back("convergence: monitor sees link " + std::to_string(link.id) +
                                    " as " + routing::link_health_name(seen) +
                                    ", physically healthy");
      }
    } else if (net_.failure_view().is_dead(link.id)) {
      converged = false;
      report.violations.push_back("convergence: fixed-delay view still holds link " +
                                  std::to_string(link.id) + " dead");
    }
  }
  report.invariants.converged = converged;

  // Invariant 4: post-storm latency back to the pre-storm baseline.
  RunningStats baseline_us;
  RunningStats tail_us;
  const TimePs tail_start = (params_.quiesce_at + traffic_end) / 2;
  for (const Delivery& d : deliveries_) {
    if (d.when < params_.storm_start) baseline_us.add(to_microseconds(d.latency));
    if (d.when >= tail_start) tail_us.add(to_microseconds(d.latency));
  }
  report.baseline_mean_us = baseline_us.count() > 0 ? baseline_us.mean() : 0.0;
  report.tail_mean_us = tail_us.count() > 0 ? tail_us.mean() : 0.0;
  report.invariants.latency_recovered =
      baseline_us.count() > 0 && tail_us.count() > 0 &&
      report.tail_mean_us <= report.baseline_mean_us * (1.0 + params_.latency_tolerance);
  if (!report.invariants.latency_recovered) {
    std::ostringstream os;
    os << "latency recovery: baseline " << report.baseline_mean_us << " us (n="
       << baseline_us.count() << "), tail " << report.tail_mean_us << " us (n=" << tail_us.count()
       << ")";
    report.violations.push_back(os.str());
  }

  return report;
}

}  // namespace quartz::chaos
