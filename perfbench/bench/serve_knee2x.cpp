// serve_knee2x: the SLO-defended serve loop of bench_serve (4-switch
// 1 Gb/s ring, three classes, 95% of arrivals shifted onto one switch
// pair) driven open loop at twice its analytic goodput knee, with
// admission, the retry budget and regroom-on-shift all on.  The run
// checkpoints the loop to memory at a fixed simulated cadence; the
// output check restores the mid-run checkpoint into a fresh loop, runs
// it to the end and requires the identical report.
#include <optional>
#include <string>
#include <vector>

#include "probe_sink.hpp"
#include "serve/serve_loop.hpp"
#include "snapshot/io.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace quartz;

constexpr double kHotFraction = 0.95;
/// 1 Gb/s of 400-byte requests is 312.5k req/s; with 95% of arrivals on
/// one switch pair the service knees near 329k req/s.
constexpr double kKneeArrivals = 312'500.0 / kHotFraction;

serve::ServeConfig knee2x_config(const RepOptions& options) {
  serve::ServeConfig config;
  config.ring.switches = 4;
  config.ring.hosts_per_switch = 2;
  config.ring.mesh_rate = gigabits_per_second(1);
  config.ring.links.host_rate = gigabits_per_second(1);
  config.duration = options.small ? milliseconds(3) : milliseconds(80);
  config.drain = milliseconds(8);
  config.arrivals_per_sec = 2.0 * kKneeArrivals;
  config.reply_size = bytes(100);  // keep the request direction the bottleneck
  config.timeout = microseconds(1500);
  config.max_retries = 2;
  config.classes = {{"gold", 0.2, milliseconds(2)},
                    {"silver", 0.3, milliseconds(2)},
                    {"bronze", 0.5, milliseconds(2)}};
  config.slo.window = microseconds(500);
  config.slo.budget_p99_us = 1200.0;
  config.slo.budget_p999_us = 1800.0;
  config.shifts = {{0, 0, 1, kHotFraction}};
  config.reconfigure_on_shift = true;
  config.seed = options.seed;
  return config;
}

std::vector<double> report_fields(const serve::ServeReport& r) {
  return {static_cast<double>(r.arrivals),       static_cast<double>(r.admitted),
          static_cast<double>(r.shed_class),     static_cast<double>(r.shed_limit),
          static_cast<double>(r.completed),      static_cast<double>(r.in_deadline),
          static_cast<double>(r.late),           static_cast<double>(r.failed),
          static_cast<double>(r.retries),        static_cast<double>(r.budget_denied),
          static_cast<double>(r.hopeless_dropped),
          static_cast<double>(r.outstanding_at_end),
          r.goodput_per_sec,                     r.p50_us,
          r.p99_us,                              r.p999_us,
          static_cast<double>(r.windows_closed), static_cast<double>(r.windows_breached),
          static_cast<double>(r.final_limit),    static_cast<double>(r.knee_limit),
          r.knee_goodput,                        static_cast<double>(r.reconfigurations),
          static_cast<double>(r.pins_applied),   static_cast<double>(r.pins_rejected),
          r.retry_amplification,                 r.conservation_ok ? 1.0 : 0.0};
}

}  // namespace

RepResult run_serve_knee2x(const RepOptions& options) {
  Ledger* ledger = options.ledger;
  const serve::ServeConfig config = knee2x_config(options);
  const TimePs every = milliseconds(8);  // checkpoint cadence (simulated)
  const TimePs end = config.duration + config.drain;

  RepResult result;
  Stopwatch rep;
  std::optional<serve::ServeLoop> loop;
  {
    Ledger::Scope scope(ledger, "serve_loop.construct");
    loop.emplace(config);
  }
  CountingSink probe;
  if (ledger != nullptr) loop->network().add_sink(&probe);
  {
    Ledger::Scope scope(ledger, "serve_loop.start");
    loop->start();
  }
  result.setup_s = rep.elapsed_s();

  // Run phase: advance to each checkpoint boundary and save to memory.
  // The save nearest the middle of the run is kept for the output check.
  Stopwatch run;
  std::vector<std::byte> mid_snapshot;
  TimePs mid_time = 0;
  std::uint64_t saves = 0;
  double save_bytes = 0.0;
  std::uint64_t pending_peak = 0;
  for (TimePs next = every; next < end; next += every) {
    {
      Ledger::Scope scope(ledger, "serve_loop.run_to");
      loop->run_to(next);
    }
    pending_peak = std::max<std::uint64_t>(pending_peak, loop->network().engine().size());
    snapshot::Writer writer;
    {
      Ledger::Scope scope(ledger, "serve_loop.save_snapshot");
      loop->save_snapshot(writer);
    }
    ++saves;
    save_bytes += static_cast<double>(writer.buffer().size());
    if (mid_snapshot.empty() && next >= end / 2) {
      mid_snapshot = snapshot::file_bytes(writer, saves);
      mid_time = next;
    }
  }
  serve::ServeReport report;
  {
    Ledger::Scope scope(ledger, "serve_loop.finish");
    report = loop->finish();
  }
  result.run_s = run.elapsed_s();

  const sim::Network& net = loop->network();
  result.delivered = net.packets_delivered();
  result.events = net.events_processed();
  result.attempted = report.arrivals;
  result.failed = report.arrivals - report.in_deadline;  // shed, failed, late or stuck
  result.p99_us = report.p99_us;
  const std::vector<double> fields = report_fields(report);
  Digest digest;
  for (const double f : fields) digest.add_double(f);
  digest.add(net.packets_delivered());
  digest.add(net.packets_dropped());
  result.model_digest = digest.value();

  if (!report.conservation_ok) {
    result.check_failures.push_back("serve_knee2x: ServeReport::conservation_ok is false");
  }
  if (report.arrivals == 0 || report.in_deadline == 0) {
    result.check_failures.push_back("serve_knee2x: the service completed nothing");
  }
  // Restore-then-resume: the mid-run checkpoint, restored into a fresh
  // loop and run to the end, must reproduce the report exactly.
  std::string error;
  std::optional<snapshot::Reader> reader =
      snapshot::Reader::from_bytes(std::move(mid_snapshot), &error);
  if (!reader.has_value()) {
    result.check_failures.push_back("serve_knee2x: mid-run checkpoint unreadable: " + error);
  } else {
    serve::ServeLoop resumed(config);
    {
      Ledger::Scope scope(ledger, "serve_loop.restore_snapshot");
      resumed.restore_snapshot(*reader);
    }
    if (resumed.network().now() != mid_time ||
        report_fields(resumed.finish()) != fields) {
      result.check_failures.push_back(
          "serve_knee2x: restore-then-resume report differs from the uninterrupted run");
    }
  }

  if (ledger != nullptr) {
    Metrics& layer = result.layer;
    layer.set("topo.build_s", ledger->total_s("serve_loop.construct"), "s");
    layer.set("topo.switches", static_cast<double>(loop->topology().graph.switches().size()),
              "count");
    layer.set("topo.links", static_cast<double>(loop->topology().graph.link_count()), "count");
    const routing::Fib::Stats& fib = net.fib()->stats();
    const double lookups = static_cast<double>(fib.hits + fib.misses);
    layer.set("routing.fib_hits", static_cast<double>(fib.hits), "count");
    layer.set("routing.fib_misses", static_cast<double>(fib.misses), "count");
    layer.set("routing.fib_hit_ratio", lookups > 0 ? fib.hits / lookups : 0.0, "ratio");
    const double serve_s =
        ledger->total_s("serve_loop.run_to") + ledger->total_s("serve_loop.finish");
    report_sim_layer(layer, net, probe, serve_s, pending_peak);
    const std::vector<double> save_s = ledger->durations_s("serve_loop.save_snapshot");
    layer.set("snapshot.saves", static_cast<double>(saves), "count");
    layer.set("snapshot.save_ms_p50", 1e3 * median(save_s), "ms");
    layer.set("snapshot.bytes_per_save", saves > 0 ? save_bytes / saves : 0.0, "B");
    layer.set("snapshot.restore_ms", 1e3 * ledger->total_s("serve_loop.restore_snapshot"),
              "ms");
    layer.set("serve.run_self_s", serve_s, "s");
    layer.set("serve.arrivals", static_cast<double>(report.arrivals), "count");
    layer.set("serve.shed", static_cast<double>(report.shed_class + report.shed_limit), "count");
    layer.set("serve.retries", static_cast<double>(report.retries), "count");
    layer.set("serve.events_per_request",
              report.arrivals > 0
                  ? static_cast<double>(net.events_processed()) / report.arrivals
                  : 0.0,
              "ratio");
  }
  return result;
}

}  // namespace perfbench
