#include "harness.hpp"

#include <algorithm>
#include <cstdio>
#include <optional>

namespace perfbench {
namespace {

/// The companion pass a traced run compares against, if any.
std::optional<RepOptions> companion_of(const std::string& workload, RepOptions options) {
  if (workload == "fig17_capture") {
    options.capture = false;
  } else if (workload == "storm_sharded") {
    options.shards = 1;
  } else if (workload == "warehouse_hybrid") {
    options.fluid = false;
  } else {
    return std::nullopt;
  }
  return options;
}

/// Companions that must simulate exactly what the measured variant
/// does: capture is passive, and a sharded run must match serial.
bool companion_same_model(const std::string& workload) {
  return workload == "fig17_capture" || workload == "storm_sharded";
}

double rate(const RepResult& r) {
  return r.run_s > 0 ? static_cast<double>(r.delivered) / r.run_s : 0.0;
}

template <typename F>
double median_of(const std::vector<RepResult>& reps, F&& f) {
  std::vector<double> values;
  for (const RepResult& r : reps) values.push_back(f(r));
  return median(std::move(values));
}

class Checker {
 public:
  explicit Checker(Outcome& out) : out_(out) {}

  void rep(const RepResult& r) {
    out_.attempted += r.attempted;
    ++out_.reps;
    for (const std::string& m : r.check_failures) fail(m);
  }

  void fail(const std::string& message) {
    if (std::find(out_.messages.begin(), out_.messages.end(), message) == out_.messages.end()) {
      out_.messages.push_back(message);
    }
  }

  /// Same seed, same model: every rep must report identical outcomes.
  void same_model(const RepResult& a, const RepResult& b, const std::string& what) {
    if (a.model_digest != b.model_digest || a.attempted != b.attempted ||
        a.failed != b.failed) {
      fail("model outcome differs: " + what);
    }
  }

  void finish() {
    out_.correct = out_.messages.empty();
    // A run whose output check fails counts every operation as failed.
    out_.failed = out_.correct ? 0 : out_.attempted;
  }

 private:
  Outcome& out_;
};

}  // namespace

Outcome measure(const Workload& workload, const MeasureOptions& options) {
  Outcome out;
  Checker check(out);
  RepOptions base;
  base.seed = options.seed;
  base.small = options.small;
  const std::string name = workload.name;
  Stopwatch budget;

  if (!options.trace) {
    // Each rep starts right after a host reference, which also leaves
    // the caches in the same state for every rep's set-up.
    std::vector<RepResult> reps;
    std::vector<double> refs;
    while (reps.size() < 3 || budget.elapsed_s() < options.seconds) {
      refs.push_back(host_reference_s());
      reps.push_back(workload.run(base));
      check.rep(reps.back());
      check.same_model(reps.front(), reps.back(), "repeated rep of one seed");
      std::fprintf(stderr, "rep %zu: setup_s %.6f run_s %.6f pkts_per_s %.0f ref_ms %.3f\n",
                   reps.size(), reps.back().setup_s, reps.back().run_s, rate(reps.back()),
                   1e3 * refs.back());
    }
    check.finish();

    const RepResult& first = reps.front();
    out.model_digest = first.model_digest;
    const double ok_share =
        !out.correct || first.attempted == 0
            ? 0.0
            : 1.0 - static_cast<double>(first.failed) / static_cast<double>(first.attempted);
    // Each rep's timings are scaled to the nominal host speed by the
    // reference taken just before it (ledger.hpp); the raw medians are
    // printed as well.
    std::vector<double> rates, setups;
    for (std::size_t i = 0; i < reps.size(); ++i) {
      rates.push_back(rate(reps[i]) * refs[i] / kReferenceNominalS);
      setups.push_back(reps[i].setup_s * kReferenceNominalS / refs[i]);
    }
    out.metrics.set("pkts_per_s", median(std::move(rates)), "packets/s");
    out.metrics.set("setup_s", median(std::move(setups)), "s");
    out.metrics.set("peak_rss_mb", peak_rss_mib(), "MiB");
    out.metrics.set("ok_share", ok_share, "ratio");
    out.host.set("raw_pkts_per_s", median_of(reps, rate), "packets/s");
    out.host.set("raw_setup_s", median_of(reps, [](const RepResult& r) { return r.setup_s; }),
                 "s");
    out.host.set("reference_ms", 1e3 * median(refs), "ms");
    return out;
  }

  // Traced: each cycle runs an untraced rep, a traced rep and the
  // companion pass back to back, so each ratio pairs runs made under
  // the same host conditions; the reported ratio is the median pair.
  const std::optional<RepOptions> companion = companion_of(name, base);
  std::optional<RepResult> first;
  std::vector<RepResult> traced;
  std::vector<double> trace_overhead, companion_ratio;
  std::uint64_t events_measured = 0, events_companion = 0;
  Ledger last;
  while (traced.size() < 2 || budget.elapsed_s() < options.seconds) {
    const RepResult plain = workload.run(base);
    check.rep(plain);
    if (!first.has_value()) first = plain;
    check.same_model(*first, plain, "repeated rep of one seed");
    Ledger ledger;
    RepOptions with_trace = base;
    with_trace.ledger = &ledger;
    traced.push_back(workload.run(with_trace));
    check.rep(traced.back());
    check.same_model(plain, traced.back(), "traced rep vs untraced rep");
    trace_overhead.push_back(rate(plain) / rate(traced.back()) - 1.0);
    if (companion.has_value()) {
      const RepResult paired = workload.run(*companion);
      check.rep(paired);
      if (companion_same_model(name)) {
        check.same_model(plain, paired, "companion pass vs measured variant");
      }
      companion_ratio.push_back(plain.run_s / paired.run_s);
      events_measured = plain.events;
      events_companion = paired.events;
    }
    last = std::move(ledger);
  }
  check.finish();
  out.model_digest = first->model_digest;

  for (const MetricSpec& spec : per_layer_metrics()) {
    out.metrics.set(spec.name,
                    median_of(traced, [&](const RepResult& r) { return r.layer.value(spec.name); }),
                    spec.unit);
  }
  // companion_ratio is (measured variant run time) / (companion run time).
  const double ratio = median(companion_ratio);
  if (name == "fig17_capture") {
    out.metrics.set("telemetry.capture_overhead_rel", ratio - 1.0, "ratio");
  } else if (name == "storm_sharded") {
    out.metrics.set("sim.shard_speedup", ratio > 0 ? 1.0 / ratio : 0.0, "ratio");
    out.metrics.set("sim.shard_events_vs_serial",
                    events_companion > 0 ? static_cast<double>(events_measured) /
                                               static_cast<double>(events_companion)
                                         : 0.0,
                    "ratio");
  } else if (name == "warehouse_hybrid") {
    out.metrics.set("flow.share", ratio > 0 ? 1.0 - 1.0 / ratio : 0.0, "ratio");
  }
  out.metrics.set("trace_overhead_rel", median(trace_overhead), "ratio");

  if (!options.spans_path.empty() && !last.write_json(options.spans_path, name)) {
    check.fail("cannot write spans to " + options.spans_path);
    check.finish();
  }
  return out;
}

}  // namespace perfbench
