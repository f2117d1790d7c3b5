// Latency study: run the §7 workloads (scatter / gather / RPC) on a
// three-tier tree and on Quartz-in-edge-and-core, side by side, and
// break the difference down — the paper's headline "Quartz halves
// end-to-end latency" demonstrated on the public API.
//
//   $ ./latency_study [--tasks=N] [--duration-ms=D]
//   $ ./latency_study --trace                # adds the per-component breakdown
//   $ ./latency_study --metrics-out=m.csv    # dumps the metric registry
#include <chrono>
#include <cstdio>
#include <exception>
#include <cstdlib>
#include <fstream>
#include <utility>

#include "chaos/sharded_storm.hpp"
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/flags.hpp"
#include "common/table.hpp"
#include "sim/experiments.hpp"
#include "topo/composite.hpp"
#include "sim/sharded.hpp"
#include "sim/sweep.hpp"
#include "sim/workloads.hpp"
#include "telemetry/binary_stream.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/trace.hpp"
#include "topo/properties.hpp"

namespace {

using namespace quartz;
using namespace quartz::sim;

std::string fmt(double v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%.2f", v);
  return buf;
}

}  // namespace

int run(int argc, char** argv) {
  const Flags flags = Flags::parse(argc, argv);
  const auto unknown =
      flags.unknown_keys({"tasks", "duration-ms", "trace", "sample-every", "metrics-out",
                          "jobs", "shards", "fib", "telemetry", "topology", "help"});
  if (!unknown.empty() || flags.get_bool("help")) {
    for (const auto& key : unknown) std::printf("unknown flag --%s\n", key.c_str());
    std::printf(
        "usage: %s [--tasks=N] [--duration-ms=D] [--trace] [--sample-every=N]\n"
        "          [--metrics-out=FILE] [--jobs=N] [--shards=N] [--fib=on|off]\n"
        "          [--telemetry=binary|jsonl|off] [--topology=composite:SPEC]\n"
        "\n"
        "  --topology=composite:SPEC  add a hierarchical composed fabric as a\n"
        "            third study column; SPEC is kind:D0xD1[...][@h][+m], e.g.\n"
        "            composite:ring-of-rings:4x4@2 (see docs/scale.md)\n"
        "  --telemetry=binary  capture every cell's event stream as compact\n"
        "            binary records in <metrics-out>.qtz (decode with\n"
        "            quartz_decode)\n"
        "  --telemetry=jsonl   mirror events as JSON lines in\n"
        "            <metrics-out>.events.jsonl (needs --jobs=1)\n"
        "  --jobs=N  worker threads for the pattern x fabric sweep (0 = all\n"
        "            hardware threads); results are byte-identical for every\n"
        "            value.  --metrics-out needs --jobs=1 (the registry is\n"
        "            thread-confined).\n"
        "  --shards=N  append a parallel-engine cross-check: run the composite\n"
        "            column's fabric through the intra-run sharded engine at\n"
        "            1 and N shards and verify the delivery digests match\n"
        "            (needs --topology=composite:SPEC; see docs/performance.md)\n"
        "  --fib=on|off  route through the compiled FIB (default on); results\n"
        "            are bit-identical either way, only speed differs.\n",
        argv[0]);
    return unknown.empty() ? 0 : 1;
  }
  const std::string fib_mode = flags.get("fib", "on");
  if (fib_mode != "on" && fib_mode != "off") {
    std::printf("--fib must be 'on' or 'off', got '%s'\n", fib_mode.c_str());
    return 1;
  }
  std::string composite_spec;
  if (flags.has("topology")) {
    const std::string topology = flags.get("topology");
    constexpr std::string_view kPrefix = "composite:";
    if (topology.rfind(kPrefix, 0) != 0) {
      std::printf("--topology only knows composite:<spec>, got '%s'\n", topology.c_str());
      return 1;
    }
    composite_spec = topology.substr(kPrefix.size());
    std::string spec_error;
    if (!topo::CompositeSpec::parse(composite_spec, &spec_error).has_value()) {
      std::printf("bad composite spec '%s': %s\n", composite_spec.c_str(), spec_error.c_str());
      return 1;
    }
  }
  // Positional task count kept for compatibility with the old argv form.
  int positional_tasks = 4;
  if (!flags.positional().empty()) {
    char* end = nullptr;
    const long v = std::strtol(flags.positional().front().c_str(), &end, 10);
    if (end == flags.positional().front().c_str() || *end != '\0') {
      std::printf("task count must be an integer, got '%s'\n",
                  flags.positional().front().c_str());
      return 1;
    }
    positional_tasks = static_cast<int>(v);
  }
  const int tasks = static_cast<int>(flags.get_int("tasks", positional_tasks));
  const int shards = static_cast<int>(flags.get_int("shards", 1));
  if (shards < 1) {
    std::printf("--shards must be positive, got %d\n", shards);
    return 1;
  }
  if (shards > 1 && composite_spec.empty()) {
    std::printf("--shards=%d needs --topology=composite:SPEC (the sharded engine\n"
                "partitions one composed element per core)\n",
                shards);
    return 1;
  }
  const std::int64_t duration_ms = flags.get_int("duration-ms", 10);
  const bool trace = flags.get_bool("trace");
  const int jobs = static_cast<int>(flags.get_int("jobs", 1));
  if (tasks < 1 || duration_ms < 1 || flags.get_int("sample-every", 1) < 1 || jobs < 0) {
    std::printf("--tasks, --duration-ms and --sample-every must be positive\n");
    return 1;
  }
  telemetry::MetricRegistry metrics(flags.has("metrics-out"));
  if (metrics.enabled() && sim::resolve_jobs(jobs) > 1) {
    // A MetricRegistry is thread-confined; sweep workers cannot share it.
    std::printf("--metrics-out requires --jobs=1\n");
    return 1;
  }
  const std::string telemetry_mode = flags.get("telemetry", "off");
  if (telemetry_mode != "off" && telemetry_mode != "binary" && telemetry_mode != "jsonl") {
    std::printf("--telemetry must be binary, jsonl or off, got '%s'\n", telemetry_mode.c_str());
    return 1;
  }
  if (telemetry_mode != "off" && !flags.has("metrics-out")) {
    std::printf("--telemetry=%s needs --metrics-out to derive its output path\n",
                telemetry_mode.c_str());
    return 1;
  }
  if (telemetry_mode == "jsonl" && sim::resolve_jobs(jobs) > 1) {
    std::printf("--telemetry=jsonl requires --jobs=1\n");
    return 1;
  }
  std::ofstream stream_os;
  std::unique_ptr<telemetry::StreamFile> stream_file;
  std::ofstream events_os;
  std::string stream_path;
  std::string events_path;
  if (telemetry_mode == "binary") {
    stream_path = flags.get("metrics-out") + ".qtz";
    stream_os.open(stream_path, std::ios::binary);
    if (!stream_os) {
      std::fprintf(stderr, "cannot open %s\n", stream_path.c_str());
      return 1;
    }
    stream_file = std::make_unique<telemetry::StreamFile>(stream_os);
  } else if (telemetry_mode == "jsonl") {
    events_path = flags.get("metrics-out") + ".events.jsonl";
    events_os.open(events_path);
    if (!events_os) {
      std::fprintf(stderr, "cannot open %s\n", events_path.c_str());
      return 1;
    }
  }

  std::printf("Latency study: %d concurrent tasks per pattern, 64-host fabrics\n\n", tasks);

  // The studied fabrics, in column order; --topology appends a composed
  // fabric as a third column.
  struct StudyFabric {
    std::string label;
    Fabric fabric;
  };
  std::vector<StudyFabric> study = {{"three-tier tree", Fabric::kThreeTierTree},
                                    {"quartz edge+core", Fabric::kQuartzInEdgeAndCore}};
  if (!composite_spec.empty()) study.push_back({"composite", Fabric::kComposite});
  FabricConfig fabric_config;
  fabric_config.use_fib = fib_mode == "on";
  if (!composite_spec.empty()) fabric_config.composite = composite_spec;

  // ---- topology-level view --------------------------------------------
  {
    std::vector<std::string> header = {"metric"};
    for (const auto& f : study) header.push_back(f.label);
    Table table(header);
    std::vector<topo::TopologyProperties> props;
    for (const auto& f : study) props.push_back(topo::analyze(build_fabric(f.fabric, fabric_config).topo));
    auto row = [&](const std::string& metric, auto&& value) {
      std::vector<std::string> cells = {metric};
      for (const auto& p : props) cells.push_back(value(p));
      table.add_row(cells);
    };
    row("switches", [](const auto& p) { return std::to_string(p.switch_count); });
    row("worst switch hops", [](const auto& p) { return std::to_string(p.switch_hops); });
    row("zero-load latency", [](const auto& p) { return format_time(p.zero_load_latency); });
    row("path diversity", [](const auto& p) { return std::to_string(p.path_diversity); });
    std::printf("structure:\n%s\n", table.to_text().c_str());
  }

  // ---- workload-level view ---------------------------------------------
  std::vector<std::string> header = {"pattern"};
  for (const auto& f : study) header.push_back(f.label + " mean (us)");
  for (const auto& f : study) header.push_back(f.label + " p99");
  header.push_back("reduction");
  Table table(header);
  Table breakdown({"pattern", "fabric", "host (us)", "queueing (us)", "serialization (us)",
                   "switching (us)", "propagation (us)", "total (us)"});
  const std::vector<Pattern> patterns{Pattern::kScatter, Pattern::kGather,
                                      Pattern::kScatterGather};
  struct Cell {
    Pattern pattern;
    Fabric fabric;
  };
  std::vector<Cell> cells;
  for (Pattern pattern : patterns) {
    for (const auto& f : study) cells.push_back({pattern, f.fabric});
  }
  const std::uint32_t sample_every =
      static_cast<std::uint32_t>(flags.get_int("sample-every", 1));
  telemetry::MetricRegistry* registry = metrics.enabled() ? &metrics : nullptr;
  sim::SweepRunner runner({jobs, 1});
  const auto results = runner.run(cells, [&](const Cell& cell, sim::SweepContext ctx) {
    TaskExperimentParams params;
    params.pattern = cell.pattern;
    params.tasks = tasks;
    params.duration = milliseconds(duration_ms);
    params.telemetry.trace = trace;
    params.telemetry.trace_sample_every = sample_every;
    params.telemetry.metrics = registry;  // nonnull only when jobs == 1
    if (stream_file != nullptr) {
      // One stream per sweep cell; the shared StreamFile serializes page
      // appends, so any --jobs value writes the same decodable file.
      params.telemetry.stream = stream_file.get();
      params.telemetry.stream_id = static_cast<std::uint32_t>(ctx.index);
    }
    if (events_os.is_open()) params.telemetry.events_jsonl = &events_os;  // jobs == 1 only
    return run_task_experiment(cell.fabric, fabric_config, params);
  });
  const std::size_t columns = study.size();
  for (std::size_t i = 0; i < patterns.size(); ++i) {
    const Pattern pattern = patterns[i];
    const auto* row = &results[columns * i];  // fabric-major within the pattern
    char red[16];
    // The headline reduction stays tree vs quartz edge+core.
    std::snprintf(red, sizeof(red), "%.0f%%",
                  100.0 * (1.0 - row[1].mean_latency_us / row[0].mean_latency_us));
    std::vector<std::string> line = {pattern_name(pattern)};
    for (std::size_t f = 0; f < columns; ++f) line.push_back(fmt(row[f].mean_latency_us));
    for (std::size_t f = 0; f < columns; ++f) line.push_back(fmt(row[f].p99_latency_us));
    line.push_back(red);
    table.add_row(line);
    if (trace) {
      for (std::size_t f = 0; f < columns; ++f) {
        const auto& d = row[f].decomposition;
        breakdown.add_row({pattern_name(pattern), study[f].label, fmt(d.host_us),
                           fmt(d.queueing_us), fmt(d.serialization_us), fmt(d.switching_us),
                           fmt(d.propagation_us), fmt(d.total_us)});
      }
    }
  }
  std::printf("workloads (mean latency per packet):\n%s\n", table.to_text().c_str());
  if (trace) {
    std::printf("per-packet latency decomposition (sampled 1/%lld packets):\n%s\n",
                static_cast<long long>(flags.get_int("sample-every", 1)),
                breakdown.to_text().c_str());
  }

  std::printf(
      "where the gap comes from: the tree's cross-pod paths traverse a 6 us\n"
      "store-and-forward core plus two shared aggregation hops; the Quartz\n"
      "design rides dedicated cut-through lightpaths end to end.\n");

  if (shards > 1) {
    // Parallel-engine cross-check: the composite fabric through the
    // intra-run sharded engine, serial vs sharded, digests compared.
    chaos::ShardedStormParams storm;
    storm.composite = composite_spec;
    storm.cuts = 0;
    storm.gray_links = 0;
    storm.flapping_links = 0;
    storm.storm_start = 0;
    storm.storm_end = 0;
    storm.shards = 1;
    auto timed = [&storm] {
      const auto start = std::chrono::steady_clock::now();
      const chaos::ShardedStormResult result = chaos::run_sharded_storm(storm);
      const double wall =
          std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
      return std::make_pair(result, wall);
    };
    const auto [serial, serial_wall] = timed();
    storm.shards = shards;
    const auto [sharded, sharded_wall] = timed();
    const bool match = serial.delivery_digest == sharded.delivery_digest &&
                       serial.drop_digest == sharded.drop_digest;
    std::printf("\nparallel engine (%s, %s partition, lookahead %.0f ns):\n",
                composite_spec.c_str(), sharded.strategy.c_str(),
                static_cast<double>(sharded.lookahead) * 1e-3);
    std::printf("  shards=1: %.0f events/s   shards=%d: %.0f events/s\n",
                serial_wall > 0 ? static_cast<double>(serial.events) / serial_wall : 0.0,
                shards,
                sharded_wall > 0 ? static_cast<double>(sharded.events) / sharded_wall : 0.0);
    std::printf("  delivery digest %016llx %s\n",
                static_cast<unsigned long long>(sharded.delivery_digest),
                match ? "(byte-identical to serial)" : "(MISMATCH vs serial)");
    std::printf("  shards=%d window ledger (wall clock):\n%s", shards,
                sim::window_ledger_text(sharded.window_stats).c_str());
    if (!match) return 1;
  }

  if (metrics.enabled()) {
    const std::string path = flags.get("metrics-out");
    std::ofstream out(path);
    if (!out) {
      std::fprintf(stderr, "cannot open %s\n", path.c_str());
      return 1;
    }
    metrics.write_csv(out);
    std::printf("metrics: %s\n", path.c_str());
  }
  if (stream_file != nullptr) {
    stream_os.flush();
    std::printf("event stream: %s (%llu pages, %llu bytes)\n", stream_path.c_str(),
                static_cast<unsigned long long>(stream_file->pages()),
                static_cast<unsigned long long>(stream_file->bytes()));
  }
  if (events_os.is_open()) {
    events_os.flush();
    std::printf("events: %s\n", events_path.c_str());
  }
  return 0;
}

int main(int argc, char** argv) {
  // Examples never throw on bad argv: surface the parse error and the
  // usage text instead of an abort.
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
