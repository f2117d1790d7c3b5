// quartz-simulate: the packet simulator as a standalone tool.  Pick a
// fabric and a workload from flags and get a CSV-able result row — the
// entry point a downstream user scripts parameter sweeps with.
//
//   $ ./simulate --fabric=quartz-edge-core --pattern=scatter --tasks=4
//   $ ./simulate --fabric=three-tier --pattern=gather --tasks=8 --csv
//   $ ./simulate --list
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <exception>
#include <fstream>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "chaos/sharded_storm.hpp"
#include "common/flags.hpp"
#include "sim/experiments.hpp"
#include "sim/sharded.hpp"
#include "topo/composite.hpp"
#include "telemetry/binary_stream.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/trace.hpp"

namespace {

using namespace quartz;
using namespace quartz::sim;

const std::vector<std::pair<std::string, Fabric>> kFabrics = {
    {"three-tier", Fabric::kThreeTierTree},
    {"jellyfish", Fabric::kJellyfish},
    {"quartz-core", Fabric::kQuartzInCore},
    {"quartz-edge", Fabric::kQuartzInEdge},
    {"quartz-edge-core", Fabric::kQuartzInEdgeAndCore},
    {"quartz-jellyfish", Fabric::kQuartzInJellyfish},
};

const std::vector<std::pair<std::string, Pattern>> kPatterns = {
    {"scatter", Pattern::kScatter},
    {"gather", Pattern::kGather},
    {"scatter-gather", Pattern::kScatterGather},
};

int usage(const char* argv0) {
  std::printf(
      "usage: %s [--fabric=NAME] [--topology=composite:SPEC] [--pattern=NAME]\n"
      "          [--tasks=N] [--fanout=N] [--rate-mbps=R] [--duration-ms=D]\n"
      "          [--seed=S] [--localized] [--vlb=K] [--fib=on|off] [--csv]\n"
      "          [--list] [--replicas=N] [--jobs=N] [--shards=N] [--trace]\n"
      "          [--sample-every=N] [--metrics-out=FILE]\n"
      "          [--telemetry=binary|jsonl|off]\n"
      "\n"
      "  --topology=composite:SPEC  hierarchical composed fabric instead of a\n"
      "                named --fabric; SPEC is kind:D0xD1[...][@h][+m], e.g.\n"
      "                composite:ring-of-rings:8x8@2 (see docs/scale.md)\n"
      "  --telemetry=binary  capture the full event stream as compact binary\n"
      "                records in <metrics-out>.qtz (decode with quartz_decode)\n"
      "  --telemetry=jsonl   mirror every event as one JSON line in\n"
      "                <metrics-out>.events.jsonl (requires --jobs=1)\n"
      "  --fib=on|off  route through the compiled FIB (default on); results\n"
      "                are bit-identical either way, only speed differs\n"
      "  --replicas=N  run N independent repetitions (seeds derived from\n"
      "                --seed) and report across-replica statistics\n"
      "  --jobs=N      worker threads for the replica sweep (0 = all\n"
      "                hardware threads); results are byte-identical for\n"
      "                every value\n"
      "  --shards=N    intra-run sharding: partition ONE simulation across\n"
      "                N cores (conservative time windows; see\n"
      "                docs/performance.md).  Needs --topology=composite:SPEC\n"
      "                and runs the shard-invariant uniform workload — task\n"
      "                patterns are sequential state machines and stay on the\n"
      "                serial engine.  Results are byte-identical at every N\n",
      argv0);
  return 1;
}

}  // namespace

int run(int argc, char** argv) {
  const Flags flags = Flags::parse(argc, argv);

  if (flags.get_bool("list")) {
    std::printf("fabrics:");
    for (const auto& [name, fabric] : kFabrics) std::printf(" %s", name.c_str());
    std::printf("\npatterns:");
    for (const auto& [name, pattern] : kPatterns) std::printf(" %s", name.c_str());
    std::printf("\n");
    return 0;
  }
  const auto unknown = flags.unknown_keys(
      {"fabric", "topology", "pattern", "tasks", "fanout", "rate-mbps", "duration-ms", "seed",
       "csv", "localized", "vlb", "fib", "list", "trace", "sample-every", "metrics-out",
       "replicas", "jobs", "shards", "telemetry"});
  if (!unknown.empty()) {
    for (const auto& key : unknown) std::printf("unknown flag --%s\n", key.c_str());
    return usage(argv[0]);
  }

  std::string fabric_name = flags.get("fabric", "quartz-edge-core");
  const std::string pattern_name = flags.get("pattern", "scatter");
  Fabric fabric = Fabric::kQuartzInEdgeAndCore;
  Pattern pattern = Pattern::kScatter;
  std::string composite_spec;
  bool found = false;
  if (flags.has("topology")) {
    // --topology=composite:<spec> builds a hierarchical composed fabric
    // (topo::CompositeSpec grammar), e.g. composite:ring-of-rings:8x8@2.
    const std::string topology = flags.get("topology");
    constexpr std::string_view kPrefix = "composite:";
    if (topology.rfind(kPrefix, 0) != 0) {
      std::printf("--topology only knows composite:<spec>, got '%s'\n", topology.c_str());
      return usage(argv[0]);
    }
    composite_spec = topology.substr(kPrefix.size());
    std::string error;
    if (!topo::CompositeSpec::parse(composite_spec, &error).has_value()) {
      std::printf("bad composite spec '%s': %s\n", composite_spec.c_str(), error.c_str());
      return usage(argv[0]);
    }
    fabric = Fabric::kComposite;
    fabric_name = topology;
    found = true;
  }
  for (const auto& [name, value] : kFabrics) {
    if (!found && name == fabric_name) {
      fabric = value;
      found = true;
    }
  }
  if (!found) {
    std::printf("unknown fabric '%s' (try --list)\n", fabric_name.c_str());
    return usage(argv[0]);
  }
  found = false;
  for (const auto& [name, value] : kPatterns) {
    if (name == pattern_name) {
      pattern = value;
      found = true;
    }
  }
  if (!found) {
    std::printf("unknown pattern '%s' (try --list)\n", pattern_name.c_str());
    return usage(argv[0]);
  }

  FabricConfig config;
  if (!composite_spec.empty()) config.composite = composite_spec;
  config.vlb_fraction = flags.get_double("vlb", 0.0);
  config.seed = static_cast<std::uint64_t>(flags.get_int("seed", 1));
  const std::string fib_mode = flags.get("fib", "on");
  if (fib_mode != "on" && fib_mode != "off") {
    std::printf("--fib must be 'on' or 'off', got '%s'\n", fib_mode.c_str());
    return usage(argv[0]);
  }
  config.use_fib = fib_mode == "on";

  TaskExperimentParams params;
  params.pattern = pattern;
  params.tasks = static_cast<int>(flags.get_int("tasks", 4));
  params.fanout = static_cast<int>(flags.get_int("fanout", 15));
  params.per_flow_rate = megabits_per_second(flags.get_double("rate-mbps", 200.0));
  params.duration = milliseconds(flags.get_int("duration-ms", 10));
  params.localized = flags.get_bool("localized");
  params.seed = config.seed * 31 + 7;
  if (params.tasks < 1 || params.fanout < 1 || flags.get_int("duration-ms", 10) < 1 ||
      flags.get_double("rate-mbps", 200.0) <= 0.0 || flags.get_int("sample-every", 1) < 1) {
    std::printf("--tasks, --fanout, --duration-ms, --rate-mbps and --sample-every "
                "must be positive\n");
    return usage(argv[0]);
  }

  const int replicas = static_cast<int>(flags.get_int("replicas", 1));
  const int jobs = static_cast<int>(flags.get_int("jobs", 1));
  if (replicas < 1 || jobs < 0) {
    std::printf("--replicas must be positive, --jobs non-negative\n");
    return usage(argv[0]);
  }
  const int shards = static_cast<int>(flags.get_int("shards", 1));
  if (shards < 1) {
    std::printf("--shards must be positive, got %d\n", shards);
    return usage(argv[0]);
  }
  if (shards > 1) {
    // Intra-run sharding: ONE simulation partitioned across cores.
    // The partition planner needs a composed fabric (one shard per
    // top-level element), and the sharded engine runs the
    // shard-invariant uniform workload, so the sequential experiment
    // options below do not apply.
    if (composite_spec.empty()) {
      std::printf("--shards=%d needs --topology=composite:SPEC (the partition planner\n"
                  "shards one composed element per core; named fabrics stay serial)\n",
                  shards);
      return usage(argv[0]);
    }
    if (replicas > 1 || flags.has("metrics-out") || flags.get_bool("trace") ||
        flags.get("telemetry", "off") != "off") {
      std::printf("--shards is the intra-run engine: combine with --replicas/--jobs by\n"
                  "running one process per replica; --metrics-out, --trace and\n"
                  "--telemetry are serial-engine options\n");
      return usage(argv[0]);
    }
    chaos::ShardedStormParams storm;
    storm.composite = composite_spec;
    storm.shards = shards;
    storm.seed = config.seed;
    storm.cuts = 0;
    storm.gray_links = 0;
    storm.flapping_links = 0;
    storm.storm_start = 0;
    storm.storm_end = 0;
    storm.run_until = milliseconds(flags.get_int("duration-ms", 10));
    // Per-host send cadence from the requested per-flow rate.
    const double rate_mbps = flags.get_double("rate-mbps", 200.0);
    storm.packet_gap = std::max<TimePs>(
        1, static_cast<TimePs>(static_cast<double>(storm.packet_size) * 1e6 / rate_mbps));
    storm.packets_per_host =
        static_cast<int>(std::min<std::int64_t>(100000, storm.run_until / storm.packet_gap));
    const auto wall_start = std::chrono::steady_clock::now();
    const chaos::ShardedStormResult result = chaos::run_sharded_storm(storm);
    const double wall_s =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - wall_start).count();
    const double events_per_s =
        wall_s > 0.0 ? static_cast<double>(result.events) / wall_s : 0.0;
    if (flags.get_bool("csv")) {
      std::printf("fabric,shards,strategy,lookahead_ns,mean_us,p99_us,deliveries,drops,events,"
                  "events_per_sec,delivery_digest\n");
      std::printf("%s,%d,%s,%.3f,%.4f,%.4f,%llu,%llu,%llu,%.0f,%016llx\n", fabric_name.c_str(),
                  result.shards, result.strategy.c_str(),
                  static_cast<double>(result.lookahead) * 1e-3, result.mean_latency_us,
                  result.p99_latency_us, static_cast<unsigned long long>(result.deliveries),
                  static_cast<unsigned long long>(result.drops),
                  static_cast<unsigned long long>(result.events), events_per_s,
                  static_cast<unsigned long long>(result.delivery_digest));
    } else {
      std::printf("%s, sharded engine (%d shards, %s partition, lookahead %.0f ns):\n",
                  fabric_name.c_str(), result.shards, result.strategy.c_str(),
                  static_cast<double>(result.lookahead) * 1e-3);
      std::printf("  mean %.2f us   p99 %.2f us   (uniform shard-invariant workload)\n",
                  result.mean_latency_us, result.p99_latency_us);
      std::printf("  %llu delivered, %llu dropped, %llu events (%.0f events/s, %llu "
                  "cross-shard)\n",
                  static_cast<unsigned long long>(result.deliveries),
                  static_cast<unsigned long long>(result.drops),
                  static_cast<unsigned long long>(result.events), events_per_s,
                  static_cast<unsigned long long>(result.mail_posted));
      std::printf("  delivery digest %016llx (byte-identical at every --shards)\n",
                  static_cast<unsigned long long>(result.delivery_digest));
      std::printf("  window ledger (wall clock, per shard):\n%s",
                  sim::window_ledger_text(result.window_stats).c_str());
    }
    return 0;
  }

  telemetry::MetricRegistry metrics(flags.has("metrics-out"));
  params.telemetry.trace = flags.get_bool("trace");
  params.telemetry.trace_sample_every =
      static_cast<std::uint32_t>(flags.get_int("sample-every", 1));
  params.telemetry.metrics = metrics.enabled() ? &metrics : nullptr;
  if (params.telemetry.metrics != nullptr && replicas > 1 && resolve_jobs(jobs) > 1) {
    // A MetricRegistry is thread-confined; replica workers cannot share it.
    std::printf("--metrics-out requires --jobs=1 when --replicas > 1\n");
    return usage(argv[0]);
  }

  const std::string telemetry_mode = flags.get("telemetry", "off");
  if (telemetry_mode != "off" && telemetry_mode != "binary" && telemetry_mode != "jsonl") {
    std::printf("--telemetry must be binary, jsonl or off, got '%s'\n", telemetry_mode.c_str());
    return usage(argv[0]);
  }
  if (telemetry_mode != "off" && !flags.has("metrics-out")) {
    std::printf("--telemetry=%s needs --metrics-out to derive its output path\n",
                telemetry_mode.c_str());
    return usage(argv[0]);
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
    // StreamFile serializes page appends, so every replica (even across
    // sweep workers) can share this one file; each run tags its pages
    // with its replica index and the decoder merges deterministically.
    stream_file = std::make_unique<telemetry::StreamFile>(stream_os);
    params.telemetry.stream = stream_file.get();
    params.telemetry.stream_background = true;
  } else if (telemetry_mode == "jsonl") {
    if (replicas > 1 && resolve_jobs(jobs) > 1) {
      std::printf("--telemetry=jsonl requires --jobs=1 when --replicas > 1\n");
      return usage(argv[0]);
    }
    events_path = flags.get("metrics-out") + ".events.jsonl";
    events_os.open(events_path);
    if (!events_os) {
      std::fprintf(stderr, "cannot open %s\n", events_path.c_str());
      return 1;
    }
    params.telemetry.events_jsonl = &events_os;
  }

  if (replicas > 1) {
    SweepOptions sweep;
    sweep.jobs = jobs;
    sweep.root_seed = config.seed;
    const ReplicaSweepResult sweep_result =
        run_task_replicas(fabric, config, params, replicas, sweep);
    if (flags.get_bool("csv")) {
      std::printf(
          "fabric,pattern,tasks,localized,replicas,mean_us,mean_stddev_us,p99_us,packets,"
          "drops\n");
      std::printf("%s,%s,%d,%d,%d,%.4f,%.4f,%.4f,%llu,%llu\n", fabric_name.c_str(),
                  pattern_name.c_str(), params.tasks, params.localized ? 1 : 0, replicas,
                  sweep_result.mean_latency_us.mean(), sweep_result.mean_latency_us.stddev(),
                  sweep_result.p99_latency_us.mean(),
                  static_cast<unsigned long long>(sweep_result.packets_measured),
                  static_cast<unsigned long long>(sweep_result.packets_dropped));
    } else {
      std::printf("%s / %s, %d task(s)%s, %d replicas (%d job%s):\n", fabric_name.c_str(),
                  pattern_name.c_str(), params.tasks, params.localized ? " (localized)" : "",
                  replicas, resolve_jobs(jobs), resolve_jobs(jobs) == 1 ? "" : "s");
      std::printf("  mean %.2f us (+/- %.2f us across replicas)   p99 %.2f us\n",
                  sweep_result.mean_latency_us.mean(), sweep_result.mean_latency_us.stddev(),
                  sweep_result.p99_latency_us.mean());
      std::printf("  %llu packets measured, %llu dropped\n",
                  static_cast<unsigned long long>(sweep_result.packets_measured),
                  static_cast<unsigned long long>(sweep_result.packets_dropped));
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
    return 0;
  }

  const TaskExperimentResult result = run_task_experiment(fabric, config, params);

  if (flags.get_bool("csv")) {
    std::printf(
        "fabric,pattern,tasks,localized,mean_us,p99_us,ci95_us,queueing_us,packets,drops\n");
    std::printf("%s,%s,%d,%d,%.4f,%.4f,%.4f,%.4f,%llu,%llu\n", fabric_name.c_str(),
                pattern_name.c_str(), params.tasks, params.localized ? 1 : 0,
                result.mean_latency_us, result.p99_latency_us, result.ci95_us,
                result.mean_queueing_us,
                static_cast<unsigned long long>(result.packets_measured),
                static_cast<unsigned long long>(result.packets_dropped));
  } else {
    std::printf("%s / %s, %d task(s)%s:\n", fabric_name.c_str(), pattern_name.c_str(),
                params.tasks, params.localized ? " (localized)" : "");
    std::printf("  mean %.2f us   p99 %.2f us   (95%% CI +/- %.2f us)\n",
                result.mean_latency_us, result.p99_latency_us, result.ci95_us);
    std::printf("  of which queueing: %.2f us (%.0f%%)\n", result.mean_queueing_us,
                100.0 * result.mean_queueing_us / result.mean_latency_us);
    std::printf("  %llu packets measured, %llu dropped\n",
                static_cast<unsigned long long>(result.packets_measured),
                static_cast<unsigned long long>(result.packets_dropped));
  }

  if (params.telemetry.trace) {
    const auto& d = result.decomposition;
    std::printf(
        "latency decomposition (%llu sampled packets, mean us/packet):\n"
        "  host %.3f + queueing %.3f + serialization %.3f + switching %.3f"
        " + propagation %.3f = %.3f\n",
        static_cast<unsigned long long>(d.packets), d.host_us, d.queueing_us,
        d.serialization_us, d.switching_us, d.propagation_us, d.total_us);
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
  if (params.telemetry.events_jsonl != nullptr) {
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
