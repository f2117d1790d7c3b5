// The benchmark's four workloads.  Each runs one repetition ("rep"):
// build the fabric and arm the workload (set-up), run the simulation
// (the timed run phase), then check the outputs.  Inputs derive only
// from RepOptions::seed, so one seed always gives the same run.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "ledger.hpp"

namespace perfbench {

struct RepOptions {
  std::uint64_t seed = 1;
  /// Shrunken sizes for the benchmark's own tests.
  bool small = false;
  /// Non-null: record spans and per-layer counters into this ledger.
  Ledger* ledger = nullptr;

  // Companion-pass variants (the defaults are the measured workload).
  bool capture = true;  ///< fig17_capture: binary event capture on
  int shards = 2;       ///< storm_sharded: shard count
  bool fluid = true;    ///< warehouse_hybrid: fluid background on
};

struct RepResult {
  double setup_s = 0.0;  ///< host time, rep start to the first simulated event
  double run_s = 0.0;    ///< host time of the run phase
  std::uint64_t delivered = 0;  ///< packets delivered in the run phase
  std::uint64_t events = 0;     ///< simulated events the engine ran
  /// Model operations: packets sent (requests arrived for serve_knee2x)
  /// and those the model failed (dropped; shed, failed or late).
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// Hash of the simulated results: delivery/drop outcomes, p50, p99.
  std::uint64_t model_digest = 0;
  double mean_us = 0.0;  ///< simulated latency
  double p99_us = 0.0;
  std::vector<std::string> check_failures;  ///< empty = outputs correct
  /// Per-layer counters, filled only on traced reps.
  Metrics layer;
};

using RepFn = RepResult (*)(const RepOptions&);

RepResult run_fig17_capture(const RepOptions& options);
RepResult run_serve_knee2x(const RepOptions& options);
RepResult run_storm_sharded(const RepOptions& options);
RepResult run_warehouse_hybrid(const RepOptions& options);

struct Workload {
  const char* name;
  RepFn run;
};

/// The four workloads, in BENCHMARK.json order.
const std::vector<Workload>& workloads();
const Workload* find_workload(const std::string& name);

/// Every per-layer metric name with its unit; a traced run reports all
/// of them (0 where the workload does not touch the layer).
struct MetricSpec {
  const char* name;
  const char* unit;
};
const std::vector<MetricSpec>& per_layer_metrics();
const std::vector<MetricSpec>& end_to_end_metrics();

}  // namespace perfbench
