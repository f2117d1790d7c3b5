// Chaos storms over the sharded engine — the determinism proving
// ground for intra-run parallelism.
//
// StormRun (storm_run.hpp) drives one serial engine through a fault
// storm and digests its delivery/drop streams.  ShardedStormRun is the
// same drill rebuilt on ShardedSim: a composite fabric partitioned
// into N shards, a per-host timer-chain workload (each host's schedule
// and destinations are a pure hash of the seed, so the traffic is
// identical at every shard count — a global traffic RNG would not be),
// and a control plane REPLICATED per shard: every shard runs its own
// FaultScheduler, ProbePlane, HealthMonitor and EcmpOracle over the
// full graph with identical seeds, so fault timelines and routing
// views agree everywhere without a byte of cross-shard coordination.
// Only data packets cross shards, through the engine's mailboxes.
//
// The result digests are canonical: each shard records its delivery
// and drop events (naturally sorted by (time, stamp)), and finish()
// k-way merges the per-shard streams by (time, stamp, kind) before
// hashing — the same total order the engine itself uses, so the digest
// at shards=1 is byte-identical to shards=2, 8, ... iff the parallel
// execution preserved the serial semantics.  That equality is the
// tentpole acceptance test.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/units.hpp"
#include "routing/ecmp.hpp"
#include "sim/partition.hpp"
#include "sim/sharded.hpp"
#include "topo/builders.hpp"

namespace quartz::snapshot {
class Writer;
class Reader;
}  // namespace quartz::snapshot

namespace quartz::chaos {

struct ShardedStormParams {
  std::uint64_t seed = 1;
  /// Composite spec ("ring-of-rings:8x4@2") or "" for a flat Quartz
  /// ring of `flat_switches` (exercising the ring-segment splitter).
  std::string composite = "ring-of-rings:8x4@2";
  int flat_switches = 16;
  int flat_hosts_per_switch = 2;
  int shards = 1;

  /// Per-host timer-chain workload.
  int packets_per_host = 60;
  TimePs packet_gap = microseconds(2);
  Bits packet_size = bytes(400);

  /// Storm script: cuts + gray transceivers + one flapping link, all
  /// failing inside [storm_start, storm_end] and repaired before the
  /// drain tail.
  int cuts = 2;
  int gray_links = 2;
  double gray_loss = 0.25;
  int flapping_links = 1;
  TimePs storm_start = microseconds(30);
  TimePs storm_end = microseconds(120);
  TimePs run_until = microseconds(300);
  TimePs probe_interval = microseconds(5);
};

struct ShardedStormResult {
  int shards = 1;
  TimePs lookahead = 0;
  std::string strategy;
  std::uint64_t delivery_digest = 0;
  std::uint64_t drop_digest = 0;
  std::uint64_t deliveries = 0;
  std::uint64_t drops = 0;
  std::uint64_t events = 0;
  std::uint64_t mail_posted = 0;
  double mean_latency_us = 0.0;
  double p99_latency_us = 0.0;
  /// Per-shard window ledger (ShardedSim::window_stats()): wall-clock
  /// only, so it differs run to run while the digests above do not.
  std::vector<sim::WindowStats> window_stats;
};

class ShardedStormRun final {
 public:
  explicit ShardedStormRun(const ShardedStormParams& params);
  ~ShardedStormRun();
  ShardedStormRun(const ShardedStormRun&) = delete;
  ShardedStormRun& operator=(const ShardedStormRun&) = delete;

  /// Schedule workload chains and the (replicated) storm script on
  /// every shard.  Call exactly once; restore() replaces it.
  void arm();
  /// Advance all shards to `end` through conservative windows.
  void run_to(TimePs end);
  TimePs now() const;

  /// Serialize the run at the current window barrier: the shard-layout
  /// chunk followed by each shard's component + engine chunks.  Only
  /// legal between run_to calls (mailboxes quiesced — asserted).
  void save(snapshot::Writer& w);
  /// Restore into a freshly constructed (never armed) run built from
  /// the same params.  Refuses a snapshot taken at a different shard
  /// count or partition with a structured error.
  void restore(snapshot::Reader& r);

  /// Drain to params.run_until and merge the per-shard digests.
  ShardedStormResult finish();

  const sim::PartitionPlan& plan() const;

 private:
  class StormShard;

  ShardedStormParams params_;
  topo::BuiltTopology topo_;
  std::vector<topo::LinkId> mesh_;
  routing::EcmpRouting routing_;
  std::unique_ptr<sim::ShardedSim> sim_;
  bool armed_ = false;
};

/// Convenience: build, arm, run to the end, return the merged result.
ShardedStormResult run_sharded_storm(const ShardedStormParams& params);

}  // namespace quartz::chaos
