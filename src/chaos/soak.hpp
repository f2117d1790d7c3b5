// Deterministic chaos-soak harness: randomized fault storms against a
// live workload, with machine-checked invariants at quiescence.
//
// Each storm builds a Quartz ring fabric, drives a steady random-pair
// packet workload, and — inside a bounded storm window — throws every
// fault class this codebase models at it at once:
//
//  * scripted fiber cuts with overlapping repair windows (exercising
//    the reference-counted down-state),
//  * amplifier failures and transceiver aging (gray failures whose
//    drop probabilities come from the optical power budget:
//    margin → Q → BER → packet loss),
//  * scripted link flapping faster than detection converges, and
//  * Poisson cut/repair churn across the whole mesh.
//
// Every fault is repaired before the quiescence point.  After the run
// drains, the harness checks four invariants:
//
//  1. conservation — every packet sent is either delivered or counted
//     in exactly one per-reason drop bucket;
//  2. hop bound — no delivered packet crossed more switches than the
//     mesh diameter allows even under maximal deflection (no loops);
//  3. convergence — the detector's view (HealthMonitor or fixed-delay
//     FailureView) agrees with the physical link state on every link;
//  4. latency recovery — post-storm delivery latency returns to the
//     pre-storm baseline.
//
// Storms are pure functions of their seed: a failing seed from CI
// reproduces locally bit for bit.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/units.hpp"

namespace quartz::chaos {

/// How the routing plane learns about failures during the storm.
enum class DetectionMode {
  kHealthMonitor,  ///< probe-based HealthMonitor with flap damping
  kFixedDelay,     ///< PR-1 omniscient fixed-delay FailureView
};

/// Knobs of one randomized fault storm.  The defaults describe a storm
/// that a healthy simulator must survive: all faults land inside
/// [storm_start, storm_end] and are repaired before `quiesce_at`.
struct StormParams {
  std::uint64_t seed = 1;
  DetectionMode mode = DetectionMode::kHealthMonitor;

  // Fabric.
  std::size_t switches = 8;
  int hosts_per_switch = 2;

  // Workload: `packets` random host pairs at a fixed cadence.
  int packets = 20'000;
  TimePs packet_gap = microseconds(10);
  Bits packet_size = bytes(400);

  // Storm window.  Scripted faults strike inside it; everything is
  // repaired strictly before `quiesce_at`.
  TimePs storm_start = milliseconds(20);
  TimePs storm_end = milliseconds(120);
  TimePs quiesce_at = milliseconds(160);
  /// Drain horizon; must leave room after `quiesce_at` for hold-downs
  /// to expire and the workload tail to complete.
  TimePs run_until = milliseconds(400);

  // Storm composition.
  int cuts = 3;                  ///< scripted cut windows (may overlap on a link)
  int amplifier_failures = 1;    ///< span-wide gray failures
  int transceiver_agings = 2;    ///< single-lightpath gray failures
  int flapping_links = 1;        ///< links that bounce up/down
  bool poisson_churn = true;     ///< background Poisson cut/repair noise

  // Detection.
  TimePs probe_interval = microseconds(10);
  TimePs fixed_detection_delay = microseconds(500);

  /// Tail latency may exceed the pre-storm baseline by this factor
  /// before the recovery invariant fails.
  double latency_tolerance = 0.25;

  /// Rehearse crash recovery inside the run: snapshot mid-storm,
  /// restore into a fresh StormRun, and finish there.  The report
  /// (digests included) must be identical to the uninterrupted run —
  /// sweeping this across jobs exercises checkpoint/restore under the
  /// parallel runner.
  bool restore_rehearsal = false;

  /// Run the storm in hybrid mode: a sim::FluidBackground evolves a
  /// deterministic set of host-pair background demands over the same
  /// fabric, so its queueing bias (and its epoch timer chain) ride the
  /// storm, the faults, and every checkpoint.  The fluid digest joins
  /// the report's bit-exactness oracle.
  bool hybrid_background = false;
};

/// Pass/fail per invariant (see file comment for definitions).
struct InvariantReport {
  bool conservation = false;
  bool hop_bound = false;
  bool converged = false;
  bool latency_recovered = false;

  bool all() const { return conservation && hop_bound && converged && latency_recovered; }
};

/// Everything one storm observed, plus the invariant verdicts.
struct StormReport {
  std::uint64_t seed = 0;
  DetectionMode mode = DetectionMode::kHealthMonitor;

  std::uint64_t sent = 0;
  std::uint64_t delivered = 0;
  std::uint64_t queue_drops = 0;
  std::uint64_t link_down_drops = 0;
  std::uint64_t corrupted_drops = 0;

  std::uint64_t cuts = 0;
  std::uint64_t repairs = 0;
  std::uint64_t degradations = 0;
  std::uint64_t restorations = 0;

  std::uint64_t probes = 0;
  std::uint64_t missed_probes = 0;
  std::uint64_t deaths = 0;
  std::uint64_t revivals = 0;
  std::uint64_t damped_recoveries = 0;

  int max_hops = 0;
  int hop_bound = 0;
  double baseline_mean_us = 0;
  double tail_mean_us = 0;

  /// Bit-exactness oracle (FNV-1a over the delivery and drop streams)
  /// plus engine progress — checkpoint/restore equality compares these.
  std::uint64_t delivery_digest = 0;
  std::uint64_t drop_digest = 0;
  std::uint64_t events_dispatched = 0;
  /// Hybrid-mode fluid witness (zero unless hybrid_background was set):
  /// epochs solved and the FNV-1a digest over every epoch's biases.
  std::uint64_t fluid_epochs = 0;
  std::uint64_t fluid_digest = 0;

  InvariantReport invariants;
  /// Human-readable description of each violated invariant (empty when
  /// the storm passed).
  std::vector<std::string> violations;

  bool passed() const { return invariants.all(); }
  /// One-line summary for logs.
  std::string summary() const;
};

/// Run one storm to completion and judge its invariants.
StormReport run_storm(const StormParams& params);

}  // namespace quartz::chaos
