// One chaos storm as a checkpointable object.
//
// StormRun splits a storm into the phases a crash-recovery drill needs
// to interleave:
//
//   StormRun run(params);   // build everything structural (topology,
//                           // network, monitor, probes, scheduler)
//   run.arm();              // schedule the workload + storm script
//   run.run_to(t);          // drive the engine (checkpoint between)
//   run.save(w);            // serialize the full simulation state
//   ...                     // — or, in a fresh process —
//   StormRun resumed(params);
//   resumed.restore(r);     // instead of arm(): the engine snapshot
//                           // already holds every pending event
//   resumed.finish();       // drain + judge invariants
//
// The workload is a sim::RandomPairSource (one self-chained timer for
// the whole packet schedule), and the run keeps FNV-1a digests over
// its delivery and drop streams —
// the bit-exactness oracle: a run restored from a checkpoint at any
// event boundary must finish with digests identical to the
// uninterrupted run.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "chaos/soak.hpp"
#include "common/rng.hpp"
#include "routing/ecmp.hpp"
#include "routing/health_monitor.hpp"
#include "routing/oracle.hpp"
#include "sim/fault_injection.hpp"
#include "sim/fluid.hpp"
#include "sim/network.hpp"
#include "sim/probes.hpp"
#include "sim/workloads.hpp"
#include "telemetry/sink.hpp"
#include "topo/builders.hpp"

namespace quartz::chaos {

class StormRun final : public telemetry::TelemetrySink {
 public:
  explicit StormRun(const StormParams& params);
  StormRun(const StormRun&) = delete;
  StormRun& operator=(const StormRun&) = delete;

  /// Schedule the workload timer and the storm script.  Call exactly
  /// once, before driving the run; restore() replaces it entirely.
  void arm();

  /// Drive the engine to simulated time `end`.
  void run_to(TimePs end);
  /// Run at most one event with time <= `end`; returns whether one ran.
  /// The engine clock does NOT land on `end` when the queue runs dry —
  /// call run_to for that.  Crash drills use this to stop (and kill) at
  /// an exact event boundary.
  bool step(TimePs end) { return net_.step_until(end); }

  TimePs now() const { return net_.now(); }
  std::uint64_t events_dispatched() const { return net_.events_processed(); }

  /// Serialize the full storm state (engine, network, faults, monitor,
  /// probes, workload cursor, digests) into `w` as a chunk sequence.
  void save(snapshot::Writer& w) const;
  /// Restore into a freshly constructed (never armed) run built from
  /// the same params.  Refuses snapshots from different storm params.
  void restore(snapshot::Reader& r);

  /// Drain to params.run_until, harvest the report and judge the four
  /// storm invariants.
  StormReport finish();

  std::uint64_t delivery_digest() const { return delivery_digest_; }
  std::uint64_t drop_digest() const { return drop_digest_; }

 private:
  struct Delivery {
    TimePs when = 0;
    TimePs latency = 0;
    int hops = 0;
  };

  void on_delivery(const sim::Packet& packet, TimePs delivered, TimePs latency) override;
  void on_drop(const sim::Packet& packet, telemetry::DropReason reason, TimePs when) override;

  /// Handler registration order is part of the snapshot contract: the
  /// engine serializes handler pointers as indices into this map, so
  /// save and restore must build it identically (they do — it is a
  /// pure function of the construction mode).
  sim::HandlerMap handler_map() const;

  StormParams params_;
  topo::BuiltTopology topo_;
  std::vector<topo::LinkId> mesh_;
  routing::EcmpRouting routing_;
  routing::EcmpOracle oracle_;
  routing::HealthMonitor monitor_;
  sim::Network net_;
  std::unique_ptr<sim::ProbePlane> probes_;
  sim::FaultScheduler faults_;
  /// Hybrid-mode fluid background (null unless params.hybrid_background).
  /// Constructed after net_ so its bias vector attaches to a live
  /// network and detaches before the network dies.
  std::unique_ptr<sim::FluidBackground> fluid_;
  int task_ = -1;
  std::unique_ptr<sim::RandomPairSource> traffic_;
  bool armed_ = false;

  std::vector<Delivery> deliveries_;
  std::uint64_t delivery_digest_ = 14695981039346656037ull;  // FNV-1a offset
  std::uint64_t drop_digest_ = 14695981039346656037ull;
  std::uint64_t digest_deliveries_ = 0;
  std::uint64_t digest_drops_ = 0;
};

}  // namespace quartz::chaos
