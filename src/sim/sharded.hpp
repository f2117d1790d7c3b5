// Conservative time-windowed parallel driver: ONE simulation, many
// cores.
//
// SweepRunner parallelizes across runs; this file parallelizes inside
// a run.  plan_partition() splits the fabric into shards, each shard
// gets its own Network + EventQueue on a dedicated worker thread, and
// the workers advance in lockstep windows bounded by the partition
// lookahead W (the minimum propagation over cut links):
//
//     while (cursor < end)             // strict windows
//       target = min(cursor + W, end)
//       every shard: run events with time <  target
//       barrier                    // WindowBarrier (window_barrier.hpp)
//       every shard: drain inbox mailboxes into the engine
//       cursor = target
//     every shard: run events with time <= end   // the inclusive tail
//     barrier; drain                             // entries now > end
//
// Why this is safe: a cross-shard transit generated by an event at
// time t lands (head arrival) at t + propagation >= t + W, so every
// entry a shard can receive for window k was posted by the end of
// window k-1 and is drained at the barrier before window k runs.  One
// barrier per window suffices even though producers race ahead: an
// entry drained "early" (posted by a peer already executing window
// k+1) carries time >= target + W, beyond anything window k+1 runs.
//
// Why it is deterministic: each shard's execution is a pure function
// of its traffic script, the replicated control-plane timeline, and
// its mailbox entries — and the engine orders every event by
// (time, stamp, seq) where the stamp is a hash of the shard-count-
// invariant packet id (see ShardBinding).  The shards == 1 instance of
// this same driver is the reference: every other shard count must
// produce byte-identical digests, and the tests hold it to that.
//
// Threading contract: each shard's harness is CONSTRUCTED on its
// worker thread (the factory runs worker-side), so Network's
// owning-thread assert enforces per-shard confinement for free.
// visit() runs a closure on the owning worker, one shard at a time in
// shard order — the only way checkpointing and aggregation may touch
// shard state.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "sim/mailbox.hpp"
#include "sim/network.hpp"
#include "sim/partition.hpp"
#include "sim/window_barrier.hpp"

namespace quartz::snapshot {
class Writer;
class Reader;
}  // namespace quartz::snapshot

namespace quartz::sim {

/// One shard's simulation harness.  Implementations own their Network
/// (plus oracle, monitors, workload state, sinks...) and expose the
/// network so the driver can run windows and deliver mail.
class Shard {
 public:
  virtual ~Shard() = default;
  virtual Network& network() = 0;
};

/// Builder invoked ON THE WORKER THREAD for its shard.  It must
/// construct the harness there (thread confinement) and call
/// Network::bind_shard(binding) on the network it builds.
struct ShardContext {
  int shard = 0;
  const PartitionPlan* plan = nullptr;
  ShardBinding binding;
};
using ShardFactory = std::function<std::unique_ptr<Shard>(const ShardContext&)>;

/// One shard's window ledger: where its worker's wall clock went,
/// summed over every run_until call.  Costs two steady-clock reads per
/// window.  Wall-clock only: never part of a digest or a checkpoint.
struct WindowStats {
  std::uint64_t windows = 0;        ///< barrier phases: strict windows + tails
  std::uint64_t empty_windows = 0;  ///< windows that dispatched no event
  std::uint64_t mail_drained = 0;   ///< cross-shard transits taken from inboxes
  std::int64_t run_ns = 0;          ///< running events and draining mail
  std::int64_t wait_ns = 0;         ///< inside the barrier, spinning or parked

  double run_us_per_window() const;
  double wait_us_per_window() const;
};

/// Barrier wait over all wall clock the shards spent (run + wait).
double barrier_wait_share(const std::vector<WindowStats>& shards);
/// One line per shard: windows (empty), run and barrier wait per
/// window, mail drained — the CLIs' --shards report.
std::string window_ledger_text(const std::vector<WindowStats>& shards);

class ShardedSim final {
 public:
  /// Spawns plan.shards workers and builds one shard on each.  Throws
  /// (after shutting the workers down) if any factory throws.
  ShardedSim(PartitionPlan plan, const ShardFactory& factory);
  ShardedSim(const ShardedSim&) = delete;
  ShardedSim& operator=(const ShardedSim&) = delete;
  ~ShardedSim();

  /// Advance every shard to simulated time `end` (inclusive) through
  /// conservative windows.  On return all mailboxes are quiesced, so
  /// between run_until calls the run is at a checkpointable barrier.
  void run_until(TimePs end);

  /// Run `fn(shard_index, shard)` on each shard's owning worker,
  /// sequentially in shard order.  This is the checkpoint/aggregation
  /// doorway; it must not be called concurrently with run_until.
  void visit(const std::function<void(int, Shard&)>& fn);

  TimePs now() const { return cursor_; }
  const PartitionPlan& plan() const { return plan_; }
  /// Events dispatched across all shards so far.
  std::uint64_t events_processed();
  /// Cross-shard transits posted across all shards so far.
  std::uint64_t mail_posted();
  /// The per-shard window ledger, indexed by shard.  Like visit(), not
  /// concurrently with run_until.
  std::vector<WindowStats> window_stats() const;

  /// Write the shard-layout chunk ("SHRD": shard count, lookahead,
  /// window cursor, owner-map digest, strategy).  Pair with visit()
  /// calls that serialize each shard's content.
  void save_layout(snapshot::Writer& w) const;
  /// Validate a layout chunk against this run's plan and adopt its
  /// window cursor.  A snapshot taken at a different shard count (or a
  /// different owner map) is refused with a structured error rather
  /// than restored into divergence.
  void restore_layout(snapshot::Reader& r);

 private:
  enum class Command { kIdle, kRun, kVisit, kQuit };

  struct Worker {
    std::thread thread;
    std::mutex mutex;
    std::condition_variable cv;
    Command command = Command::kIdle;
    bool done = false;
    std::exception_ptr error;
    // kRun arguments.
    TimePs begin = 0;
    TimePs end = 0;
    // kVisit argument.
    const std::function<void(int, Shard&)>* visit_fn = nullptr;
    std::unique_ptr<Shard> shard;
    // Written by the worker during kRun, read by the driver after it.
    WindowStats stats;
  };

  void shutdown();
  void worker_main(int index);
  void run_windows(int index, TimePs begin, TimePs end);
  /// Returns the number of transits drained.
  std::uint64_t drain_inboxes(int index);
  /// Barriers a [begin, end] run takes: strict windows + the tail.
  /// Pure function of the arguments so every worker agrees on it.
  std::int64_t barrier_count(TimePs begin, TimePs end) const;
  void post(int index, Command command);
  void await(int index);
  /// Post to all, await all, rethrow the lowest-shard error.
  void round(Command command);

  PartitionPlan plan_;
  /// boxes_[producer * shards + consumer]; diagonal unused.
  std::vector<std::unique_ptr<Mailbox>> boxes_;
  /// Per-producer outbox pointer array handed to ShardBinding.
  std::vector<std::vector<Mailbox*>> outboxes_;
  std::vector<std::unique_ptr<Worker>> workers_;
  WindowBarrier barrier_;
  TimePs cursor_ = 0;
};

}  // namespace quartz::sim
