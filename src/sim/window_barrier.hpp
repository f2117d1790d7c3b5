// The sharded engine's window barrier.
//
// Every worker of a ShardedSim meets every other worker once per
// conservative window, thousands of times per simulated millisecond.
// A window holds only tens of microseconds of event work, so the cost
// that matters is how fast a waiter notices the last arrival.  A
// futex park and wake-up costs several microseconds, about a quarter
// of a two-shard storm's window.
//
// WindowBarrier is a sense-reversing central barrier: one arrival
// counter and one phase word whose low bit is the sense.  The last
// arriver resets the counter and flips the phase; waiters watch the
// phase.  A waiter first spins — pausing, then yielding — for about
// one window's work, then parks on std::atomic::wait.  It spins only when
// barrier_spins() says every party has a hardware thread of its own —
// with more parties than hardware threads, a spinning waiter burns the
// very core the straggler it waits for needs in order to arrive, so
// the barrier parks at once instead.
//
// Ordering: everything a party wrote before arrive_and_wait() is
// visible to every party after it returns (acq_rel on the counter,
// release/acquire on the phase), like std::barrier.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>

namespace quartz::sim {

/// The spin/park rule: spin only while every one of `parties` threads
/// can hold a hardware thread.  A host that cannot report its thread
/// count (0) parks.  Pure in its arguments so it can be tested.
constexpr bool barrier_spins(int parties, unsigned hardware_threads) {
  return parties > 0 && hardware_threads > 0 &&
         static_cast<unsigned>(parties) <= hardware_threads;
}

class WindowBarrier final {
 public:
  /// How long a waiter spins before it parks: about one window of
  /// event work on the storm fabrics (20-30 µs), with headroom.
  static constexpr std::chrono::microseconds kSpinBudget{50};

  /// `spin` picks spin-then-park (true) or park at once (false);
  /// ShardedSim passes barrier_spins(shards, hardware threads).
  WindowBarrier(int parties, bool spin);
  WindowBarrier(const WindowBarrier&) = delete;
  WindowBarrier& operator=(const WindowBarrier&) = delete;

  /// Block until all parties of the current phase have arrived.
  void arrive_and_wait();

 private:
  const int parties_;
  const bool spin_;
  // Arrivals still missing in this phase.  Kept off the phase word's
  // cache line so spinning waiters do not slow the arrivals.
  alignas(64) std::atomic<int> remaining_;
  // Completed phases; its low bit is the sense.  32 bits so that
  // std::atomic::wait maps straight onto a futex.
  alignas(64) std::atomic<std::uint32_t> phase_{0};
};

}  // namespace quartz::sim
