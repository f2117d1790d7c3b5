#include "sim/window_barrier.hpp"

#include <thread>

#include "common/check.hpp"

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#endif

namespace quartz::sim {

namespace {

// Spins that only pause before the rest of the budget yields.
constexpr unsigned kPauseSpins = 256;

inline void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  _mm_pause();
#elif defined(__aarch64__)
  asm volatile("yield" ::: "memory");
#endif
}

}  // namespace

WindowBarrier::WindowBarrier(int parties, bool spin)
    : parties_(parties), spin_(spin), remaining_(parties) {
  QUARTZ_REQUIRE(parties > 0, "a barrier needs at least one party");
}

void WindowBarrier::arrive_and_wait() {
  // The phase cannot advance before this party arrives, so the value
  // read here is the phase this arrival belongs to.
  const std::uint32_t phase = phase_.load(std::memory_order_acquire);
  if (remaining_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    // Last arrival: re-arm the counter, then release the waiters.  A
    // party can only arrive at the next phase after it has seen the
    // new phase, so it also sees the re-armed counter.
    remaining_.store(parties_, std::memory_order_relaxed);
    phase_.store(phase + 1, std::memory_order_release);
    phase_.notify_all();  // no syscall unless a waiter has parked
    return;
  }
  if (spin_) {
    using Clock = std::chrono::steady_clock;
    const Clock::time_point deadline = Clock::now() + kSpinBudget;
    for (unsigned spins = 1;; ++spins) {
      if (phase_.load(std::memory_order_acquire) != phase) return;
      // Pause first; past that, yield so a straggler that shares this
      // core (a loaded host) can run and arrive.
      if (spins < kPauseSpins) {
        cpu_relax();
      } else {
        std::this_thread::yield();
      }
      // A clock read costs tens of pauses; check it sparsely.
      if (spins % 32 == 0 && Clock::now() >= deadline) break;
    }
  }
  while (phase_.load(std::memory_order_acquire) == phase) {
    phase_.wait(phase, std::memory_order_acquire);
  }
}

}  // namespace quartz::sim
