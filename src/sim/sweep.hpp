// Deterministic parallel sweep runner.
//
// Every Quartz experiment sweep — bench tables, replica studies, chaos
// storms — is a map over independent points, each a pure function of
// its parameters and a seed.  SweepRunner shards those points across a
// worker pool (std::thread, one engine per worker) and returns results
// IN POINT ORDER, so the merged output is byte-identical regardless of
// thread count or scheduling: parallelism changes wall-clock time and
// nothing else.
//
// Seeds derive deterministically from a root seed per point index
// (derive_seed, a SplitMix64 finalizer), never from a shared stream —
// a shared Rng advanced across points would make point N's randomness
// depend on which points ran before it.
//
// Thread-confinement contract: the point function must build everything
// it needs (Network, sinks, workloads) inside the call and return plain
// data.  Networks and telemetry sinks are confined to the worker that
// created them; nothing in this header shares simulation state across
// threads.  See docs/performance.md.
#pragma once

#include <atomic>
#include <cstdint>
#include <exception>
#include <mutex>
#include <optional>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/check.hpp"

namespace quartz::sim {

/// Deterministic per-point seed: a SplitMix64 finalizer over
/// (root, point), so distinct points get decorrelated streams and the
/// same (root, point) always maps to the same seed on every platform,
/// thread count, and run.
std::uint64_t derive_seed(std::uint64_t root_seed, std::uint64_t point);

/// <= 0 means "one worker per hardware thread".
int resolve_jobs(int jobs);

struct SweepOptions {
  /// Worker threads; 1 = run inline on the calling thread, <= 0 = use
  /// hardware concurrency.
  int jobs = 1;
  /// Root of the per-point seed derivation (SweepContext::seed).
  std::uint64_t root_seed = 1;
};

/// Handed to the point function alongside its point.
struct SweepContext {
  std::size_t index = 0;      ///< position in the point vector
  std::uint64_t seed = 0;     ///< derive_seed(root_seed, index)
};

class SweepRunner {
 public:
  explicit SweepRunner(SweepOptions options = {})
      : jobs_(resolve_jobs(options.jobs)), root_seed_(options.root_seed) {}

  int jobs() const { return jobs_; }
  std::uint64_t root_seed() const { return root_seed_; }
  std::uint64_t seed_for(std::size_t point) const { return derive_seed(root_seed_, point); }

  /// Map `fn` over `points`, sharded across the worker pool; results
  /// come back in point order.  `fn` is called as fn(point, ctx) when
  /// that compiles and fn(point) otherwise; it must be a pure function
  /// of (point, ctx) for the byte-identity guarantee to hold.  The
  /// first exception thrown by any point is rethrown here after all
  /// workers join.
  template <typename Point, typename Fn>
  auto run(const std::vector<Point>& points, Fn fn) {
    using R = std::remove_cv_t<std::remove_reference_t<decltype(invoke_point(
        fn, std::declval<const Point&>(), std::declval<SweepContext>()))>>;
    std::vector<std::optional<R>> slots(points.size());

    const std::size_t workers =
        std::min<std::size_t>(static_cast<std::size_t>(jobs_), points.size());
    if (workers <= 1) {
      for (std::size_t i = 0; i < points.size(); ++i) {
        slots[i].emplace(invoke_point(fn, points[i], SweepContext{i, seed_for(i)}));
      }
    } else {
      std::atomic<std::size_t> next{0};
      std::exception_ptr first_error;
      std::mutex error_mutex;
      std::vector<std::thread> pool;
      pool.reserve(workers);
      for (std::size_t w = 0; w < workers; ++w) {
        pool.emplace_back([&] {
          while (true) {
            const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
            if (i >= points.size()) return;
            try {
              slots[i].emplace(invoke_point(fn, points[i], SweepContext{i, seed_for(i)}));
            } catch (...) {
              const std::lock_guard<std::mutex> lock(error_mutex);
              if (!first_error) first_error = std::current_exception();
            }
          }
        });
      }
      for (std::thread& t : pool) t.join();
      if (first_error) std::rethrow_exception(first_error);
    }

    std::vector<R> out;
    out.reserve(points.size());
    for (std::optional<R>& slot : slots) {
      QUARTZ_CHECK(slot.has_value(), "sweep point produced no result");
      out.push_back(std::move(*slot));
    }
    return out;
  }

 private:
  template <typename Fn, typename Point>
  static decltype(auto) invoke_point(Fn& fn, const Point& point, SweepContext ctx) {
    if constexpr (std::is_invocable_v<Fn&, const Point&, SweepContext>) {
      return fn(point, ctx);
    } else {
      return fn(point);
    }
  }

  int jobs_;
  std::uint64_t root_seed_;
};

}  // namespace quartz::sim
