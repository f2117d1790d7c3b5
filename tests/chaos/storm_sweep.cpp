#include "chaos/storm_sweep.hpp"

#include "common/check.hpp"
#include "sim/sweep.hpp"

namespace quartz::chaos {

std::vector<StormReport> run_sweep(const StormParams& base, int storms, int jobs) {
  QUARTZ_REQUIRE(storms > 0, "a sweep needs at least one storm");
  // Seeds stay base.seed + i (not SweepRunner's derived seeds) so a
  // nightly failure reproduces with the exact seed it printed, as
  // before the sweep went parallel.
  std::vector<StormParams> points;
  points.reserve(static_cast<std::size_t>(storms));
  for (int i = 0; i < storms; ++i) {
    StormParams params = base;
    params.seed = base.seed + static_cast<std::uint64_t>(i);
    points.push_back(params);
  }
  sim::SweepRunner runner(sim::SweepOptions{jobs, base.seed});
  return runner.run(points, [](const StormParams& params) { return run_storm(params); });
}

}  // namespace quartz::chaos
