#include "sim/sweep.hpp"

namespace quartz::sim {

std::uint64_t derive_seed(std::uint64_t root_seed, std::uint64_t point) {
  // SplitMix64 finalizer over a golden-ratio stride from the root: the
  // same scheme Rng uses to expand one seed into decorrelated state.
  std::uint64_t z = root_seed + 0x9E3779B97F4A7C15ull * (point + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

int resolve_jobs(int jobs) {
  if (jobs > 0) return jobs;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? static_cast<int>(hw) : 1;
}

}  // namespace quartz::sim
