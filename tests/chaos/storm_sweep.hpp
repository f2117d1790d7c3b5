// Seeded sweeps of chaos storms: the nightly soak and the jobs
// invariance checks run many storms as one batch.
#pragma once

#include <vector>

#include "chaos/soak.hpp"

namespace quartz::chaos {

/// Run `storms` storms with seeds base.seed, base.seed+1, ... — the
/// seeded sweep CI runs nightly.  Each storm is a pure function of its
/// params, so the sweep shards across `jobs` worker threads (one
/// engine per worker, sim::SweepRunner) and the report vector is
/// byte-identical for every jobs value; jobs <= 0 uses every hardware
/// thread.
std::vector<StormReport> run_sweep(const StormParams& base, int storms, int jobs = 1);

}  // namespace quartz::chaos
