// Runs one workload for a time budget and turns its reps into the
// reported metrics.
//
// Untraced: reps repeat until the budget is spent (at least three); the
// end-to-end metrics are medians over them, with each rep's timings
// scaled to the nominal host speed by the host reference taken just
// before it (ledger.hpp).  Traced: each cycle runs an untraced rep, a
// traced rep and the workload's companion pass (the capture-off,
// shards=1 or fluid-off variant); the per-layer metrics are medians over
// the traced reps, and the ratios are medians over the cycles.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "ledger.hpp"
#include "workloads.hpp"

namespace perfbench {

struct MeasureOptions {
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool small = false;
  /// Traced runs write the last traced rep's spans here (empty = skip).
  std::string spans_path;
};

struct Outcome {
  bool correct = false;
  std::uint64_t attempted = 0;  ///< model operations over every rep
  std::uint64_t failed = 0;     ///< operations of reps whose checks failed
  std::uint64_t model_digest = 0;
  int reps = 0;
  Metrics metrics;  ///< end-to-end (untraced) or per-layer (traced)
  /// Untraced only: the unscaled timings and the host reference.
  Metrics host;
  std::vector<std::string> messages;  ///< check failures, deduplicated
};

Outcome measure(const Workload& workload, const MeasureOptions& options);

}  // namespace perfbench
