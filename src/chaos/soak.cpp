#include "chaos/soak.hpp"

#include <sstream>

#include "chaos/storm_run.hpp"
#include "common/check.hpp"
#include "snapshot/io.hpp"

namespace quartz::chaos {

std::string StormReport::summary() const {
  std::ostringstream os;
  os << "storm seed=" << seed
     << " mode=" << (mode == DetectionMode::kHealthMonitor ? "monitor" : "fixed-delay")
     << " sent=" << sent << " delivered=" << delivered << " drops[queue=" << queue_drops
     << " down=" << link_down_drops << " corrupt=" << corrupted_drops << "] cuts=" << cuts
     << " degradations=" << degradations << " probes=" << probes << " deaths=" << deaths
     << " damped=" << damped_recoveries << " max_hops=" << max_hops << "/" << hop_bound
     << " latency_us=" << baseline_mean_us << "->" << tail_mean_us;
  if (fluid_epochs > 0) os << " fluid_epochs=" << fluid_epochs;
  os << (passed() ? " PASS" : " FAIL");
  for (const std::string& v : violations) os << "\n  violated: " << v;
  return os.str();
}

StormReport run_storm(const StormParams& params) {
  StormRun run(params);
  run.arm();
  if (!params.restore_rehearsal) return run.finish();

  // Rehearsal: drive to mid-storm, snapshot through an in-memory
  // round trip (same validation path as a file), restore into a fresh
  // run and finish there.  Callers compare against the uninterrupted
  // report to prove bit-exactness.
  run.run_to(params.storm_start + (params.storm_end - params.storm_start) / 2);
  snapshot::Writer writer;
  run.save(writer);
  std::string error;
  auto reader = snapshot::Reader::from_bytes(snapshot::file_bytes(writer, 0), &error);
  QUARTZ_CHECK(reader.has_value(), "mid-storm snapshot failed validation: " + error);
  StormRun resumed(params);
  resumed.restore(*reader);
  return resumed.finish();
}

}  // namespace quartz::chaos
