// perfbench — run one benchmark workload and print its metrics.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--spans <path>]
//
// Prints one "metric <name> <value> <unit>" line per metric, the
// workload's model_digest, any failed output check, and, as the last
// line, one JSON object: {"correct", "attempted", "failed", "metrics"}.
// --trace 0 reports the end-to-end metrics, --trace 1 the per-layer
// ones (and writes the spans of the last traced rep to --spans).
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "harness.hpp"

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> "
               "[--spans <path>]\nworkloads:");
  for (const perfbench::Workload& w : perfbench::workloads()) std::fprintf(stderr, " %s", w.name);
  std::fprintf(stderr, "\n");
  return 2;
}

bool parse_u64(const std::string& text, std::uint64_t& out) {
  if (text.empty() || text.size() > 19 ||
      text.find_first_not_of("0123456789") != std::string::npos) {
    return false;
  }
  out = std::strtoull(text.c_str(), nullptr, 10);
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload_name;
  perfbench::MeasureOptions options;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return usage();
    const std::string value = argv[++i];
    std::uint64_t number = 0;
    if (arg == "--workload") {
      workload_name = value;
    } else if (arg == "--seed" && parse_u64(value, number)) {
      options.seed = number;
      have_seed = true;
    } else if (arg == "--seconds" && parse_u64(value, number) && number <= 3600) {
      options.seconds = static_cast<double>(number);
      have_seconds = true;
    } else if (arg == "--trace" && (value == "0" || value == "1")) {
      options.trace = value == "1";
      have_trace = true;
    } else if (arg == "--spans") {
      options.spans_path = value;
    } else {
      return usage();
    }
  }
  const perfbench::Workload* workload = perfbench::find_workload(workload_name);
  if (workload == nullptr || !have_seed || !have_seconds || !have_trace) return usage();

  perfbench::Outcome outcome;
  try {
    outcome = perfbench::measure(*workload, options);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", workload->name, e.what());
    return 1;
  }

  std::printf("perfbench %s seed=%llu trace=%d reps=%d\n", workload->name,
              static_cast<unsigned long long>(options.seed), options.trace ? 1 : 0,
              outcome.reps);
  for (const perfbench::Metric& m : outcome.metrics.all()) {
    std::printf("metric %s %.17g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  for (const perfbench::Metric& m : outcome.host.all()) {
    std::printf("host %s %.17g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("model_digest %s %016llx\n", workload->name,
              static_cast<unsigned long long>(outcome.model_digest));
  for (const std::string& message : outcome.messages) {
    std::printf("check FAILED: %s\n", message.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              outcome.correct ? "true" : "false",
              static_cast<unsigned long long>(outcome.attempted),
              static_cast<unsigned long long>(outcome.failed));
  const auto& all = outcome.metrics.all();
  for (std::size_t i = 0; i < all.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i == 0 ? "" : ", ",
                all[i].name.c_str(), all[i].value, all[i].unit.c_str());
  }
  std::printf("}}\n");
  return 0;
}
