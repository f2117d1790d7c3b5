// Shared scaffolding for the bench binaries.
//
// Every binary under bench/ regenerates one of the paper's tables or
// figures: it first prints the reproduction (the same rows/series the
// paper reports) and then runs its google-benchmark micro-measurements
// of the underlying solver/simulator.
//
// Besides the console text, each binary emits a machine-readable
// BENCH_<id>.json capturing the reproduction rows, telemetry rollups
// (latency decompositions, metric registries, time-series buckets) and
// the google-benchmark timings — one self-contained artifact per
// figure.  See docs/observability.md for the schema.
//
// Flags (consumed before google-benchmark sees argv):
//   --report-dir=<dir>   where BENCH_<id>.json is written (default ".")
//   --no-report          skip writing the JSON artifact
//   --jobs=<n>           worker threads for the binary's sweep loops
//                        (sim::SweepRunner; 0 = all hardware threads,
//                        default 1).  Results are byte-identical for
//                        every value — jobs only changes wall-clock.
#pragma once

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "common/table.hpp"
#include "telemetry/export.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/sampler.hpp"
#include "telemetry/trace.hpp"

namespace quartz::bench {

inline void print_banner(const std::string& id, const std::string& title) {
  std::printf("\n================================================================\n");
  std::printf("%s — %s\n", id.c_str(), title.c_str());
  std::printf("  (Quartz, SIGCOMM 2014 reproduction)\n");
  std::printf("================================================================\n");
}

/// Collects the reproduction's structured data alongside the console
/// output and writes BENCH_<id>.json at exit.  One per process.
class Report {
 public:
  static Report& instance() {
    static Report report;
    return report;
  }

  /// Strip report flags from argv (before benchmark::Initialize) and
  /// remember the program name.  Returns false on a malformed flag.
  bool parse_args(int* argc, char** argv) {
    if (*argc > 0) {
      program_ = argv[0];
      const std::size_t slash = program_.find_last_of('/');
      if (slash != std::string::npos) program_ = program_.substr(slash + 1);
    }
    int out = 1;
    for (int i = 1; i < *argc; ++i) {
      const char* arg = argv[i];
      if (std::strcmp(arg, "--no-report") == 0) {
        enabled_ = false;
      } else if (std::strncmp(arg, "--report-dir=", 13) == 0) {
        directory_ = arg + 13;
        if (directory_.empty()) {
          std::fprintf(stderr, "--report-dir needs a value\n");
          return false;
        }
      } else if (std::strncmp(arg, "--jobs=", 7) == 0) {
        char* end = nullptr;
        const long value = std::strtol(arg + 7, &end, 10);
        if (end == arg + 7 || *end != '\0' || value < 0) {
          std::fprintf(stderr, "--jobs needs a non-negative integer\n");
          return false;
        }
        jobs_ = static_cast<int>(value);
      } else {
        argv[out++] = argv[i];
      }
    }
    *argc = out;
    return true;
  }

  /// Worker threads for the binary's sweep loops (--jobs; 0 = all
  /// hardware threads).  Feed this to sim::SweepOptions::jobs.
  int jobs() const { return jobs_; }

  /// Print the banner and name the artifact (BENCH_<id>.json).
  void open(const std::string& id, const std::string& title) {
    id_ = id;
    title_ = title;
    print_banner(id, title);
  }

  void note(const std::string& note) {
    std::printf("note: %s\n", note.c_str());
    notes_.push_back(note);
  }

  /// Print a reproduction table and capture its rows in `section`.
  /// Cells that parse fully as numbers are exported as numbers.
  void add_table(const std::string& section, const Table& table) {
    std::printf("%s\n", table.to_text().c_str());
    Section& s = section_named(section);
    for (const auto& row : table.data()) {
      telemetry::JsonRow out;
      out.reserve(row.size());
      for (std::size_t c = 0; c < row.size(); ++c) {
        const std::string& name = c < table.header().size() ? table.header()[c] : "";
        out.emplace_back(name, cell_value(row[c]));
      }
      s.rows.push_back(std::move(out));
    }
  }

  /// Capture one structured row without printing anything.
  void add_row(const std::string& section, telemetry::JsonRow row) {
    section_named(section).rows.push_back(std::move(row));
  }

  /// Capture a latency decomposition labelled `label` (one row).
  void add_decomposition(const std::string& section, const std::string& label,
                         const telemetry::DecompositionSummary& summary) {
    telemetry::JsonRow row = summary.to_row();
    row.insert(row.begin(), {"label", telemetry::JsonValue(label)});
    section_named(section).rows.push_back(std::move(row));
  }

  /// Capture a sampler's time-series (one row per bucket; the hottest
  /// lightpath direction is flattened into hottest_* columns).
  void add_timeline(const std::string& section, const std::vector<telemetry::BucketSummary>& buckets) {
    Section& s = section_named(section);
    for (const telemetry::BucketSummary& bucket : buckets) {
      telemetry::JsonRow row = bucket.to_row();
      if (!bucket.hottest.empty()) {
        const telemetry::LinkActivity& hot = bucket.hottest.front();
        row.emplace_back("hottest_link", telemetry::JsonValue(static_cast<std::int64_t>(hot.link)));
        row.emplace_back("hottest_direction", telemetry::JsonValue(hot.direction));
        row.emplace_back("hottest_utilization", telemetry::JsonValue(hot.utilization));
      }
      s.rows.push_back(std::move(row));
    }
  }

  /// Attach a metric registry dump to the artifact (exported whole
  /// under "metrics" at write time; last call wins).
  void set_metrics(const telemetry::MetricRegistry* registry) { metrics_ = registry; }

  void add_benchmark_timing(const std::string& name, double real_time, double cpu_time,
                            const std::string& unit, std::int64_t iterations, bool errored) {
    timings_.push_back({name, real_time, cpu_time, unit, iterations, errored});
  }

  /// Write BENCH_<id>.json (no-op when --no-report or open() was never
  /// called).  Returns the path written, or "" when skipped.
  std::string write() const {
    if (!enabled_ || id_.empty()) return "";
    const std::string path = directory_ + "/BENCH_" + id_ + ".json";
    std::ofstream os(path);
    if (!os) {
      std::fprintf(stderr, "cannot write %s\n", path.c_str());
      return "";
    }
    telemetry::JsonWriter w(os, /*pretty=*/true);
    w.begin_object();
    w.kv("schema", "quartz-bench-report/1");
    w.kv("id", id_);
    w.kv("title", title_);
    w.kv("generated_by", program_);
    w.key("notes").begin_array();
    for (const std::string& note : notes_) w.value(note);
    w.end_array();
    w.key("sections").begin_array();
    for (const Section& s : sections_) {
      w.begin_object();
      w.kv("name", s.name);
      w.key("rows").begin_array();
      for (const telemetry::JsonRow& row : s.rows) telemetry::write_row(w, row);
      w.end_array();
      w.end_object();
    }
    w.end_array();
    if (metrics_ != nullptr) {
      w.key("metrics");
      metrics_->write_json(w);
    }
    w.key("benchmarks").begin_array();
    for (const Timing& t : timings_) {
      w.begin_object();
      w.kv("name", t.name);
      w.kv("real_time", t.real_time);
      w.kv("cpu_time", t.cpu_time);
      w.kv("time_unit", t.unit);
      w.kv("iterations", t.iterations);
      w.kv("error", t.errored);
      w.end_object();
    }
    w.end_array();
    w.end_object();
    os << '\n';
    std::printf("\nreport: %s\n", path.c_str());
    return path;
  }

 private:
  struct Section {
    std::string name;
    std::vector<telemetry::JsonRow> rows;
  };
  struct Timing {
    std::string name;
    double real_time;
    double cpu_time;
    std::string unit;
    std::int64_t iterations;
    bool errored;
  };

  Section& section_named(const std::string& name) {
    for (Section& s : sections_) {
      if (s.name == name) return s;
    }
    sections_.push_back({name, {}});
    return sections_.back();
  }

  static telemetry::JsonValue cell_value(const std::string& cell) {
    if (!cell.empty()) {
      char* end = nullptr;
      const double v = std::strtod(cell.c_str(), &end);
      if (end != nullptr && *end == '\0') return telemetry::JsonValue(v);
    }
    return telemetry::JsonValue(cell);
  }

  bool enabled_ = true;
  int jobs_ = 1;
  std::string directory_ = ".";
  std::string program_;
  std::string id_;
  std::string title_;
  std::vector<std::string> notes_;
  std::vector<Section> sections_;
  const telemetry::MetricRegistry* metrics_ = nullptr;
  std::vector<Timing> timings_;
};

/// Prints to the console exactly like the default reporter while also
/// capturing each run's timings into the Report.
class TimingCollector : public ::benchmark::ConsoleReporter {
 public:
  void ReportRuns(const std::vector<Run>& runs) override {
    for (const Run& run : runs) {
      Report::instance().add_benchmark_timing(
          run.benchmark_name(), run.GetAdjustedRealTime(), run.GetAdjustedCPUTime(),
          ::benchmark::GetTimeUnitString(run.time_unit), run.iterations, run.error_occurred);
    }
    ConsoleReporter::ReportRuns(runs);
  }
};

inline void print_note(const std::string& note) { Report::instance().note(note); }

/// The distribution of per-pair wall-clock ratios from paired_ratio().
struct PairedRatio {
  std::vector<double> ratios;  ///< time(a) / time(b), one per pair, in run order
  double median = 0;
  double q1 = 0;  ///< lower quartile
  double q3 = 0;  ///< upper quartile
};

/// Time `a` and `b` alternately (A B A B ...), `pairs` runs of each, and
/// return the median of the per-pair ratios time(a) / time(b) with its
/// quartiles.  Each ratio compares two back-to-back runs, so host drift
/// slower than one pair cancels instead of moving the result; a ratio
/// above 1 means `b` is faster.
template <typename A, typename B>
PairedRatio paired_ratio(int pairs, A&& a, B&& b) {
  auto seconds = [](auto& fn) {
    const auto start = std::chrono::steady_clock::now();
    fn();
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  };
  PairedRatio out;
  for (int i = 0; i < pairs; ++i) {
    const double ta = seconds(a);
    const double tb = seconds(b);
    out.ratios.push_back(tb > 0 ? ta / tb : 0.0);
  }
  std::vector<double> sorted = out.ratios;
  std::sort(sorted.begin(), sorted.end());
  // Linear interpolation between closest ranks.
  auto quantile = [&sorted](double q) {
    if (sorted.empty()) return 0.0;
    const double rank = q * static_cast<double>(sorted.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(rank);
    const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
    return sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - static_cast<double>(lo));
  };
  out.median = quantile(0.5);
  out.q1 = quantile(0.25);
  out.q3 = quantile(0.75);
  return out;
}

/// Standard main body: report first, micro-benchmarks second, then the
/// BENCH_<id>.json artifact.
#define QUARTZ_BENCH_MAIN(report_fn)                                     \
  int main(int argc, char** argv) {                                      \
    if (!::quartz::bench::Report::instance().parse_args(&argc, argv)) {  \
      return 1;                                                          \
    }                                                                    \
    ::benchmark::Initialize(&argc, argv);                                \
    if (::benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;  \
    report_fn();                                                         \
    ::quartz::bench::TimingCollector collector;                          \
    ::benchmark::RunSpecifiedBenchmarks(&collector);                     \
    ::quartz::bench::Report::instance().write();                         \
    return 0;                                                            \
  }

}  // namespace quartz::bench
