// Outside-in tracing for the benchmark: spans recorded around calls
// into the quartz libraries, plus the named metrics one run reports.
//
// Spans carry a name, start, end and parent; they are kept in memory
// and written out once, when the run ends.  A span's self time is its
// duration minus the time its direct children cover.  Nothing here
// reaches inside the libraries: a cost that no public call boundary
// separates (per-shard barrier wait, FIB versus oracle time within one
// packet, per-record encode cost) is invisible to this ledger.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// Seconds on the steady clock since the first call in this process.
double now_s();

/// A stopwatch over the steady clock.
class Stopwatch {
 public:
  Stopwatch() : start_(now_s()) {}
  double elapsed_s() const { return now_s() - start_; }

 private:
  double start_;
};

class Ledger {
 public:
  struct Span {
    std::string name;
    double start_s = 0.0;
    double end_s = 0.0;
    int parent = -1;  ///< index into spans(), -1 for a root
  };

  /// Open a span; it closes when the returned scope ends.  A null
  /// ledger makes the scope a no-op, so untraced runs pay nothing.
  class Scope {
   public:
    Scope(Ledger* ledger, const char* name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Ledger* ledger_;
    int index_ = -1;
  };

  const std::vector<Span>& spans() const { return spans_; }
  /// Summed duration of every span called `name`.
  double total_s(const std::string& name) const;
  /// Summed self time (duration minus direct children) of `name`.
  double self_s(const std::string& name) const;
  /// Durations of every span called `name`, in recording order.
  std::vector<double> durations_s(const std::string& name) const;

  /// Write every span as one JSON document to `path`.
  bool write_json(const std::string& path, const std::string& workload) const;

 private:
  std::vector<Span> spans_;
  std::vector<int> open_;  ///< stack of open span indices
};

/// One reported number: name, value and unit.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// An ordered set of metrics; set() replaces a metric of the same name.
class Metrics {
 public:
  void set(const std::string& name, double value, const std::string& unit);
  const Metric* find(const std::string& name) const;
  double value(const std::string& name) const;
  const std::vector<Metric>& all() const { return items_; }

 private:
  std::vector<Metric> items_;
};

/// Median of `values` (0 when empty).
double median(std::vector<double> values);
/// The p-th percentile (0..100) of `values`, nearest rank (0 when empty).
double percentile(std::vector<double> values, double p);

/// FNV-1a accumulation over the bytes of 64-bit words.
class Digest {
 public:
  void add(std::uint64_t word);
  void add_double(double value);
  std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 14695981039346656037ull;
};

/// Host-speed reference: seconds one fixed kernel owned by the benchmark
/// takes right now (a binary heap of event-like keys and a dependent
/// walk over a 4 MiB table, the two access patterns of the simulator).
/// A shared (virtualized) host can change speed by tens of percent over
/// seconds; timings scaled by this reference cancel that drift, while
/// changes to the quartz code leave the kernel untouched.
double host_reference_s();
/// The reference time the scaled metrics are expressed at.
inline constexpr double kReferenceNominalS = 0.045;

/// Peak resident set (VmHWM) of this process in MiB; 0 if unavailable.
double peak_rss_mib();
/// CPU seconds this process has used, all threads.
double process_cpu_s();

}  // namespace perfbench
