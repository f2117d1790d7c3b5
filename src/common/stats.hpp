// Streaming and sample-based statistics used by the simulator and the
// benchmark report generators: Welford running moments, percentile
// estimation from retained samples and normal confidence intervals (the
// paper reports 95% CIs for Fig. 14).
#pragma once

#include <cstddef>
#include <utility>
#include <vector>

namespace quartz {

/// Welford online mean/variance accumulator. O(1) space.
class RunningStats {
 public:
  void add(double x);
  void merge(const RunningStats& other);

  std::size_t count() const { return count_; }
  bool empty() const { return count_ == 0; }
  double mean() const;
  /// Unbiased sample variance; 0 for fewer than two samples.
  double variance() const;
  double stddev() const;
  double min() const;
  double max() const;

 private:
  std::size_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Retains every sample; supports exact percentiles. Use for per-packet
/// latency collections (bounded by simulated packet counts).
class SampleSet {
 public:
  void add(double x);
  void reserve(std::size_t n) { samples_.reserve(n); }

  std::size_t count() const { return samples_.size(); }
  bool empty() const { return samples_.empty(); }
  double mean() const;
  double stddev() const;
  double min() const;
  double max() const;
  /// Exact percentile via nearest-rank on the sorted samples; p in [0,100].
  double percentile(double p) const;
  double median() const { return percentile(50.0); }
  double confidence_half_width(double level = 0.95) const;

  const std::vector<double>& samples() const { return samples_; }

  /// Replace the retained samples wholesale (checkpoint restore);
  /// invalidates the sorted cache.
  void assign(std::vector<double> samples) {
    samples_ = std::move(samples);
    sorted_.clear();
    sorted_valid_ = false;
  }

 private:
  void ensure_sorted() const;

  std::vector<double> samples_;
  mutable std::vector<double> sorted_;
  mutable bool sorted_valid_ = false;
};

}  // namespace quartz
