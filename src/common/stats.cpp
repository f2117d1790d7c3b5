#include "common/stats.hpp"

#include <algorithm>
#include <cmath>

#include "common/check.hpp"

namespace quartz {
namespace {

double z_for_level(double level) {
  // Two-sided normal quantiles for the levels the library supports.
  if (level >= 0.989) return 2.5758;
  if (level >= 0.949) return 1.9600;
  return 1.6449;  // 90%
}

}  // namespace

void RunningStats::add(double x) {
  if (count_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++count_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(count_);
  m2_ += delta * (x - mean_);
}

void RunningStats::merge(const RunningStats& other) {
  if (other.count_ == 0) return;
  if (count_ == 0) {
    *this = other;
    return;
  }
  const double n1 = static_cast<double>(count_);
  const double n2 = static_cast<double>(other.count_);
  const double delta = other.mean_ - mean_;
  mean_ += delta * n2 / (n1 + n2);
  m2_ += other.m2_ + delta * delta * n1 * n2 / (n1 + n2);
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
  count_ += other.count_;
}

double RunningStats::mean() const {
  QUARTZ_CHECK(count_ > 0, "mean of empty RunningStats");
  return mean_;
}

double RunningStats::variance() const {
  if (count_ < 2) return 0.0;
  return m2_ / static_cast<double>(count_ - 1);
}

double RunningStats::stddev() const { return std::sqrt(variance()); }

double RunningStats::min() const {
  QUARTZ_CHECK(count_ > 0, "min of empty RunningStats");
  return min_;
}

double RunningStats::max() const {
  QUARTZ_CHECK(count_ > 0, "max of empty RunningStats");
  return max_;
}

void SampleSet::add(double x) {
  samples_.push_back(x);
  sorted_valid_ = false;
}

void SampleSet::ensure_sorted() const {
  if (sorted_valid_) return;
  sorted_ = samples_;
  std::sort(sorted_.begin(), sorted_.end());
  sorted_valid_ = true;
}

double SampleSet::mean() const {
  QUARTZ_CHECK(!samples_.empty(), "mean of empty SampleSet");
  double sum = 0.0;
  for (double s : samples_) sum += s;
  return sum / static_cast<double>(samples_.size());
}

double SampleSet::stddev() const {
  if (samples_.size() < 2) return 0.0;
  const double m = mean();
  double m2 = 0.0;
  for (double s : samples_) m2 += (s - m) * (s - m);
  return std::sqrt(m2 / static_cast<double>(samples_.size() - 1));
}

double SampleSet::min() const {
  ensure_sorted();
  QUARTZ_CHECK(!sorted_.empty(), "min of empty SampleSet");
  return sorted_.front();
}

double SampleSet::max() const {
  ensure_sorted();
  QUARTZ_CHECK(!sorted_.empty(), "max of empty SampleSet");
  return sorted_.back();
}

double SampleSet::percentile(double p) const {
  QUARTZ_REQUIRE(p >= 0.0 && p <= 100.0, "percentile out of range");
  ensure_sorted();
  QUARTZ_CHECK(!sorted_.empty(), "percentile of empty SampleSet");
  if (sorted_.size() == 1) return sorted_.front();
  const double rank = p / 100.0 * static_cast<double>(sorted_.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, sorted_.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return sorted_[lo] * (1.0 - frac) + sorted_[hi] * frac;
}

double SampleSet::confidence_half_width(double level) const {
  if (samples_.size() < 2) return 0.0;
  return z_for_level(level) * stddev() / std::sqrt(static_cast<double>(samples_.size()));
}

}  // namespace quartz
