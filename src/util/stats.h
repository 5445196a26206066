// Statistics accumulators shared by the traffic analyzer, the evaluation
// harness, and the benches: running summaries, percentile/CDF builders,
// fixed-bin histograms, bucketed time series and EWMA smoothing.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "util/time.h"

namespace upbound {

/// Streaming count/mean/variance/min/max via Welford's algorithm.
class SummaryStats {
 public:
  void add(double x);

  std::size_t count() const { return count_; }
  double mean() const { return count_ == 0 ? 0.0 : mean_; }
  double variance() const;
  double stddev() const;
  double min() const { return count_ == 0 ? 0.0 : min_; }
  double max() const { return count_ == 0 ? 0.0 : max_; }
  double sum() const { return sum_; }

 private:
  std::size_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
  double sum_ = 0.0;
};

/// Collects raw samples and answers percentile / CDF queries. Memory is
/// O(samples); use Histogram when sample counts are unbounded.
class CdfBuilder {
 public:
  void add(double x) { samples_.push_back(x); dirty_ = true; }
  void reserve(std::size_t n) { samples_.reserve(n); }

  std::size_t count() const { return samples_.size(); }

  /// Percentile in [0, 100]. Linear interpolation between order statistics.
  double percentile(double pct) const;

  /// Fraction of samples <= x.
  double fraction_below(double x) const;

  /// Evenly spaced (x, cumulative fraction) points suitable for plotting;
  /// `points` > 1.
  std::vector<std::pair<double, double>> curve(std::size_t points) const;

  /// The samples in ascending order, element for element what std::sort
  /// gives. Large sample sets without NaNs are radix-sorted in linear
  /// time; the rest go through std::sort.
  const std::vector<double>& sorted() const;

 private:
  mutable std::vector<double> samples_;
  mutable bool dirty_ = false;
};

/// Fixed-width-bin histogram over [lo, hi); out-of-range samples clamp into
/// the edge bins so totals always match.
class Histogram {
 public:
  Histogram(double lo, double hi, std::size_t bins);

  void add(double x, std::uint64_t weight = 1);

  std::size_t bin_count() const { return counts_.size(); }
  std::uint64_t bin(std::size_t i) const { return counts_[i]; }
  double bin_lo(std::size_t i) const;
  double bin_hi(std::size_t i) const;
  std::uint64_t total() const { return total_; }

  /// Approximate percentile from bin boundaries.
  double percentile(double pct) const;

 private:
  double lo_;
  double width_;
  std::vector<std::uint64_t> counts_;
  std::uint64_t total_ = 0;
};

/// Accumulates per-interval values keyed by simulation time; used for the
/// throughput-vs-time series in Figs. 8 and 9. Bucket i covers
/// [i * width, (i + 1) * width) from the time origin, but only the range
/// between the first and last populated buckets is stored: a capture
/// stamped in Unix-epoch time costs O(span / width) memory.
class TimeSeries {
 public:
  explicit TimeSeries(Duration bucket_width);

  void add(SimTime t, double value);

  Duration bucket_width() const { return width_; }
  /// Index of the first stored bucket (0 when empty).
  std::size_t first_bucket() const { return first_; }
  /// One past the index of the last stored bucket (0 when empty).
  std::size_t bucket_count() const { return first_ + buckets_.size(); }
  /// Value of bucket i; 0 outside the stored range (the series is
  /// conceptually infinite and sparse).
  double bucket_value(std::size_t i) const {
    return i >= first_ && i - first_ < buckets_.size() ? buckets_[i - first_]
                                                       : 0.0;
  }
  SimTime bucket_start(std::size_t i) const;

  /// Sum over all buckets.
  double total() const;

  /// Bucket sums scaled by 1/width (per-second rates if values are counts)
  /// over the stored range: rates()[k] is bucket first_bucket() + k.
  std::vector<double> rates() const;

  /// Bucket-wise sum of `other` into this series; widths must match
  /// (throws std::invalid_argument otherwise). Used to merge per-shard
  /// series -- byte counts are integer-valued doubles far below 2^53, so
  /// the sums are exact and merge order cannot change the result.
  void add_series(const TimeSeries& other);

  /// Same width and the same value in every bucket.
  bool operator==(const TimeSeries& other) const;

 private:
  /// Bucket `index`, growing the stored range to cover it.
  double& bucket(std::size_t index);

  Duration width_;
  std::size_t first_ = 0;
  std::vector<double> buckets_;
};

/// Exponentially weighted moving average.
class Ewma {
 public:
  explicit Ewma(double alpha);

  void add(double x);
  double value() const { return value_; }
  bool empty() const { return !initialized_; }

 private:
  double alpha_;
  double value_ = 0.0;
  bool initialized_ = false;
};

/// Formats `x` with SI rate suffix, e.g. 146.7e6 -> "146.7 Mbps".
std::string format_bits_per_sec(double bits_per_sec);

}  // namespace upbound
