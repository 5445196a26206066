#include "util/stats.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdio>
#include <stdexcept>

namespace upbound {

void SummaryStats::add(double x) {
  if (count_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++count_;
  sum_ += x;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(count_);
  m2_ += delta * (x - mean_);
}

double SummaryStats::variance() const {
  return count_ < 2 ? 0.0 : m2_ / static_cast<double>(count_ - 1);
}

double SummaryStats::stddev() const { return std::sqrt(variance()); }

namespace {

/// Below this many samples std::sort beats the radix passes' fixed cost.
constexpr std::size_t kRadixMinSamples = 512;
constexpr int kRadixBits = 8;
constexpr int kRadixPasses = 64 / kRadixBits;
constexpr std::size_t kRadixBuckets = std::size_t{1} << kRadixBits;
constexpr std::uint64_t kSignBit = std::uint64_t{1} << 63;

/// Maps a non-NaN double to an unsigned key of the same order: negative
/// values have every bit flipped, non-negative ones only the sign bit.
/// (-0.0 sorts just before +0.0; the two compare equal as doubles.)
std::uint64_t order_key(double x) {
  const auto bits = std::bit_cast<std::uint64_t>(x);
  return (bits & kSignBit) != 0 ? ~bits : bits | kSignBit;
}

double from_order_key(std::uint64_t key) {
  return std::bit_cast<double>((key & kSignBit) != 0 ? key & ~kSignBit
                                                     : ~key);
}

/// LSD radix sort over order_key, kRadixBits per pass; a pass in which
/// every key has the same digit is skipped. Returns false, leaving
/// `samples` as it was, when a NaN is present. The scratch buffers are
/// freed on return.
bool radix_sort(std::vector<double>& samples) {
  const std::size_t n = samples.size();
  std::vector<std::uint64_t> keys(n);
  std::array<std::array<std::size_t, kRadixBuckets>, kRadixPasses> counts{};
  for (std::size_t i = 0; i < n; ++i) {
    if (std::isnan(samples[i])) return false;
    const std::uint64_t key = order_key(samples[i]);
    keys[i] = key;
    for (int pass = 0; pass < kRadixPasses; ++pass) {
      ++counts[pass][(key >> (pass * kRadixBits)) & (kRadixBuckets - 1)];
    }
  }
  std::vector<std::uint64_t> scratch(n);
  for (int pass = 0; pass < kRadixPasses; ++pass) {
    const int shift = pass * kRadixBits;
    auto& offsets = counts[pass];
    if (offsets[(keys[0] >> shift) & (kRadixBuckets - 1)] == n) continue;
    std::size_t sum = 0;
    for (std::size_t& c : offsets) {
      const std::size_t count = c;
      c = sum;
      sum += count;
    }
    for (const std::uint64_t key : keys) {
      scratch[offsets[(key >> shift) & (kRadixBuckets - 1)]++] = key;
    }
    keys.swap(scratch);
  }
  for (std::size_t i = 0; i < n; ++i) samples[i] = from_order_key(keys[i]);
  return true;
}

}  // namespace

const std::vector<double>& CdfBuilder::sorted() const {
  if (dirty_) {
    if (samples_.size() < kRadixMinSamples || !radix_sort(samples_)) {
      std::sort(samples_.begin(), samples_.end());
    }
    dirty_ = false;
  }
  return samples_;
}

double CdfBuilder::percentile(double pct) const {
  const auto& s = sorted();
  if (s.empty()) throw std::logic_error("CdfBuilder::percentile: no samples");
  if (pct <= 0.0) return s.front();
  if (pct >= 100.0) return s.back();
  const double pos = pct / 100.0 * static_cast<double>(s.size() - 1);
  const std::size_t idx = static_cast<std::size_t>(pos);
  const double frac = pos - static_cast<double>(idx);
  if (idx + 1 >= s.size()) return s.back();
  return s[idx] * (1.0 - frac) + s[idx + 1] * frac;
}

double CdfBuilder::fraction_below(double x) const {
  const auto& s = sorted();
  if (s.empty()) return 0.0;
  const auto it = std::upper_bound(s.begin(), s.end(), x);
  return static_cast<double>(it - s.begin()) / static_cast<double>(s.size());
}

std::vector<std::pair<double, double>> CdfBuilder::curve(
    std::size_t points) const {
  if (points < 2) throw std::invalid_argument("CdfBuilder::curve: points < 2");
  const auto& s = sorted();
  std::vector<std::pair<double, double>> out;
  if (s.empty()) return out;
  out.reserve(points);
  const double lo = s.front();
  const double hi = s.back();
  for (std::size_t i = 0; i < points; ++i) {
    const double x =
        lo + (hi - lo) * static_cast<double>(i) / static_cast<double>(points - 1);
    out.emplace_back(x, fraction_below(x));
  }
  return out;
}

Histogram::Histogram(double lo, double hi, std::size_t bins)
    : lo_(lo), width_((hi - lo) / static_cast<double>(bins)), counts_(bins, 0) {
  if (bins == 0 || hi <= lo) {
    throw std::invalid_argument("Histogram: need bins > 0 and hi > lo");
  }
}

void Histogram::add(double x, std::uint64_t weight) {
  double pos = (x - lo_) / width_;
  std::size_t idx;
  if (pos < 0.0) {
    idx = 0;
  } else if (pos >= static_cast<double>(counts_.size())) {
    idx = counts_.size() - 1;
  } else {
    idx = static_cast<std::size_t>(pos);
  }
  counts_[idx] += weight;
  total_ += weight;
}

double Histogram::bin_lo(std::size_t i) const {
  return lo_ + width_ * static_cast<double>(i);
}

double Histogram::bin_hi(std::size_t i) const {
  return lo_ + width_ * static_cast<double>(i + 1);
}

double Histogram::percentile(double pct) const {
  if (total_ == 0) throw std::logic_error("Histogram::percentile: empty");
  const double target = pct / 100.0 * static_cast<double>(total_);
  double run = 0.0;
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    run += static_cast<double>(counts_[i]);
    if (run >= target) {
      // Interpolate inside the bin.
      const double prev = run - static_cast<double>(counts_[i]);
      const double frac =
          counts_[i] == 0
              ? 0.0
              : (target - prev) / static_cast<double>(counts_[i]);
      return bin_lo(i) + frac * width_;
    }
  }
  return bin_hi(counts_.size() - 1);
}

TimeSeries::TimeSeries(Duration bucket_width) : width_(bucket_width) {
  if (width_.count_usec() <= 0) {
    throw std::invalid_argument("TimeSeries: bucket width must be positive");
  }
}

void TimeSeries::add(SimTime t, double value) {
  if (t.usec() < 0) return;  // before trace origin: ignore
  bucket(static_cast<std::size_t>(t.usec() / width_.count_usec())) += value;
}

double& TimeSeries::bucket(std::size_t index) {
  if (buckets_.empty()) {
    first_ = index;
  } else if (index < first_) {
    buckets_.insert(buckets_.begin(), first_ - index, 0.0);
    first_ = index;
  }
  if (index - first_ >= buckets_.size()) {
    buckets_.resize(index - first_ + 1, 0.0);
  }
  return buckets_[index - first_];
}

SimTime TimeSeries::bucket_start(std::size_t i) const {
  return SimTime::from_usec(static_cast<std::int64_t>(i) * width_.count_usec());
}

double TimeSeries::total() const {
  double sum = 0.0;
  for (double b : buckets_) sum += b;
  return sum;
}

void TimeSeries::add_series(const TimeSeries& other) {
  if (width_ != other.width_) {
    throw std::invalid_argument("TimeSeries::add_series: width mismatch");
  }
  for (std::size_t i = 0; i < other.buckets_.size(); ++i) {
    bucket(other.first_ + i) += other.buckets_[i];
  }
}

bool TimeSeries::operator==(const TimeSeries& other) const {
  const auto within = [](const TimeSeries& a, const TimeSeries& b) {
    for (std::size_t i = 0; i < a.buckets_.size(); ++i) {
      if (a.buckets_[i] != b.bucket_value(a.first_ + i)) return false;
    }
    return true;
  };
  return width_ == other.width_ && within(*this, other) &&
         within(other, *this);
}

std::vector<double> TimeSeries::rates() const {
  std::vector<double> out(buckets_.size());
  const double w = width_.to_sec();
  for (std::size_t i = 0; i < buckets_.size(); ++i) out[i] = buckets_[i] / w;
  return out;
}

Ewma::Ewma(double alpha) : alpha_(alpha) {
  if (alpha <= 0.0 || alpha > 1.0) {
    throw std::invalid_argument("Ewma: alpha must be in (0, 1]");
  }
}

void Ewma::add(double x) {
  if (!initialized_) {
    value_ = x;
    initialized_ = true;
  } else {
    value_ = alpha_ * x + (1.0 - alpha_) * value_;
  }
}

std::string format_bits_per_sec(double bits_per_sec) {
  char buf[64];
  if (bits_per_sec >= 1e9) {
    std::snprintf(buf, sizeof(buf), "%.2f Gbps", bits_per_sec / 1e9);
  } else if (bits_per_sec >= 1e6) {
    std::snprintf(buf, sizeof(buf), "%.2f Mbps", bits_per_sec / 1e6);
  } else if (bits_per_sec >= 1e3) {
    std::snprintf(buf, sizeof(buf), "%.2f Kbps", bits_per_sec / 1e3);
  } else {
    std::snprintf(buf, sizeof(buf), "%.0f bps", bits_per_sec);
  }
  return buf;
}

}  // namespace upbound
