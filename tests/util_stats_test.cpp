#include "util/stats.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "util/rng.h"

namespace upbound {
namespace {

TEST(SummaryStats, EmptyIsZero) {
  SummaryStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.variance(), 0.0);
  EXPECT_EQ(s.min(), 0.0);
  EXPECT_EQ(s.max(), 0.0);
}

TEST(SummaryStats, BasicMoments) {
  SummaryStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);  // sample variance
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(SummaryStats, SingleSampleVarianceZero) {
  SummaryStats s;
  s.add(3.14);
  EXPECT_EQ(s.variance(), 0.0);
  EXPECT_EQ(s.stddev(), 0.0);
  EXPECT_DOUBLE_EQ(s.mean(), 3.14);
}

TEST(SummaryStats, NegativeValues) {
  SummaryStats s;
  s.add(-5.0);
  s.add(5.0);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.min(), -5.0);
  EXPECT_DOUBLE_EQ(s.max(), 5.0);
}

TEST(CdfBuilder, PercentileInterpolates) {
  CdfBuilder cdf;
  for (int i = 1; i <= 100; ++i) cdf.add(static_cast<double>(i));
  EXPECT_DOUBLE_EQ(cdf.percentile(0), 1.0);
  EXPECT_DOUBLE_EQ(cdf.percentile(100), 100.0);
  EXPECT_NEAR(cdf.percentile(50), 50.5, 1e-9);
  EXPECT_NEAR(cdf.percentile(90), 90.1, 1e-9);
}

TEST(CdfBuilder, PercentileOnEmptyThrows) {
  CdfBuilder cdf;
  EXPECT_THROW(cdf.percentile(50), std::logic_error);
}

TEST(CdfBuilder, FractionBelow) {
  CdfBuilder cdf;
  for (double x : {1.0, 2.0, 3.0, 4.0}) cdf.add(x);
  EXPECT_DOUBLE_EQ(cdf.fraction_below(0.5), 0.0);
  EXPECT_DOUBLE_EQ(cdf.fraction_below(2.0), 0.5);   // <= is inclusive
  EXPECT_DOUBLE_EQ(cdf.fraction_below(3.5), 0.75);
  EXPECT_DOUBLE_EQ(cdf.fraction_below(10.0), 1.0);
}

TEST(CdfBuilder, UnsortedInsertOrderIrrelevant) {
  CdfBuilder a, b;
  for (double x : {5.0, 1.0, 3.0}) a.add(x);
  for (double x : {1.0, 3.0, 5.0}) b.add(x);
  EXPECT_DOUBLE_EQ(a.percentile(50), b.percentile(50));
}

/// Doubles that stress an order-preserving bit mapping: both zeros, both
/// infinities, denormals, extremes, duplicates, and random values of both
/// signs over many magnitudes.
std::vector<double> awkward_samples(std::size_t n, std::uint64_t seed) {
  const double specials[] = {0.0,
                             -0.0,
                             std::numeric_limits<double>::infinity(),
                             -std::numeric_limits<double>::infinity(),
                             std::numeric_limits<double>::denorm_min(),
                             -std::numeric_limits<double>::denorm_min(),
                             std::numeric_limits<double>::min(),
                             std::numeric_limits<double>::max(),
                             std::numeric_limits<double>::lowest(),
                             1.0,
                             -1.0};
  Rng rng{seed};
  std::vector<double> out;
  for (std::size_t i = 0; i < n; ++i) {
    if (rng.next_bool(0.05)) {
      out.push_back(specials[rng.next_below(std::size(specials))]);
    } else if (rng.next_bool(0.2) && !out.empty()) {
      out.push_back(out[rng.next_below(out.size())]);  // duplicate
    } else {
      const int exponent = static_cast<int>(rng.next_below(80)) - 40;
      const double magnitude = std::ldexp(rng.next_double(), exponent);
      out.push_back(rng.next_bool(0.5) ? -magnitude : magnitude);
    }
  }
  return out;
}

// sorted() equals std::sort element for element on either side of the
// radix threshold, including sizes where a digit pass is skipped.
TEST(CdfBuilder, SortedEqualsStdSort) {
  for (const std::size_t n : {0u, 1u, 7u, 511u, 512u, 513u, 4096u, 100000u}) {
    SCOPED_TRACE(n);
    const std::vector<double> samples = awkward_samples(n, 40 + n);
    CdfBuilder cdf;
    for (const double x : samples) cdf.add(x);
    std::vector<double> expected = samples;
    std::sort(expected.begin(), expected.end());
    EXPECT_EQ(cdf.sorted(), expected);
    EXPECT_TRUE(std::is_sorted(cdf.sorted().begin(), cdf.sorted().end()));
  }
}

// Samples with one shared exponent (every high digit equal) and all-equal
// samples sort too.
TEST(CdfBuilder, SortedHandlesNarrowRanges) {
  CdfBuilder narrow, constant;
  std::vector<double> expected;
  for (int i = 0; i < 3000; ++i) {
    const double x = 1.0 + static_cast<double>((i * 7919) % 1000) / 4096.0;
    narrow.add(x);
    expected.push_back(x);
    constant.add(0.25);
  }
  std::sort(expected.begin(), expected.end());
  EXPECT_EQ(narrow.sorted(), expected);
  EXPECT_EQ(constant.sorted(), std::vector<double>(3000, 0.25));
}

// A NaN sends the whole set through std::sort, from the insertion order.
TEST(CdfBuilder, NanFallsBackToStdSort) {
  std::vector<double> samples = awkward_samples(2000, 9);
  samples[1234] = std::numeric_limits<double>::quiet_NaN();
  CdfBuilder cdf;
  for (const double x : samples) cdf.add(x);
  std::vector<double> expected = samples;
  std::sort(expected.begin(), expected.end());
  ASSERT_EQ(cdf.sorted().size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    ASSERT_EQ(std::bit_cast<std::uint64_t>(cdf.sorted()[i]),
              std::bit_cast<std::uint64_t>(expected[i]))
        << "at " << i;
  }
}

// Adding after a sort re-sorts: a copy taken while sorted stays sorted
// and independent.
TEST(CdfBuilder, AddAfterSortAndCopy) {
  CdfBuilder cdf;
  for (int i = 1000; i > 0; --i) cdf.add(static_cast<double>(i));
  cdf.sorted();
  const CdfBuilder copy = cdf;
  cdf.add(0.5);
  EXPECT_EQ(cdf.sorted().front(), 0.5);
  EXPECT_EQ(cdf.count(), 1001u);
  EXPECT_EQ(copy.count(), 1000u);
  EXPECT_EQ(copy.sorted().front(), 1.0);
  EXPECT_EQ(copy.sorted().back(), 1000.0);
}

TEST(CdfBuilder, CurveMonotone) {
  CdfBuilder cdf;
  for (int i = 0; i < 1000; ++i) cdf.add(static_cast<double>(i % 37));
  const auto curve = cdf.curve(20);
  ASSERT_EQ(curve.size(), 20u);
  for (std::size_t i = 1; i < curve.size(); ++i) {
    EXPECT_GE(curve[i].second, curve[i - 1].second);
    EXPECT_GE(curve[i].first, curve[i - 1].first);
  }
  EXPECT_DOUBLE_EQ(curve.back().second, 1.0);
}

TEST(Histogram, BinningAndClamping) {
  Histogram h{0.0, 10.0, 10};
  h.add(0.5);    // bin 0
  h.add(9.99);   // bin 9
  h.add(-5.0);   // clamps to bin 0
  h.add(100.0);  // clamps to bin 9
  EXPECT_EQ(h.bin(0), 2u);
  EXPECT_EQ(h.bin(9), 2u);
  EXPECT_EQ(h.total(), 4u);
}

TEST(Histogram, WeightedAdds) {
  Histogram h{0.0, 1.0, 2};
  h.add(0.25, 10);
  h.add(0.75, 30);
  EXPECT_EQ(h.bin(0), 10u);
  EXPECT_EQ(h.bin(1), 30u);
  EXPECT_EQ(h.total(), 40u);
}

TEST(Histogram, BinBoundaries) {
  Histogram h{10.0, 20.0, 5};
  EXPECT_DOUBLE_EQ(h.bin_lo(0), 10.0);
  EXPECT_DOUBLE_EQ(h.bin_hi(0), 12.0);
  EXPECT_DOUBLE_EQ(h.bin_lo(4), 18.0);
  EXPECT_DOUBLE_EQ(h.bin_hi(4), 20.0);
}

TEST(Histogram, PercentileApproximation) {
  Histogram h{0.0, 100.0, 100};
  for (int i = 0; i < 100; ++i) h.add(i + 0.5);
  EXPECT_NEAR(h.percentile(50), 50.0, 1.0);
  EXPECT_NEAR(h.percentile(90), 90.0, 1.0);
}

TEST(Histogram, InvalidConstruction) {
  EXPECT_THROW(Histogram(0.0, 1.0, 0), std::invalid_argument);
  EXPECT_THROW(Histogram(1.0, 1.0, 10), std::invalid_argument);
  EXPECT_THROW(Histogram(2.0, 1.0, 10), std::invalid_argument);
}

TEST(TimeSeries, BucketsByInterval) {
  TimeSeries ts{Duration::sec(1.0)};
  ts.add(SimTime::from_sec(0.1), 5.0);
  ts.add(SimTime::from_sec(0.9), 5.0);
  ts.add(SimTime::from_sec(1.5), 7.0);
  ts.add(SimTime::from_sec(4.0), 1.0);
  ASSERT_EQ(ts.bucket_count(), 5u);
  EXPECT_DOUBLE_EQ(ts.bucket_value(0), 10.0);
  EXPECT_DOUBLE_EQ(ts.bucket_value(1), 7.0);
  EXPECT_DOUBLE_EQ(ts.bucket_value(2), 0.0);
  EXPECT_DOUBLE_EQ(ts.bucket_value(4), 1.0);
  EXPECT_DOUBLE_EQ(ts.total(), 18.0);
}

TEST(TimeSeries, RatesScaleByWidth) {
  TimeSeries ts{Duration::sec(2.0)};
  ts.add(SimTime::from_sec(0.5), 8.0);
  const auto rates = ts.rates();
  ASSERT_EQ(rates.size(), 1u);
  EXPECT_DOUBLE_EQ(rates[0], 4.0);  // 8 units over a 2 s bucket
}

TEST(TimeSeries, BucketStart) {
  TimeSeries ts{Duration::sec(5.0)};
  ts.add(SimTime::from_sec(12.0), 1.0);
  EXPECT_EQ(ts.bucket_start(2), SimTime::from_sec(10.0));
}

TEST(TimeSeries, FarFromOriginStoresOnlyItsSpan) {
  // A Unix-epoch capture: storage covers the populated span, while bucket
  // indices stay absolute (counted from the origin).
  const SimTime epoch = SimTime::from_sec(1'700'000'000.0);
  TimeSeries a{Duration::sec(1.0)};
  a.add(epoch + Duration::sec(2.5), 3.0);
  a.add(epoch + Duration::sec(0.5), 1.0);  // before the first bucket
  EXPECT_EQ(a.first_bucket(), 1'700'000'000u);
  EXPECT_EQ(a.bucket_count(), 1'700'000'003u);
  EXPECT_EQ(a.rates().size(), 3u);
  EXPECT_DOUBLE_EQ(a.bucket_value(1'700'000'002), 3.0);
  EXPECT_DOUBLE_EQ(a.bucket_value(1'700'000'001), 0.0);
  EXPECT_DOUBLE_EQ(a.bucket_value(0), 0.0);
  EXPECT_DOUBLE_EQ(a.total(), 4.0);

  // Merge and equality align on the absolute index, whatever order the
  // buckets were first touched in.
  TimeSeries b{Duration::sec(1.0)};
  b.add(epoch + Duration::sec(0.5), 1.0);
  b.add(epoch + Duration::sec(2.5), 3.0);
  EXPECT_EQ(a, b);
  TimeSeries merged{Duration::sec(1.0)};
  merged.add(epoch + Duration::sec(4.5), 2.0);
  merged.add_series(a);
  EXPECT_EQ(merged.first_bucket(), 1'700'000'000u);
  EXPECT_DOUBLE_EQ(merged.bucket_value(1'700'000'004), 2.0);
  EXPECT_DOUBLE_EQ(merged.total(), 6.0);
  EXPECT_NE(merged, a);
}

TEST(TimeSeries, NegativeTimeIgnored) {
  TimeSeries ts{Duration::sec(1.0)};
  ts.add(SimTime::from_usec(-5), 1.0);
  EXPECT_EQ(ts.bucket_count(), 0u);
}

TEST(TimeSeries, RejectsNonPositiveWidth) {
  EXPECT_THROW(TimeSeries(Duration::usec(0)), std::invalid_argument);
}

TEST(Ewma, FirstSampleInitializes) {
  Ewma e{0.5};
  EXPECT_TRUE(e.empty());
  e.add(10.0);
  EXPECT_FALSE(e.empty());
  EXPECT_DOUBLE_EQ(e.value(), 10.0);
}

TEST(Ewma, ConvergesTowardConstantInput) {
  Ewma e{0.25};
  e.add(0.0);
  for (int i = 0; i < 100; ++i) e.add(100.0);
  EXPECT_NEAR(e.value(), 100.0, 1e-6);
}

TEST(Ewma, AlphaOneTracksExactly) {
  Ewma e{1.0};
  e.add(3.0);
  e.add(7.0);
  EXPECT_DOUBLE_EQ(e.value(), 7.0);
}

TEST(Ewma, RejectsBadAlpha) {
  EXPECT_THROW(Ewma(0.0), std::invalid_argument);
  EXPECT_THROW(Ewma(1.5), std::invalid_argument);
}

TEST(FormatBitsPerSec, PicksUnits) {
  EXPECT_EQ(format_bits_per_sec(146.7e6), "146.70 Mbps");
  EXPECT_EQ(format_bits_per_sec(2.5e9), "2.50 Gbps");
  EXPECT_EQ(format_bits_per_sec(1200.0), "1.20 Kbps");
  EXPECT_EQ(format_bits_per_sec(42.0), "42 bps");
}

}  // namespace
}  // namespace upbound
