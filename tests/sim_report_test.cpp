#include "sim/report.h"

#include <gtest/gtest.h>

namespace upbound {
namespace {

TEST(Report, NumAndPercent) {
  EXPECT_EQ(report::num(3.14159, 2), "3.14");
  EXPECT_EQ(report::num(3.0, 0), "3");
  EXPECT_EQ(report::percent(0.4567, 1), "45.7%");
}

TEST(Report, TableAlignsColumns) {
  const std::string out = report::table({{"Protocol", "Conns", "Bytes"},
                                         {"bittorrent", "47.90%", "18%"},
                                         {"edonkey", "22.00%", "21%"}});
  EXPECT_NE(out.find("| Protocol"), std::string::npos);
  EXPECT_NE(out.find("bittorrent"), std::string::npos);
  // Separator row present after header.
  EXPECT_NE(out.find("|---"), std::string::npos);
  // All rows have the same width.
  std::size_t first_len = out.find('\n');
  std::size_t second_start = first_len + 1;
  std::size_t second_len = out.find('\n', second_start) - second_start;
  EXPECT_EQ(first_len, second_len);
}

TEST(Report, TableEmpty) {
  EXPECT_EQ(report::table({}), "");
}

TEST(Report, TableHandlesRaggedRows) {
  const std::string out = report::table({{"a", "b", "c"}, {"x"}});
  EXPECT_NE(out.find("x"), std::string::npos);
}

TEST(Report, CdfCurveShowsPercentiles) {
  CdfBuilder cdf;
  for (int i = 1; i <= 100; ++i) cdf.add(static_cast<double>(i));
  const std::string out = report::cdf_curve(cdf, "seconds", 10);
  EXPECT_NE(out.find("seconds"), std::string::npos);
  EXPECT_NE(out.find("P50"), std::string::npos);
  EXPECT_NE(out.find("P99"), std::string::npos);
}

TEST(Report, CdfCurveEmptySafe) {
  CdfBuilder cdf;
  const std::string out = report::cdf_curve(cdf, "x");
  EXPECT_NE(out.find("no samples"), std::string::npos);
}

TEST(Report, BarScales) {
  EXPECT_EQ(report::bar(0.0, 1.0, 10), "..........");
  EXPECT_EQ(report::bar(1.0, 1.0, 10), "##########");
  EXPECT_EQ(report::bar(0.5, 1.0, 10), "#####.....");
  EXPECT_EQ(report::bar(5.0, 1.0, 10), "##########");  // clamps
  EXPECT_EQ(report::bar(1.0, 0.0, 4), "####");          // max guard
}

TEST(Report, ThroughputSeriesRendersBuckets) {
  TimeSeries a{Duration::sec(1.0)};
  TimeSeries b{Duration::sec(1.0)};
  a.add(SimTime::from_sec(0.5), 125'000.0);  // 1 Mbps bucket
  a.add(SimTime::from_sec(1.5), 250'000.0);  // 2 Mbps bucket
  b.add(SimTime::from_sec(0.5), 125'000.0);
  const std::string out = report::throughput_series(
      {{"offered", &a}, {"carried", &b}});
  EXPECT_NE(out.find("offered"), std::string::npos);
  EXPECT_NE(out.find("carried"), std::string::npos);
  EXPECT_NE(out.find("1.00"), std::string::npos);
  EXPECT_NE(out.find("2.00"), std::string::npos);
  EXPECT_NE(out.find("peak 2.00 Mbps"), std::string::npos);
}

TEST(Report, ThroughputSeriesStartsAtFirstStoredBucket) {
  TimeSeries a{Duration::sec(1.0)};
  a.add(SimTime::from_sec(1'700'000'000.5), 125'000.0);
  const std::string out = report::throughput_series({{"x", &a}});
  EXPECT_NE(out.find("  1700000000            1.00\n"), std::string::npos)
      << out;
  EXPECT_EQ(std::count(out.begin(), out.end(), '\n'), 3);
}

TEST(Report, ThroughputSeriesSubsamplesLongRuns) {
  TimeSeries a{Duration::sec(1.0)};
  for (int i = 0; i < 1000; ++i) a.add(SimTime::from_sec(i + 0.5), 1000.0);
  const std::string out =
      report::throughput_series({{"x", &a}}, /*max_rows=*/50);
  // Data rows only, excluding header and footer lines.
  const std::size_t lines = std::count(out.begin(), out.end(), '\n');
  EXPECT_LE(lines, 55u);
}

}  // namespace
}  // namespace upbound
