#include "sim/report.h"

#include <algorithm>
#include <cstdio>
#include <limits>

namespace upbound::report {

std::string num(double value, int decimals) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%.*f", decimals, value);
  return buf;
}

std::string percent(double fraction, int decimals) {
  return num(fraction * 100.0, decimals) + "%";
}

std::string metrics_table(const MetricsSnapshot& snapshot) {
  std::string out;
  std::vector<std::vector<std::string>> rows;
  rows.push_back({"metric", "value"});
  for (const CounterSample& counter : snapshot.counters) {
    rows.push_back({counter.name, std::to_string(counter.value)});
  }
  for (const GaugeSample& gauge : snapshot.gauges) {
    rows.push_back({gauge.name, num(gauge.value, 0)});
  }
  out += table(rows);

  if (!snapshot.histograms.empty()) {
    rows.clear();
    rows.push_back({"histogram", "count", "p50", "p90", "p99", "max"});
    for (const HistogramSample& hist : snapshot.histograms) {
      const bool ns = hist.name.size() > 3 &&
                      hist.name.compare(hist.name.size() - 3, 3, "_ns") == 0;
      const auto cell = [ns](std::uint64_t v) {
        return ns ? num(static_cast<double>(v) / 1000.0, 2) + "us"
                  : std::to_string(v);
      };
      rows.push_back({hist.name, std::to_string(hist.count),
                      cell(hist.percentile(50)), cell(hist.percentile(90)),
                      cell(hist.percentile(99)), cell(hist.max)});
    }
    out += "\n" + table(rows);
  }
  return out;
}

std::string table(const std::vector<std::vector<std::string>>& rows) {
  if (rows.empty()) return "";
  std::vector<std::size_t> widths;
  for (const auto& row : rows) {
    if (row.size() > widths.size()) widths.resize(row.size(), 0);
    for (std::size_t c = 0; c < row.size(); ++c) {
      widths[c] = std::max(widths[c], row[c].size());
    }
  }
  std::string out;
  for (std::size_t r = 0; r < rows.size(); ++r) {
    out += "|";
    for (std::size_t c = 0; c < widths.size(); ++c) {
      const std::string& cell = c < rows[r].size() ? rows[r][c] : "";
      const std::size_t pad = widths[c] - cell.size();
      out += " ";
      if (c == 0) {
        out += cell + std::string(pad, ' ');
      } else {
        out += std::string(pad, ' ') + cell;
      }
      out += " |";
    }
    out += "\n";
    if (r == 0) {
      out += "|";
      for (const std::size_t w : widths) {
        out += std::string(w + 2, '-') + "|";
      }
      out += "\n";
    }
  }
  return out;
}

std::string cdf_curve(const CdfBuilder& cdf, const std::string& x_label,
                      std::size_t points) {
  std::string out;
  out += "  " + x_label + "  cum.fraction\n";
  if (cdf.count() == 0) {
    out += "  (no samples)\n";
    return out;
  }
  char line[96];
  for (const auto& [x, frac] : cdf.curve(points)) {
    std::snprintf(line, sizeof(line), "  %12.4f  %8.4f %s\n", x, frac,
                  bar(frac, 1.0, 30).c_str());
    out += line;
  }
  for (const double pct : {50.0, 90.0, 95.0, 99.0}) {
    std::snprintf(line, sizeof(line), "  P%-4.0f = %.4f\n", pct,
                  cdf.percentile(pct));
    out += line;
  }
  return out;
}

std::string throughput_series(
    const std::vector<std::pair<std::string, const TimeSeries*>>& series,
    std::size_t max_rows) {
  std::string out = "  t(s)";
  // Rows span the stored buckets of all series, by absolute bucket index.
  std::size_t begin = std::numeric_limits<std::size_t>::max();
  std::size_t end = 0;
  double peak = 1.0;
  for (const auto& [name, ts] : series) {
    char head[64];
    std::snprintf(head, sizeof(head), "  %14s", (name + "(Mbps)").c_str());
    out += head;
    if (ts->bucket_count() == 0) continue;
    begin = std::min(begin, ts->first_bucket());
    end = std::max(end, ts->bucket_count());
    for (std::size_t i = ts->first_bucket(); i < ts->bucket_count(); ++i) {
      peak = std::max(peak,
                      ts->bucket_value(i) * 8.0 /
                          ts->bucket_width().to_sec() / 1e6);
    }
  }
  out += "\n";
  begin = std::min(begin, end);
  const std::size_t buckets = end - begin;
  const std::size_t step = buckets > max_rows ? (buckets + max_rows - 1) / max_rows : 1;
  char line[64];
  for (std::size_t i = begin; i < end; i += step) {
    std::snprintf(line, sizeof(line), "  %4.0f",
                  series.front().second->bucket_start(i).sec());
    out += line;
    for (const auto& [name, ts] : series) {
      const double mbps =
          ts->bucket_value(i) * 8.0 / ts->bucket_width().to_sec() / 1e6;
      std::snprintf(line, sizeof(line), "  %14.2f", mbps);
      out += line;
    }
    out += "\n";
  }
  std::snprintf(line, sizeof(line), "  (peak %.2f Mbps)\n", peak);
  out += line;
  return out;
}

std::string bar(double value, double max, std::size_t width) {
  if (max <= 0.0) max = 1.0;
  const std::size_t filled = static_cast<std::size_t>(
      std::clamp(value / max, 0.0, 1.0) * static_cast<double>(width));
  return std::string(filled, '#') + std::string(width - filled, '.');
}

}  // namespace upbound::report
