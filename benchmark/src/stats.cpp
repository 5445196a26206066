#include "stats.h"

#include <algorithm>
#include <cmath>

namespace upbound::bench {

double percentile(std::vector<double>& values, double pct) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank =
      std::clamp(pct, 0.0, 100.0) / 100.0 *
      static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return values[lo] + frac * (values[hi] - values[lo]);
}

double median(std::vector<double> values) { return percentile(values, 50.0); }

double best_high(const std::vector<double>& values) {
  return values.empty() ? 0.0 : *std::max_element(values.begin(), values.end());
}

const HistogramSample* find_histogram(const MetricsSnapshot& snapshot,
                                      const char* name) {
  for (const HistogramSample& h : snapshot.histograms) {
    if (h.name == name) return &h;
  }
  return nullptr;
}

double gauge_value(const MetricsSnapshot& snapshot, const char* name) {
  for (const GaugeSample& g : snapshot.gauges) {
    if (g.name == name) return g.value;
  }
  return 0.0;
}

std::uint64_t counter_value(const MetricsSnapshot& snapshot,
                            const char* name) {
  for (const CounterSample& c : snapshot.counters) {
    if (c.name == name) return c.value;
  }
  return 0;
}

}  // namespace upbound::bench
