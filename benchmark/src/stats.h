// Order statistics used by the benchmark's metrics.
#pragma once

#include <cstdint>
#include <vector>

#include "util/metrics.h"

namespace upbound::bench {

/// Percentile `pct` in [0, 100] of `values` by linear interpolation
/// between closest ranks (rank h = (n - 1) * pct / 100). Sorts `values`
/// in place. 0 when empty.
double percentile(std::vector<double>& values, double pct);

/// Median of `values`. 0 when empty.
double median(std::vector<double> values);

/// Best repetition of a run: the highest throughput. Contention from
/// other work on a shared host only ever slows a repetition down, and it
/// comes in stretches of seconds, so the best of a run's repetitions
/// repeats across runs where their median does not. 0 when empty.
double best_high(const std::vector<double>& values);

/// The histogram named `name` in `snapshot`, or nullptr.
const HistogramSample* find_histogram(const MetricsSnapshot& snapshot,
                                      const char* name);

/// The gauge named `name` in `snapshot`, or 0 when absent.
double gauge_value(const MetricsSnapshot& snapshot, const char* name);

/// The counter named `name` in `snapshot`, or 0 when absent.
std::uint64_t counter_value(const MetricsSnapshot& snapshot,
                            const char* name);

}  // namespace upbound::bench
