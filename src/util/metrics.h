// Stage-accurate telemetry registry: named counters (reusing the PR 1
// CounterRegistry), gauges, and log-linear latency histograms behind one
// snapshot/merge surface.
//
// Metric classes and the determinism contract
// -------------------------------------------
// Counters, gauges, and histograms whose samples come from the simulation
// domain (packet counts, batch sizes, state bytes) are *deterministic*:
// replaying the same trace yields bit-identical values regardless of
// worker-thread scheduling, and shard-order snapshot merges preserve that
// (the PR 2 invariant). Histograms whose samples are wall-clock timings
// are *non-deterministic* by nature; by convention their names end in
// "_ns" and MetricsSnapshot::deterministic() strips them, which is what
// the determinism tests and the --metrics-deterministic CLI flag compare.
#pragma once

#include <chrono>
#include <cstdint>
#include <deque>
#include <string>
#include <string_view>
#include <vector>

#include "util/counters.h"
#include "util/latency_histogram.h"

namespace upbound {

/// Monotonic wall-clock nanoseconds (arbitrary epoch) for stage timing.
inline std::uint64_t telemetry_clock_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// A last-write-wins instantaneous value. Not thread-safe; like counters,
/// each datapath thread owns its registry and merges snapshots.
class Gauge {
 public:
  void set(double value) { value_ = value; }
  double value() const { return value_; }

 private:
  double value_ = 0.0;
};

struct GaugeSample {
  std::string name;
  double value = 0.0;

  bool operator==(const GaugeSample&) const = default;
};

/// One populated histogram bin (sparse: empty bins are omitted).
struct HistogramBinSample {
  std::uint32_t bin = 0;
  std::uint64_t count = 0;

  bool operator==(const HistogramBinSample&) const = default;
};

/// A point-in-time reading of one histogram, carrying the sparse bins so
/// snapshots merge losslessly and percentiles can be re-derived after a
/// merge.
struct HistogramSample {
  std::string name;
  std::uint64_t count = 0;
  std::uint64_t sum = 0;
  std::uint64_t min = 0;
  std::uint64_t max = 0;
  std::vector<HistogramBinSample> bins;  // sorted by bin index

  bool operator==(const HistogramSample&) const = default;

  /// Same semantics as LatencyHistogram::percentile over the sparse bins.
  std::uint64_t percentile(double pct) const;
};

/// Name-sorted readings of a whole MetricsRegistry.
struct MetricsSnapshot {
  CounterSnapshot counters;
  std::vector<GaugeSample> gauges;       // name-sorted
  std::vector<HistogramSample> histograms;  // name-sorted

  bool operator==(const MetricsSnapshot&) const = default;

  /// Copy with every wall-clock histogram (name ending "_ns") removed:
  /// the subset covered by the bitwise-determinism contract.
  MetricsSnapshot deterministic() const;
};

/// Merges `from` into `into` by metric name: counters and histogram bins
/// sum, gauges sum (per-shard instantaneous values add up to the site
/// total), min/max combine. Inputs must be name-sorted (as snapshot()
/// produces); the result is name-sorted, so a fixed shard-order merge is
/// deterministic regardless of worker scheduling.
void merge_metrics_snapshot(MetricsSnapshot& into,
                            const MetricsSnapshot& from);

class MetricsRegistry {
 public:
  /// Counters live in the embedded CounterRegistry (same names, same
  /// semantics as PR 1); the reference stays valid for the registry's
  /// lifetime. Likewise for gauges and histograms.
  StageCounter& counter(std::string_view name) {
    return counters_.counter(name);
  }
  Gauge& gauge(std::string_view name);
  LatencyHistogram& histogram(std::string_view name);

  const CounterRegistry& counters() const { return counters_; }
  CounterRegistry& counters() { return counters_; }

  std::size_t gauge_count() const { return gauges_.size(); }
  std::size_t histogram_count() const { return histograms_.size(); }

  /// All metrics, each section sorted by name.
  MetricsSnapshot snapshot() const;

  /// Zeroes every metric (registrations are kept).
  void reset();

 private:
  CounterRegistry counters_;
  // Deques keep addresses stable across registrations (same rationale as
  // CounterRegistry); registries hold tens of entries, so linear lookup at
  // registration time is fine.
  std::deque<std::pair<std::string, Gauge>> gauges_;
  std::deque<std::pair<std::string, LatencyHistogram>> histograms_;
};

}  // namespace upbound
