// The three benchmark workloads and the report they fill in. Each
// workload generates its inputs from the seed, drives them through the
// library's public entry points, checks the outputs, and reports metrics
// by name. main.cpp prints them.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace upbound::bench {

struct RunOptions {
  std::uint64_t seed = 1;
  /// Measurement budget: workloads repeat their measured unit until it is
  /// spent (at least once).
  double seconds = 10.0;
  /// Traced run: per-layer metrics instead of end-to-end ones.
  bool trace = false;
  /// Directory for scratch files (captures, span dumps).
  std::string work_dir = ".";
};

struct MetricDef {
  const char* name;
  const char* unit;
};

/// End-to-end metrics (untraced runs), in BENCHMARK.json order.
const std::vector<MetricDef>& end_to_end_metrics();
/// Per-layer metrics (traced runs), in BENCHMARK.json order. A layer a
/// workload bypasses did no work and reports 0.
const std::vector<MetricDef>& per_layer_metrics();

struct RunReport {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// Values of the metrics above, by name.
  std::map<std::string, double> metrics;
  /// Extra numbers printed for people, never in the JSON line.
  std::vector<std::pair<std::string, std::string>> notes;
  /// Failed output checks; any entry makes the run incorrect.
  std::vector<std::string> failures;

  void set(const std::string& name, double value) { metrics[name] = value; }
  void note(const std::string& name, const std::string& text) {
    notes.emplace_back(name, text);
  }
  /// Records `what` as a failure unless `ok`.
  void check(bool ok, const std::string& what) {
    if (!ok) failures.push_back(what);
  }
  bool correct() const { return failures.empty(); }
  /// Share of attempted packets that produced no verdict or analysis.
  double loss_ratio() const {
    return attempted == 0 ? 0.0
                          : static_cast<double>(failed) /
                                static_cast<double>(attempted);
  }
};

RunReport run_live_campus(const RunOptions& options);
RunReport run_replay_swarm(const RunOptions& options);
RunReport run_analyze_campus(const RunOptions& options);

/// Formats a number for the human-readable notes.
std::string fmt(double value, int precision = 4);

/// Deletes a scratch file when it goes out of scope.
class ScratchFile {
 public:
  explicit ScratchFile(std::string path) : path_(std::move(path)) {}
  ~ScratchFile();
  ScratchFile(const ScratchFile&) = delete;
  ScratchFile& operator=(const ScratchFile&) = delete;

  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

}  // namespace upbound::bench
