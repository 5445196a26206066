// The repository benchmark program:
//
//   upbound_benchmark --workload live-campus|replay-swarm|analyze-campus
//                     --seed N --seconds S --trace 0|1 [--work-dir DIR]
//
// Prints a human-readable report, then as its last line one JSON object
// {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics
// with --trace 0, the per-layer metrics with --trace 1. Exits 1 when an
// output check failed (the JSON still says why it is not correct) and 2
// on bad arguments or an error before any result exists.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

#include "tracing.h"
#include "workload.h"

namespace upbound::bench {
namespace {

int usage() {
  std::fprintf(stderr,
               "usage: upbound_benchmark --workload "
               "live-campus|replay-swarm|analyze-campus --seed N "
               "--seconds S --trace 0|1 [--work-dir DIR]\n");
  return 2;
}

void print_json(const RunReport& report,
                const std::vector<MetricDef>& defs) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              report.correct() ? "true" : "false",
              static_cast<unsigned long long>(report.attempted),
              static_cast<unsigned long long>(report.failed));
  bool first = true;
  for (const MetricDef& def : defs) {
    const auto it = report.metrics.find(def.name);
    const double value = it == report.metrics.end() ? 0.0 : it->second;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                first ? "" : ", ", def.name, value, def.unit);
    first = false;
  }
  std::printf("}}\n");
}

int run(const std::string& workload, const RunOptions& options) {
  RunReport report;
  if (workload == "live-campus") {
    report = run_live_campus(options);
  } else if (workload == "replay-swarm") {
    report = run_replay_swarm(options);
  } else if (workload == "analyze-campus") {
    report = run_analyze_campus(options);
  } else {
    return usage();
  }

  const std::vector<MetricDef>& defs =
      options.trace ? per_layer_metrics() : end_to_end_metrics();
  for (const auto& [name, value] : report.metrics) {
    bool known = false;
    for (const MetricDef& def : defs) known = known || name == def.name;
    report.check(known, "workload reported undeclared metric " + name);
    report.check(std::isfinite(value), "metric " + name + " is not finite");
  }

  std::printf("workload %s, seed %llu, %s run\n", workload.c_str(),
              static_cast<unsigned long long>(options.seed),
              options.trace ? "traced" : "untraced");
  for (const MetricDef& def : defs) {
    const auto it = report.metrics.find(def.name);
    std::printf("  %-34s %14s %s%s\n", def.name,
                it == report.metrics.end() ? "0" : fmt(it->second, 6).c_str(),
                def.unit,
                it == report.metrics.end() ? "  (layer bypassed)" : "");
  }
  for (const auto& [name, text] : report.notes) {
    std::printf("  note: %s = %s\n", name.c_str(), text.c_str());
  }
  if (options.trace) {
    const std::string path = options.work_dir + "/spans-" + workload + "-" +
                             std::to_string(options.seed) + ".json";
    if (Tracer::instance().write_json(path)) {
      std::printf("  spans of the last traced pass: %s\n", path.c_str());
    }
  }
  std::printf("attempted %llu, failed %llu\n",
              static_cast<unsigned long long>(report.attempted),
              static_cast<unsigned long long>(report.failed));
  for (const std::string& failure : report.failures) {
    std::printf("CHECK FAILED: %s\n", failure.c_str());
  }
  print_json(report, defs);
  std::fflush(stdout);
  return report.correct() ? 0 : 1;
}

}  // namespace
}  // namespace upbound::bench

int main(int argc, char** argv) {
  using namespace upbound::bench;
  std::string workload;
  RunOptions options;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* value = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      workload = value;
    } else if (key == "--seed") {
      options.seed = std::strtoull(value, &end, 10);
      have_seed = end != value && *end == '\0';
    } else if (key == "--seconds") {
      options.seconds = std::strtod(value, &end);
      have_seconds = end != value && *end == '\0' && options.seconds > 0;
    } else if (key == "--trace") {
      have_trace = std::strcmp(value, "0") == 0 || std::strcmp(value, "1") == 0;
      options.trace = std::strcmp(value, "1") == 0;
    } else if (key == "--work-dir") {
      options.work_dir = value;
    } else {
      return usage();
    }
  }
  if (argc % 2 != 1 || workload.empty() || !have_seed || !have_seconds ||
      !have_trace) {
    return usage();
  }
  try {
    return run(workload, options);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }
}
