// Telemetry overhead proof: replays the same campus trace through the
// batched router datapath with stage timing ON and OFF and reports the
// relative cost of the clock reads + histogram records. The acceptance
// budget is <5% on the batched path (roughly ten clock reads per
// 256-packet batch); exits nonzero when --max-overhead-pct is exceeded so
// CI can gate on it.
//
// Usage:
//   bench_telemetry_overhead [--smoke] [--max-overhead-pct P]
//
// --smoke shrinks the workload for CI; the default threshold is 5 (use a
// looser value on noisy shared runners).
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "filter/bitmap_filter.h"
#include "filter/filter_registry.h"
#include "sim/edge_router.h"
#include "sim/report.h"
#include "trace/campus.h"

namespace upbound {
namespace {

GeneratedTrace make_trace(bool smoke) {
  CampusTraceConfig config;
  config.duration = Duration::sec(smoke ? 6.0 : 20.0);
  config.connections_per_sec = 60.0;
  config.bandwidth_bps = 8e6;
  config.seed = 5;
  return generate_campus_trace(config);
}

EdgeRouter make_router(const ClientNetwork& network, bool stage_timing) {
  EdgeRouterConfig config;
  config.network = network;
  config.seed = 11;
  config.stage_timing = stage_timing;
  BitmapFilterConfig bitmap;
  bitmap.log2_bits = 20;
  return EdgeRouter{config, make_state_filter(bitmap_filter_spec(bitmap)),
                    std::make_unique<RedDropPolicy>(2e6, 6e6)};
}

/// One full-trace replay through the batched datapath; returns seconds.
/// The returned snapshot is the timed router's telemetry (for the report).
double replay_once(const GeneratedTrace& trace, bool stage_timing,
                   MetricsSnapshot* snapshot) {
  EdgeRouter router = make_router(trace.network, stage_timing);
  constexpr std::size_t kBatch = 256;
  std::vector<RouterDecision> decisions(kBatch);
  const auto t0 = std::chrono::steady_clock::now();
  for (std::size_t start = 0; start < trace.packets.size(); start += kBatch) {
    const std::size_t n = std::min(kBatch, trace.packets.size() - start);
    router.process_batch(
        PacketBatch{trace.packets.data() + start, n},
        std::span<RouterDecision>{decisions.data(), n});
  }
  const auto t1 = std::chrono::steady_clock::now();
  if (snapshot != nullptr) *snapshot = router.metrics_snapshot();
  return std::chrono::duration<double>(t1 - t0).count();
}

/// Best-of-N replay time: the minimum is the least noise-contaminated
/// estimate of the true cost on a time-shared machine.
double best_of(const GeneratedTrace& trace, bool stage_timing, int rounds,
               MetricsSnapshot* snapshot) {
  double best = replay_once(trace, stage_timing, snapshot);
  for (int i = 1; i < rounds; ++i) {
    best = std::min(best, replay_once(trace, stage_timing, nullptr));
  }
  return best;
}

int run(int argc, char** argv) {
  bool smoke = false;
  double max_overhead_pct = 5.0;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[i], "--max-overhead-pct") == 0 &&
               i + 1 < argc) {
      max_overhead_pct = std::atof(argv[++i]);
    } else {
      std::fprintf(stderr,
                   "usage: %s [--smoke] [--max-overhead-pct P]\n", argv[0]);
      return 2;
    }
  }

  const GeneratedTrace trace = make_trace(smoke);
  const int rounds = smoke ? 3 : 5;
  std::printf("telemetry overhead: %zu packets, best of %d replays\n",
              trace.packets.size(), rounds);

  // Warm-up: touch every allocation and fault in the trace.
  replay_once(trace, false, nullptr);

  MetricsSnapshot timed_snapshot;
  const double off_sec = best_of(trace, false, rounds, nullptr);
  const double on_sec = best_of(trace, true, rounds, &timed_snapshot);
  const double overhead_pct = (on_sec / off_sec - 1.0) * 100.0;

  const double packets = static_cast<double>(trace.packets.size());
  std::printf("  stage_timing=off: %.3f ms (%.1f ns/pkt)\n", off_sec * 1e3,
              off_sec * 1e9 / packets);
  std::printf("  stage_timing=on:  %.3f ms (%.1f ns/pkt)\n", on_sec * 1e3,
              on_sec * 1e9 / packets);
  std::printf("  overhead: %.2f%% (budget %.2f%%)\n", overhead_pct,
              max_overhead_pct);

  std::printf("\nper-stage latency (timed run):\n%s",
              report::metrics_table(timed_snapshot).c_str());

  if (overhead_pct > max_overhead_pct) {
    std::fprintf(stderr, "FAIL: telemetry overhead %.2f%% > budget %.2f%%\n",
                 overhead_pct, max_overhead_pct);
    return 1;
  }
  std::printf("PASS\n");
  return 0;
}

}  // namespace
}  // namespace upbound

int main(int argc, char** argv) { return upbound::run(argc, argv); }
