// Telemetry determinism contract across the replay engines:
//
//   1. the deterministic subset of the merged metrics (counters, gauges,
//      simulation-domain histograms) is bitwise identical for any worker
//      thread count,
//   2. the canonical JSON rendering of that subset is byte-identical too
//      (what --metrics-out --metrics-deterministic writes),
//   3. replay_trace surfaces the router's metrics (batch/run histograms
//      populated, gauges refreshed),
//   4. stage timing can be disabled at runtime without changing decisions,
//      and the latency histograms stay empty.
#include <gtest/gtest.h>

#include "filter/bitmap_filter.h"
#include "filter/drop_policy.h"
#include "filter/filter_registry.h"
#include "sim/parallel_replay.h"
#include "sim/replay.h"
#include "trace/campus.h"
#include "util/metrics_export.h"

namespace upbound {
namespace {

const GeneratedTrace& shared_trace() {
  static const GeneratedTrace trace = [] {
    CampusTraceConfig config;
    config.duration = Duration::sec(30.0);
    config.connections_per_sec = 50.0;
    config.bandwidth_bps = 8e6;
    config.seed = 21;
    return generate_campus_trace(config);
  }();
  return trace;
}

ShardRouterFactory bitmap_factory(bool stage_timing = true) {
  return [stage_timing](const ClientNetwork& network, std::size_t shard) {
    EdgeRouterConfig config;
    config.network = network;
    config.track_blocked_connections = true;
    config.seed = shard_seed(7, shard);
    config.stage_timing = stage_timing;
    return std::make_unique<EdgeRouter>(
        config, make_state_filter(bitmap_filter_spec(BitmapFilterConfig{})),
        std::make_unique<ConstantDropPolicy>(1.0));
  };
}

const HistogramSample* find_histogram(const MetricsSnapshot& snap,
                                      std::string_view name) {
  for (const HistogramSample& hist : snap.histograms) {
    if (hist.name == name) return &hist;
  }
  return nullptr;
}

TEST(SimMetrics, ReplaySurfacesRouterMetrics) {
  const GeneratedTrace& trace = shared_trace();
  EdgeRouterConfig config;
  config.network = trace.network;
  config.track_blocked_connections = true;
  EdgeRouter router{config,
                    make_state_filter(bitmap_filter_spec(BitmapFilterConfig{})),
                    std::make_unique<ConstantDropPolicy>(1.0)};
  const ReplayResult result =
      replay_trace(trace.packets, router, trace.network);

  // Counters mirror the stats snapshot.
  EXPECT_EQ(result.metrics.counters, result.stats.stage_counters);

  // Batch-size histogram: replay drives 256-packet chunks.
  const HistogramSample* batches =
      find_histogram(result.metrics, "batch.packets");
  ASSERT_NE(batches, nullptr);
  EXPECT_EQ(batches->count, (trace.packets.size() + 255) / 256);
  EXPECT_EQ(batches->sum, trace.packets.size());

  const HistogramSample* runs = find_histogram(result.metrics, "run.packets");
  ASSERT_NE(runs, nullptr);
  EXPECT_GT(runs->count, 0u);

  // Gauges are refreshed from the live structures at snapshot time.
  bool saw_storage = false;
  for (const GaugeSample& gauge : result.metrics.gauges) {
    if (gauge.name == "filter.storage_bytes") {
      saw_storage = true;
      EXPECT_EQ(gauge.value,
                static_cast<double>(router.filter().storage_bytes()));
    }
  }
  EXPECT_TRUE(saw_storage);
}

TEST(SimMetrics, WallClockHistogramsRecordedOnlyWithTiming) {
  const GeneratedTrace& trace = shared_trace();
  for (const bool timing : {true, false}) {
    EdgeRouterConfig config;
    config.network = trace.network;
    config.stage_timing = timing;
    EdgeRouter router{config,
                      make_state_filter(bitmap_filter_spec(BitmapFilterConfig{})),
                      std::make_unique<ConstantDropPolicy>(1.0)};
    const ReplayResult result =
        replay_trace(trace.packets, router, trace.network);
    const HistogramSample* batch_ns =
        find_histogram(result.metrics, "latency.batch_ns");
    ASSERT_NE(batch_ns, nullptr);
    if (timing) {
      EXPECT_GT(batch_ns->count, 0u);
    } else {
      EXPECT_EQ(batch_ns->count, 0u);
    }
  }
}

TEST(SimMetrics, TimingDoesNotChangeDecisionsOrStats) {
  const GeneratedTrace& trace = shared_trace();
  ReplayResult results[2]{ReplayResult{Duration::sec(1.0)},
                          ReplayResult{Duration::sec(1.0)}};
  for (const bool timing : {false, true}) {
    EdgeRouterConfig config;
    config.network = trace.network;
    config.track_blocked_connections = true;
    config.stage_timing = timing;
    EdgeRouter router{config,
                      make_state_filter(bitmap_filter_spec(BitmapFilterConfig{})),
                      std::make_unique<ConstantDropPolicy>(1.0)};
    results[timing ? 1 : 0] =
        replay_trace(trace.packets, router, trace.network);
  }
  // Purity: the clock is read but never branched on.
  EXPECT_TRUE(results[0] == results[1]);
  EXPECT_EQ(results[0].metrics.deterministic(),
            results[1].metrics.deterministic());
}

TEST(SimMetrics, DeterministicSubsetInvariantUnderThreadCount) {
  const GeneratedTrace& trace = shared_trace();
  ParallelReplayConfig config;
  config.shards = 8;

  config.threads = 1;
  const ParallelReplayResult reference =
      parallel_replay(trace.packets, trace.network, bitmap_factory(), config);
  const MetricsSnapshot ref_det = reference.merged.metrics.deterministic();
  ASSERT_FALSE(ref_det.counters.empty());
  ASSERT_NE(find_histogram(ref_det, "batch.packets"), nullptr);
  // Wall-clock histograms really are stripped.
  EXPECT_EQ(find_histogram(ref_det, "latency.batch_ns"), nullptr);
  ASSERT_NE(find_histogram(reference.merged.metrics, "latency.batch_ns"),
            nullptr);

  const std::string ref_json =
      metrics_to_json(ref_det, "final", SimTime::origin());

  for (const std::size_t threads : {2u, 8u}) {
    config.threads = threads;
    const ParallelReplayResult result =
        parallel_replay(trace.packets, trace.network, bitmap_factory(),
                        config);
    const MetricsSnapshot det = result.merged.metrics.deterministic();
    // Bitwise-identical deterministic subset, and byte-identical export.
    EXPECT_EQ(det, ref_det) << "threads=" << threads;
    EXPECT_EQ(metrics_to_json(det, "final", SimTime::origin()), ref_json)
        << "threads=" << threads;
  }
}

TEST(SimMetrics, MergedGaugesSumOverShards) {
  const GeneratedTrace& trace = shared_trace();
  ParallelReplayConfig config;
  config.shards = 4;
  config.threads = 2;
  const ParallelReplayResult result =
      parallel_replay(trace.packets, trace.network, bitmap_factory(), config);

  double expected = 0.0;
  for (const std::size_t bytes : result.shard_filter_bytes) {
    expected += static_cast<double>(bytes);
  }
  bool found = false;
  for (const GaugeSample& gauge : result.merged.metrics.gauges) {
    if (gauge.name == "filter.storage_bytes") {
      found = true;
      EXPECT_EQ(gauge.value, expected);
    }
  }
  EXPECT_TRUE(found);
}

}  // namespace
}  // namespace upbound
