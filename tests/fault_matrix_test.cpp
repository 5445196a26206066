// The fault matrix: every fault kind drives the supervised parallel
// replay engine to a *reproducible* result -- same (trace, spec, seed,
// shards) twice gives byte-identical stats and deterministic metrics --
// and the non-destructive kinds (stall, ring-overflow) leave the result
// identical to a fault-free run.
#include <gtest/gtest.h>

#include "fault/fault_injector.h"
#include "filter/bitmap_filter.h"
#include "filter/drop_policy.h"
#include "filter/filter_registry.h"
#include "filter/spi_filter.h"
#include "sim/parallel_replay.h"
#include "trace/campus.h"

namespace upbound {
namespace {

const GeneratedTrace& shared_trace() {
  static const GeneratedTrace trace = [] {
    CampusTraceConfig config;
    config.duration = Duration::sec(20.0);
    config.connections_per_sec = 50.0;
    config.bandwidth_bps = 8e6;
    config.seed = 5;
    return generate_campus_trace(config);
  }();
  return trace;
}

ShardRouterFactory bitmap_factory() {
  return [](const ClientNetwork& network, std::size_t shard) {
    EdgeRouterConfig config;
    config.network = network;
    config.seed = shard_seed(7, shard);
    return std::make_unique<EdgeRouter>(
        config, make_state_filter(bitmap_filter_spec(BitmapFilterConfig{})),
        std::make_unique<ConstantDropPolicy>(1.0));
  };
}

ShardRouterFactory spi_factory() {
  return [](const ClientNetwork& network, std::size_t shard) {
    EdgeRouterConfig config;
    config.network = network;
    config.seed = shard_seed(7, shard);
    return std::make_unique<EdgeRouter>(
        config, make_state_filter(spi_filter_spec(SpiFilterConfig{})),
        std::make_unique<ConstantDropPolicy>(1.0));
  };
}

std::uint64_t total_packets(const EdgeRouterStats& stats) {
  return stats.outbound_packets + stats.inbound_passed_packets +
         stats.inbound_dropped_packets + stats.suppressed_outbound_packets +
         stats.ignored_packets;
}

ParallelReplayResult run_with_spec(const std::string& spec_text,
                                   std::size_t threads,
                                   const ShardRouterFactory& factory) {
  const GeneratedTrace& trace = shared_trace();
  FaultInjector injector{FaultSpec::parse(spec_text), 7};
  ParallelReplayConfig config;
  config.threads = threads;
  config.shards = 8;
  if (injector.armed()) config.fault_injector = &injector;
  return parallel_replay(trace.packets, trace.network, factory, config);
}

TEST(FaultMatrix, EveryKindIsRunToRunReproducible) {
  const char* kSpecs[] = {
      "kill-shard:1@200",   "stall-shard:2@100:20", "corrupt:0.05",
      "clock-step:-1.5@500", "clock-skew:1.0001",   "flip-bit:0:123@50",
      "ring-overflow:3",     "kill-shard:1@200,corrupt:0.02,flip-bit:4:9@10",
  };
  for (const char* spec : kSpecs) {
    const ParallelReplayResult a = run_with_spec(spec, 4, bitmap_factory());
    const ParallelReplayResult b = run_with_spec(spec, 4, bitmap_factory());
    EXPECT_EQ(a.merged.stats, b.merged.stats) << spec;
    EXPECT_EQ(a.shard_stats, b.shard_stats) << spec;
    EXPECT_EQ(a.shard_packets, b.shard_packets) << spec;
    EXPECT_EQ(a.shard_failed, b.shard_failed) << spec;
    EXPECT_EQ(a.failover_packets, b.failover_packets) << spec;
    EXPECT_EQ(a.merged.metrics.deterministic(),
              b.merged.metrics.deterministic())
        << spec;
  }
}

TEST(FaultMatrix, EveryKindConservesPackets) {
  const GeneratedTrace& trace = shared_trace();
  const char* kSpecs[] = {
      "kill-shard:1@200", "stall-shard:2@100:20", "corrupt:0.05",
      "clock-step:-1.5@500", "clock-skew:1.0001", "flip-bit:0:123@50",
      "ring-overflow:3",
  };
  for (const char* spec : kSpecs) {
    const ParallelReplayResult result = run_with_spec(spec, 4,
                                                      bitmap_factory());
    EXPECT_EQ(total_packets(result.merged.stats) + result.unroutable_packets +
                  result.lost_packets,
              trace.packets.size())
        << spec;
  }
}

TEST(FaultMatrix, StallAndRingOverflowAreResultNeutral) {
  // Timing-plane faults perturb scheduling and backpressure only; the
  // merged outcome must be byte-identical to the fault-free run.
  const ParallelReplayResult clean = run_with_spec("", 4, bitmap_factory());
  for (const char* spec : {"stall-shard:1@50:30", "ring-overflow:1",
                           "stall-shard:1@50:30,ring-overflow:2"}) {
    const ParallelReplayResult faulted = run_with_spec(spec, 4,
                                                       bitmap_factory());
    EXPECT_EQ(clean.merged.stats, faulted.merged.stats) << spec;
    EXPECT_EQ(clean.shard_stats, faulted.shard_stats) << spec;
    EXPECT_EQ(clean.shard_packets, faulted.shard_packets) << spec;
  }
}

TEST(FaultMatrix, DaemonPlaneKindsAreInertInShardReplay) {
  // capture.* and checkpoint.* address the live daemon's capture loop
  // and checkpointer. Inside the shard replay engine they must parse,
  // ride along with shard-scoped kinds in one spec, and leave the result
  // byte-identical to a fault-free run.
  const ParallelReplayResult clean = run_with_spec("", 4, bitmap_factory());
  for (const char* spec :
       {"capture.kill@100", "capture.stall:40@100", "checkpoint.corrupt:1",
        "capture.kill@100,capture.stall:40@100,checkpoint.corrupt:1"}) {
    const ParallelReplayResult faulted =
        run_with_spec(spec, 4, bitmap_factory());
    EXPECT_EQ(clean.merged.stats, faulted.merged.stats) << spec;
    EXPECT_EQ(clean.shard_stats, faulted.shard_stats) << spec;
    EXPECT_EQ(clean.shard_packets, faulted.shard_packets) << spec;
    EXPECT_EQ(clean.shard_failed, faulted.shard_failed) << spec;
  }
  // Mixed daemon + shard kinds behave exactly like the shard kind alone.
  const ParallelReplayResult shard_only =
      run_with_spec("stall-shard:1@50:30", 4, bitmap_factory());
  const ParallelReplayResult mixed = run_with_spec(
      "stall-shard:1@50:30,capture.kill@10,checkpoint.corrupt:1", 4,
      bitmap_factory());
  EXPECT_EQ(shard_only.merged.stats, mixed.merged.stats);
  EXPECT_EQ(shard_only.shard_stats, mixed.shard_stats);
}

TEST(FaultMatrix, FlipBitPerturbsBitmapDecisions) {
  const GeneratedTrace& trace = shared_trace();
  // Flip a handful of bits in every shard's current vector early on: the
  // run must complete, and the flips are recorded as applied.
  FaultInjector injector{
      FaultSpec::parse("flip-bit:0:1@10,flip-bit:1:2@10,flip-bit:2:3@10"),
      7};
  ParallelReplayConfig config;
  config.threads = 4;
  config.shards = 8;
  config.fault_injector = &injector;
  const ParallelReplayResult result =
      parallel_replay(trace.packets, trace.network, bitmap_factory(), config);
  EXPECT_EQ(injector.bits_flipped(), 3u);
  EXPECT_EQ(injector.flips_ignored(), 0u);
  EXPECT_EQ(total_packets(result.merged.stats), trace.packets.size());
}

TEST(FaultMatrix, FlipBitIgnoredButCountedOnSpiFilter) {
  const GeneratedTrace& trace = shared_trace();
  FaultInjector injector{FaultSpec::parse("flip-bit:0:123@50"), 7};
  ParallelReplayConfig config;
  config.threads = 2;
  config.shards = 4;
  config.fault_injector = &injector;
  const ParallelReplayResult result =
      parallel_replay(trace.packets, trace.network, spi_factory(), config);
  EXPECT_EQ(injector.bits_flipped(), 0u);
  EXPECT_EQ(injector.flips_ignored(), 1u);
  EXPECT_EQ(total_packets(result.merged.stats), trace.packets.size());
}

TEST(FaultMatrix, FaultCountersAreExportedDeterministically) {
  const ParallelReplayResult result =
      run_with_spec("corrupt:0.05,kill-shard:1@200", 4, bitmap_factory());
  const MetricsSnapshot snap = result.merged.metrics.deterministic();
  bool saw_corrupted = false;
  bool saw_killed = false;
  for (const CounterSample& sample : snap.counters) {
    if (sample.name == "fault.packets_corrupted") {
      saw_corrupted = true;
      EXPECT_GT(sample.value, 0u);
    }
    if (sample.name == "replay.lanes_killed") {
      saw_killed = true;
      EXPECT_EQ(sample.value, 1u);
    }
  }
  EXPECT_TRUE(saw_corrupted);
  EXPECT_TRUE(saw_killed);
}

TEST(FaultMatrix, BindRejectsOutOfRangeShard) {
  const GeneratedTrace& trace = shared_trace();
  FaultInjector injector{FaultSpec::parse("kill-shard:9@0"), 7};
  ParallelReplayConfig config;
  config.shards = 4;
  config.fault_injector = &injector;
  EXPECT_THROW(parallel_replay(trace.packets, trace.network, bitmap_factory(),
                               config),
               std::invalid_argument);
}

}  // namespace
}  // namespace upbound
