// Shard-kill failover: a dead lane's stream is re-merged into the
// survivors by the documented re-merge rule, and the whole thing is a
// pure function of (trace, spec, seed, shards) -- byte-identical at any
// worker thread count, with no packet gained or lost.
#include <gtest/gtest.h>

#include "fault/fault_injector.h"
#include "filter/bitmap_filter.h"
#include "filter/drop_policy.h"
#include "filter/filter_registry.h"
#include "sim/parallel_replay.h"
#include "trace/campus.h"

namespace upbound {
namespace {

const GeneratedTrace& shared_trace() {
  static const GeneratedTrace trace = [] {
    CampusTraceConfig config;
    config.duration = Duration::sec(25.0);
    config.connections_per_sec = 50.0;
    config.bandwidth_bps = 8e6;
    config.seed = 9;
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

std::uint64_t total_packets(const EdgeRouterStats& stats) {
  return stats.outbound_packets + stats.inbound_passed_packets +
         stats.inbound_dropped_packets + stats.suppressed_outbound_packets +
         stats.ignored_packets;
}

ParallelReplayResult run_killed(std::size_t threads,
                                const std::string& spec_text) {
  const GeneratedTrace& trace = shared_trace();
  FaultInjector injector{FaultSpec::parse(spec_text), 7};
  ParallelReplayConfig config;
  config.threads = threads;
  config.shards = 8;
  config.fault_injector = &injector;
  return parallel_replay(trace.packets, trace.network, bitmap_factory(),
                         config);
}

TEST(FaultFailover, KillShardResultInvariantUnderThreadCount) {
  const std::string spec = "kill-shard:2@300";
  const ParallelReplayResult reference = run_killed(1, spec);
  ASSERT_EQ(reference.shard_failed.size(), 8u);
  EXPECT_EQ(reference.shard_failed[2], 1u);
  EXPECT_GT(reference.failover_packets, 0u);

  for (const std::size_t threads : {2u, 4u, 8u}) {
    const ParallelReplayResult result = run_killed(threads, spec);
    EXPECT_EQ(result.merged.stats, reference.merged.stats)
        << "threads=" << threads;
    EXPECT_EQ(result.shard_stats, reference.shard_stats)
        << "threads=" << threads;
    EXPECT_EQ(result.shard_packets, reference.shard_packets)
        << "threads=" << threads;
    EXPECT_EQ(result.shard_failed, reference.shard_failed)
        << "threads=" << threads;
    EXPECT_EQ(result.failover_packets, reference.failover_packets)
        << "threads=" << threads;
    EXPECT_EQ(result.merged.metrics.deterministic(),
              reference.merged.metrics.deterministic())
        << "threads=" << threads;
  }
}

TEST(FaultFailover, KilledShardFreezesAtDeathPoint) {
  const ParallelReplayResult result = run_killed(4, "kill-shard:2@300");
  // The dead lane processed exactly its pre-death prefix ...
  EXPECT_EQ(result.shard_packets[2], 300u);
  EXPECT_EQ(total_packets(result.shard_stats[2]), 300u);
  // ... and nothing went missing: the suffix was absorbed elsewhere.
  EXPECT_EQ(total_packets(result.merged.stats), shared_trace().packets.size());
  EXPECT_EQ(result.unroutable_packets, 0u);
  EXPECT_EQ(result.lost_packets, 0u);
}

TEST(FaultFailover, KillBeforeFirstPacketFailsOverEverything) {
  const ParallelReplayResult result = run_killed(4, "kill-shard:5@0");
  EXPECT_EQ(result.shard_packets[5], 0u);
  EXPECT_EQ(total_packets(result.shard_stats[5]), 0u);
  EXPECT_GT(result.failover_packets, 0u);
  EXPECT_EQ(total_packets(result.merged.stats), shared_trace().packets.size());
}

TEST(FaultFailover, AllLanesDeadMeansUnroutable) {
  const GeneratedTrace& trace = shared_trace();
  FaultInjector injector{FaultSpec::parse("kill-shard:0@0,kill-shard:1@0"),
                         7};
  ParallelReplayConfig config;
  config.threads = 2;
  config.shards = 2;
  config.fault_injector = &injector;
  const ParallelReplayResult result =
      parallel_replay(trace.packets, trace.network, bitmap_factory(), config);
  EXPECT_EQ(result.unroutable_packets, trace.packets.size());
  EXPECT_EQ(total_packets(result.merged.stats), 0u);
  EXPECT_EQ(result.failover_packets, 0u);
}

TEST(FaultFailover, WatchdogCondemnationMatchesKillAtSamePoint) {
  // A lane stalled far past the watchdog timeout is condemned; the worker
  // acknowledges right at the stall point, so the failover outcome equals
  // an explicit kill at the same packet index. (Metrics differ -- the
  // stall and condemnation counters record the different cause -- but the
  // replay outcome must not.) One worker per lane: the watchdog fails over
  // every lane of a wedged worker, so sharing the stalled thread would
  // condemn innocent co-resident lanes too.
  const GeneratedTrace& trace = shared_trace();
  FaultInjector stalled{FaultSpec::parse("stall-shard:1@200:1500"), 7};
  ParallelReplayConfig config;
  config.threads = 8;
  config.shards = 8;
  config.fault_injector = &stalled;
  config.watchdog_timeout = std::chrono::milliseconds{100};
  const ParallelReplayResult condemned =
      parallel_replay(trace.packets, trace.network, bitmap_factory(), config);
  ASSERT_EQ(condemned.shard_failed[1], 1u);
  EXPECT_GE(condemned.lanes_condemned, 1u);

  const ParallelReplayResult killed = run_killed(8, "kill-shard:1@200");
  EXPECT_EQ(condemned.merged.stats, killed.merged.stats);
  EXPECT_EQ(condemned.shard_stats, killed.shard_stats);
  EXPECT_EQ(condemned.shard_packets, killed.shard_packets);
  EXPECT_EQ(condemned.shard_failed, killed.shard_failed);
  EXPECT_EQ(condemned.failover_packets, killed.failover_packets);
}

TEST(FaultFailover, WatchdogLeavesHealthyLanesAlone) {
  // An aggressive watchdog over a fault-free run must condemn nothing and
  // reproduce the unfaulted result exactly.
  const GeneratedTrace& trace = shared_trace();
  ParallelReplayConfig config;
  config.threads = 4;
  config.shards = 8;
  config.watchdog_timeout = std::chrono::milliseconds{1000};
  const ParallelReplayResult watched =
      parallel_replay(trace.packets, trace.network, bitmap_factory(), config);
  ParallelReplayConfig plain = config;
  plain.watchdog_timeout = std::chrono::milliseconds{0};
  const ParallelReplayResult unwatched =
      parallel_replay(trace.packets, trace.network, bitmap_factory(), plain);
  EXPECT_EQ(watched.lanes_condemned, 0u);
  for (const std::uint8_t failed : watched.shard_failed) {
    EXPECT_EQ(failed, 0u);
  }
  EXPECT_EQ(watched.merged.stats, unwatched.merged.stats);
  EXPECT_EQ(watched.merged.metrics.deterministic(),
            unwatched.merged.metrics.deterministic());
}

TEST(FaultFailover, ReferenceEngineRejectsInjector) {
  const GeneratedTrace& trace = shared_trace();
  FaultInjector injector{FaultSpec::parse("kill-shard:0@0"), 7};
  ParallelReplayConfig config;
  config.shards = 4;
  config.fault_injector = &injector;
  EXPECT_THROW(sharded_replay_reference(trace.packets, trace.network,
                                        bitmap_factory(), config),
               std::invalid_argument);
}

}  // namespace
}  // namespace upbound
