// Determinism contract of the sharded parallel replay engine:
//
//   1. shard placement is connection-stable (a tuple and its inverse share
//      a shard),
//   2. the merged result is byte-identical for any worker thread count,
//   3. it equals driving the same shard routers through the sequential
//      replay_trace path (sharded_replay_reference),
//   4. with S = 1 it collapses to the plain single-router replay exactly,
//   5. merged offered load equals the trace's offered load,
//   6. shared-filter mode conserves packets even though its decisions are
//      run-dependent.
#include "filter/filter_registry.h"
#include "sim/parallel_replay.h"

#include <gtest/gtest.h>

#include "filter/bitmap_filter.h"
#include "filter/concurrent_bitmap.h"
#include "filter/drop_policy.h"
#include "trace/campus.h"
#include "util/rng.h"

namespace upbound {
namespace {

const GeneratedTrace& shared_trace() {
  static const GeneratedTrace trace = [] {
    CampusTraceConfig config;
    config.duration = Duration::sec(40.0);
    config.connections_per_sec = 60.0;
    config.bandwidth_bps = 12e6;
    config.seed = 3;
    return generate_campus_trace(config);
  }();
  return trace;
}

EdgeRouterConfig shard_config(const ClientNetwork& network, std::size_t shard,
                              bool blocklist) {
  EdgeRouterConfig config;
  config.network = network;
  config.track_blocked_connections = blocklist;
  config.seed = shard_seed(7, shard);
  return config;
}

ShardRouterFactory bitmap_factory(bool blocklist = true) {
  return [blocklist](const ClientNetwork& network, std::size_t shard) {
    return std::make_unique<EdgeRouter>(
        shard_config(network, shard, blocklist),
        make_state_filter(bitmap_filter_spec(BitmapFilterConfig{})),
        std::make_unique<ConstantDropPolicy>(1.0));
  };
}

std::uint64_t total_packets(const EdgeRouterStats& stats) {
  return stats.outbound_packets + stats.inbound_passed_packets +
         stats.inbound_dropped_packets + stats.suppressed_outbound_packets +
         stats.ignored_packets;
}

TEST(ParallelReplay, ShardPlacementIsConnectionStable) {
  Rng rng{99};
  for (int i = 0; i < 2000; ++i) {
    FiveTuple t;
    t.protocol = rng.next_bool(0.5) ? Protocol::kTcp : Protocol::kUdp;
    t.src_addr = Ipv4Addr{static_cast<std::uint32_t>(rng.next_u64())};
    t.dst_addr = Ipv4Addr{static_cast<std::uint32_t>(rng.next_u64())};
    t.src_port = static_cast<std::uint16_t>(rng.next_below(65536));
    t.dst_port = static_cast<std::uint16_t>(rng.next_below(65536));
    for (const std::size_t shards : {1u, 2u, 8u, 13u}) {
      const std::size_t s = shard_of(t, shards);
      ASSERT_LT(s, shards);
      // The inverse direction of the same connection must land in the same
      // shard, or marks and lookups would be split across filters.
      ASSERT_EQ(s, shard_of(t.inverse(), shards));
    }
  }
}

TEST(ParallelReplay, ShardSeedsAreDistinct) {
  EXPECT_NE(shard_seed(7, 0), shard_seed(7, 1));
  EXPECT_NE(shard_seed(7, 0), shard_seed(8, 0));
  EXPECT_NE(shard_seed(7, 1), shard_seed(7, 2));
}

TEST(ParallelReplay, NullFactoryThrows) {
  const ShardRouterFactory broken = [](const ClientNetwork&, std::size_t) {
    return std::unique_ptr<EdgeRouter>{};
  };
  EXPECT_THROW(parallel_replay(shared_trace().packets, shared_trace().network,
                               broken),
               std::invalid_argument);
}

// Every shard owns a router and a filter: a shard count above
// kMaxShardCount is refused before the factory builds any of them.
TEST(ParallelReplay, TooManyShardsThrowBeforeTheFactoryRuns) {
  std::size_t calls = 0;
  const ShardRouterFactory counting = [&calls](const ClientNetwork& network,
                                               std::size_t shard) {
    ++calls;
    return bitmap_factory()(network, shard);
  };
  ParallelReplayConfig config;
  config.shards = kMaxShardCount + 1;
  EXPECT_THROW(parallel_replay(shared_trace().packets, shared_trace().network,
                               counting, config),
               std::invalid_argument);
  EXPECT_THROW(sharded_replay_reference(shared_trace().packets,
                                        shared_trace().network, counting,
                                        config),
               std::invalid_argument);
  EXPECT_EQ(calls, 0u);
}

TEST(ParallelReplay, MergedResultInvariantUnderThreadCount) {
  const GeneratedTrace& trace = shared_trace();
  ParallelReplayConfig config;
  config.shards = 8;

  const ParallelReplayResult reference = sharded_replay_reference(
      trace.packets, trace.network, bitmap_factory(), config);
  ASSERT_GT(trace.packets.size(), 0u);

  for (const std::size_t threads : {1u, 2u, 4u, 8u}) {
    config.threads = threads;
    const ParallelReplayResult result =
        parallel_replay(trace.packets, trace.network, bitmap_factory(), config);

    EXPECT_EQ(result.shards, 8u) << "threads=" << threads;
    // Byte-identical merge: stats, per-stage counters, and every series
    // bucket, regardless of worker scheduling.
    EXPECT_TRUE(result.merged == reference.merged) << "threads=" << threads;
    EXPECT_EQ(result.shard_stats, reference.shard_stats)
        << "threads=" << threads;
    EXPECT_EQ(result.shard_packets, reference.shard_packets)
        << "threads=" << threads;
    EXPECT_EQ(result.shard_filter_bytes, reference.shard_filter_bytes)
        << "threads=" << threads;
  }
}

TEST(ParallelReplay, ChunkSizeDoesNotChangeResults) {
  const GeneratedTrace& trace = shared_trace();
  ParallelReplayConfig config;
  config.shards = 4;
  config.threads = 2;

  config.chunk_packets = 256;
  const ParallelReplayResult big =
      parallel_replay(trace.packets, trace.network, bitmap_factory(), config);
  config.chunk_packets = 7;  // odd and tiny: lots of ring traffic
  config.ring_chunks = 3;
  const ParallelReplayResult small =
      parallel_replay(trace.packets, trace.network, bitmap_factory(), config);
  EXPECT_TRUE(big.merged == small.merged);
  EXPECT_EQ(big.shard_stats, small.shard_stats);
}

TEST(ParallelReplay, SingleShardEqualsPlainSequentialReplay) {
  const GeneratedTrace& trace = shared_trace();

  EdgeRouter router{shard_config(trace.network, 0, true),
                    make_state_filter(bitmap_filter_spec(BitmapFilterConfig{})),
                    std::make_unique<ConstantDropPolicy>(1.0)};
  const ReplayResult sequential =
      replay_trace(trace.packets, router, trace.network);

  ParallelReplayConfig config;
  config.shards = 1;
  config.threads = 4;  // clamped to 1 worker; semantics unchanged
  const ParallelReplayResult parallel =
      parallel_replay(trace.packets, trace.network, bitmap_factory(), config);

  EXPECT_EQ(parallel.threads, 1u);
  EXPECT_TRUE(parallel.merged == sequential);
}

TEST(ParallelReplay, MergedOfferedLoadMatchesTrace) {
  const GeneratedTrace& trace = shared_trace();
  ParallelReplayConfig config;
  config.threads = 4;
  const ParallelReplayResult result =
      parallel_replay(trace.packets, trace.network, bitmap_factory(), config);
  const ReplayResult offered = offered_load(trace.packets, trace.network);

  // Partitioning only reshuffles which shard accounts a packet; the merged
  // offered series must reproduce the whole-trace accounting bucket for
  // bucket (integer byte counts, so double sums are exact).
  EXPECT_TRUE(result.merged.offered_outbound == offered.offered_outbound);
  EXPECT_TRUE(result.merged.offered_inbound == offered.offered_inbound);
  EXPECT_DOUBLE_EQ(result.merged.offered_outbound.total(),
                   static_cast<double>(trace.outbound_bytes));

  std::uint64_t shard_total = 0;
  for (const std::uint64_t count : result.shard_packets) shard_total += count;
  EXPECT_EQ(shard_total, trace.packets.size());
  EXPECT_EQ(total_packets(result.merged.stats), trace.packets.size());
}

TEST(ParallelReplay, EpochStampedTraceMatchesOriginStampedTrace) {
  // Real captures carry Unix-epoch stamps. 1.7e9 s is a whole number of
  // rotation intervals, meter slots and series buckets, so the shifted
  // trace must replay to exactly the same stats -- without sizing any
  // series from the origin (1.7e9 one-second buckets would be 13.6 GB).
  const GeneratedTrace& trace = shared_trace();
  const Duration shift = Duration::sec(1'700'000'000.0);
  Trace shifted = trace.packets;
  for (PacketRecord& pkt : shifted) pkt.timestamp = pkt.timestamp + shift;
  const ShardRouterFactory factory = [](const ClientNetwork& network,
                                        std::size_t shard) {
    return std::make_unique<EdgeRouter>(
        shard_config(network, shard, /*blocklist=*/true),
        make_state_filter(bitmap_filter_spec(BitmapFilterConfig{})),
        std::make_unique<RedDropPolicy>(3e6, 6e6));
  };

  const auto sequential = [&](const Trace& packets) {
    const std::unique_ptr<EdgeRouter> router = factory(trace.network, 0);
    return replay_trace(packets, *router, trace.network);
  };
  const ReplayResult origin = sequential(trace.packets);
  const ReplayResult epoch = sequential(shifted);
  EXPECT_EQ(epoch.stats, origin.stats);
  EXPECT_EQ(epoch.passed_outbound.total(), origin.passed_outbound.total());
  EXPECT_EQ(epoch.passed_inbound.first_bucket(),
            origin.passed_inbound.first_bucket() + 1'700'000'000u);

  ParallelReplayConfig config;
  config.threads = 2;
  const ParallelReplayResult parallel_origin =
      parallel_replay(trace.packets, trace.network, factory, config);
  const ParallelReplayResult parallel_epoch =
      parallel_replay(shifted, trace.network, factory, config);
  EXPECT_EQ(parallel_epoch.merged.stats, parallel_origin.merged.stats);
  EXPECT_EQ(parallel_epoch.lost_packets, 0u);
  EXPECT_EQ(parallel_epoch.unroutable_packets, 0u);
  EXPECT_EQ(total_packets(parallel_epoch.merged.stats), shifted.size());
}

TEST(ParallelReplay, SharedFilterModeConservesPackets) {
  const GeneratedTrace& trace = shared_trace();

  ConcurrentBitmapFilter shared{BitmapFilterConfig{}};
  const ShardRouterFactory factory = [&shared](const ClientNetwork& network,
                                               std::size_t shard) {
    return std::make_unique<EdgeRouter>(
        shard_config(network, shard, false),
        std::make_unique<SharedFilterView>(shared),
        std::make_unique<ConstantDropPolicy>(1.0));
  };

  ParallelReplayConfig config;
  config.threads = 4;
  const ParallelReplayResult result =
      parallel_replay(trace.packets, trace.network, factory, config);

  EXPECT_EQ(total_packets(result.merged.stats), trace.packets.size());
  EXPECT_EQ(result.merged.stats.outbound_packets +
                result.merged.stats.suppressed_outbound_packets,
            [&] {
              std::uint64_t outbound = 0;
              for (const PacketRecord& pkt : trace.packets) {
                if (trace.network.classify(pkt) == Direction::kOutbound) {
                  ++outbound;
                }
              }
              return outbound;
            }());
  // The shared filter still admits solicited traffic: the drop rate stays
  // in the same regime as the per-shard run (racing rotations may perturb
  // individual verdicts but not the aggregate behaviour).
  EXPECT_LT(result.merged.stats.inbound_drop_rate(), 0.30);
  EXPECT_EQ(result.filter_name, "bitmap-concurrent-shared");
}

}  // namespace
}  // namespace upbound
