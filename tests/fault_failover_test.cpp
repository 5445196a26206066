// Shard-kill failover: a dead lane's stream is re-merged into the
// survivors by the documented re-merge rule, and the whole thing is a
// pure function of (trace, spec, seed, shards) -- byte-identical at any
// worker thread count, with no packet gained or lost.
#include <gtest/gtest.h>

#include <optional>
#include <stdexcept>

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

/// A bitmap filter that throws on its 101st outbound mark: a stand-in for
/// a router bug that blows up in the middle of a batch.
class ThrowingFilter final : public StateFilter {
 public:
  ThrowingFilter()
      : inner_(make_state_filter(bitmap_filter_spec(BitmapFilterConfig{}))) {}

  void advance_time(SimTime now) override { inner_->advance_time(now); }
  void record_outbound(const PacketRecord& pkt) override {
    if (++marks_ == 101) throw std::runtime_error("injected filter crash");
    inner_->record_outbound(pkt);
  }
  bool admits_inbound(const PacketRecord& pkt) override {
    return inner_->admits_inbound(pkt);
  }
  std::size_t storage_bytes() const override {
    return inner_->storage_bytes();
  }
  std::string name() const override { return "throwing"; }

 private:
  std::unique_ptr<StateFilter> inner_;
  std::uint64_t marks_ = 0;
};

constexpr std::size_t kCrashShard = 3;

/// Eight-shard replay in which shard 3's filter throws; `spec_text` (may
/// be empty) arms the fault plane on top.
ParallelReplayResult run_crashed(std::size_t threads,
                                 const std::string& spec_text) {
  const GeneratedTrace& trace = shared_trace();
  const ShardRouterFactory factory = [](const ClientNetwork& network,
                                        std::size_t shard) {
    EdgeRouterConfig config;
    config.network = network;
    config.seed = shard_seed(7, shard);
    std::unique_ptr<StateFilter> filter =
        shard == kCrashShard
            ? std::make_unique<ThrowingFilter>()
            : make_state_filter(bitmap_filter_spec(BitmapFilterConfig{}));
    return std::make_unique<EdgeRouter>(
        config, std::move(filter), std::make_unique<ConstantDropPolicy>(1.0));
  };
  std::optional<FaultInjector> injector;
  ParallelReplayConfig config;
  config.threads = threads;
  config.shards = 8;
  if (!spec_text.empty()) {
    injector.emplace(FaultSpec::parse(spec_text), 7);
    config.fault_injector = &*injector;
  }
  return parallel_replay(trace.packets, trace.network, factory, config);
}

std::uint64_t counter_of(const ParallelReplayResult& result,
                         const std::string& name) {
  for (const CounterSample& sample : result.merged.metrics.counters) {
    if (sample.name == name) return sample.value;
  }
  return 0;
}

/// The crashed lane self-heals: exactly one lane crashes, every packet is
/// processed, lost or unroutable, and the outcome is the same at 1, 2
/// and 8 worker threads.
void expect_crash_self_heals(const std::string& spec_text) {
  const ParallelReplayResult reference = run_crashed(1, spec_text);
  ASSERT_EQ(reference.shard_failed.size(), 8u);
  EXPECT_EQ(reference.shard_failed[kCrashShard], 1u);
  EXPECT_EQ(counter_of(reference, "replay.lanes_crashed"), 1u);
  EXPECT_GT(reference.lost_packets, 0u);
  EXPECT_GT(reference.failover_packets, 0u);
  std::uint64_t processed = 0;
  for (const std::uint64_t n : reference.shard_packets) processed += n;
  EXPECT_EQ(processed + reference.lost_packets + reference.unroutable_packets,
            shared_trace().packets.size());

  for (const std::size_t threads : {2u, 8u}) {
    const ParallelReplayResult result = run_crashed(threads, spec_text);
    EXPECT_EQ(result.merged.stats, reference.merged.stats)
        << "threads=" << threads;
    EXPECT_EQ(result.shard_packets, reference.shard_packets)
        << "threads=" << threads;
    EXPECT_EQ(result.shard_failed, reference.shard_failed)
        << "threads=" << threads;
    EXPECT_EQ(result.lost_packets, reference.lost_packets)
        << "threads=" << threads;
    EXPECT_EQ(result.failover_packets, reference.failover_packets)
        << "threads=" << threads;
    EXPECT_EQ(result.merged.metrics.deterministic(),
              reference.merged.metrics.deterministic())
        << "threads=" << threads;
  }
}

TEST(FaultFailover, WorkerCrashSelfHealsOnUnfaultedLane) {
  expect_crash_self_heals("");
  // The crashed chunk is lost whole: the throw lands in the lane's first
  // 256-packet chunk.
  const ParallelReplayResult result = run_crashed(2, "");
  EXPECT_EQ(result.lost_packets, 256u);
  EXPECT_EQ(result.failover_packets, 6342u);
  std::uint64_t processed = 0;
  for (const std::uint64_t n : result.shard_packets) processed += n;
  EXPECT_EQ(processed, 36028u);
}

TEST(FaultFailover, WorkerCrashSelfHealsOnFaultedLane) {
  // A 1 ms stall perturbs timing only: the lane that carries it must
  // self-heal from a crash exactly like an unfaulted one.
  expect_crash_self_heals("stall-shard:3@50:1");
  // A stall on another lane leaves the crash outcome untouched.
  const ParallelReplayResult plain = run_crashed(2, "");
  const ParallelReplayResult elsewhere = run_crashed(2, "stall-shard:5@50:1");
  EXPECT_EQ(elsewhere.merged.stats, plain.merged.stats);
  EXPECT_EQ(elsewhere.shard_packets, plain.shard_packets);
  EXPECT_EQ(elsewhere.lost_packets, plain.lost_packets);
  EXPECT_EQ(elsewhere.failover_packets, plain.failover_packets);
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
