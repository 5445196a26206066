// Sharded multi-threaded trace replay.
//
// The packet stream is partitioned by the canonical (direction-independent)
// five-tuple hash into S shards; each shard owns a full EdgeRouter (its own
// state filter, bandwidth meter, blocklist, rng, and counter registry) and
// consumes its packets, in trace order, from a bounded SPSC ring fed by the
// partitioning thread. Because every per-connection structure -- filter
// marks/lookups, blocklist entries, and the bitmap rotation schedule
// (anchored at SimTime::origin(), identical in every shard) -- is keyed by
// the five-tuple, a shard sees exactly the packets its state depends on:
// sharding preserves per-flow filter semantics, and only cross-flow
// couplings (Bloom false positives from other shards' flows, the shared
// uplink meter) become shard-local. That is the paper's Fig. 6 FilterBank
// deployment applied within one site.
//
// Determinism: the shard decomposition is part of the semantics (fixed
// shard count S, independent of the worker-thread count), each shard's
// computation is a pure function of its packet subsequence, and the merge
// runs in shard-index order. Merged stats, counters, and throughput series
// are therefore byte-identical for any thread count, and equal to driving
// the same S routers through the sequential replay_trace path
// (sharded_replay_reference below) -- the property the determinism tests
// lock in. All series values are integer byte counts stored in doubles, so
// even the floating-point bucket sums are exact and order-independent.
//
// Shared-filter mode: instead of one BitmapFilter per shard, every shard's
// router can drive a single ConcurrentBitmapFilter through a non-owning
// SharedFilterView. That trades per-shard state isolation for one global
// filter (k*N/8 bytes total instead of S times that) at the cost of
// determinism: racing marks and rotations make decisions run-dependent
// within the one-rotation approximation window the concurrent filter
// documents.
//
// Supervision and failover: every shard lane carries a heartbeat the
// worker bumps per chunk; a wall-clock watchdog condemns a lane whose
// worker makes no progress while packets wait, and a condemned (or
// fault-killed, or crashed) lane dies at a chunk boundary. A dead lane's
// unprocessed packets -- the remainder of its in-flight chunk, everything
// queued in its ring, and everything the partitioner routes to it later
// -- accumulate in trace order in the lane's sidecar. After the workers
// join, the failover re-merge rule runs: dead shards are visited in
// ascending shard index; each sidecar packet goes to the surviving shard
// alive[tuple_hash(canonical, shard-salt) % alive_count], and each
// surviving shard processes its failover packets, in that order, after
// its primary stream (timestamp regressions at the seam are clamped and
// counted by the router). Every input to the rule -- the death point of
// an injector-killed lane, sidecar order, the alive set -- is a pure
// function of (trace, spec, seed, S), so a kill-shard run is bitwise
// identical at any thread count. Watchdog condemnations are wall-clock
// triggered and therefore outside that contract: they guarantee the
// replay completes, not that two runs agree.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "fault/fault_injector.h"
#include "filter/state_filter.h"
#include "sim/replay.h"

namespace upbound {

/// Default shard count when ParallelReplayConfig::shards is 0. Fixed and
/// thread-count independent so results never depend on worker scheduling.
inline constexpr std::size_t kDefaultShardCount = 8;
/// Largest accepted shard count: each shard owns a router and a filter.
inline constexpr std::size_t kMaxShardCount = 256;

struct ParallelReplayConfig {
  /// Worker threads; clamped to [1, shards]. Thread count affects wall
  /// time only, never results.
  std::size_t threads = 1;
  /// Shard count S (0 = kDefaultShardCount). Part of the semantics: the
  /// same trace replayed with a different S is a different deployment.
  std::size_t shards = 0;
  Duration series_bucket = Duration::sec(1.0);
  /// Packets per chunk pushed through a shard's ring.
  std::size_t chunk_packets = 256;
  /// Chunks buffered per shard ring (bounds in-flight memory).
  std::size_t ring_chunks = 64;
  /// Deterministic fault injector (non-owning; may be nullptr). When armed,
  /// the engine calls bind(shards) before feeding and applies feed faults in
  /// the partitioner and lane faults in the owning worker.
  FaultInjector* fault_injector = nullptr;
  /// Watchdog: a live lane whose worker bumped no heartbeat for this long
  /// while packets sat in its ring is condemned; the worker acknowledges at
  /// its next chunk boundary and the lane fails over. Zero disables the
  /// watchdog. Wall-clock by nature -- a liveness guarantee, not part of the
  /// determinism contract. Heartbeats are per lane, so when a worker
  /// multiplexes several lanes and wedges, every lane it owns stops
  /// heartbeating and all of them are condemned -- the effective failure
  /// unit is the worker, not just the lane it got stuck in.
  std::chrono::milliseconds watchdog_timeout{10000};
};

struct ParallelReplayResult {
  /// Shard-order merge of every shard's ReplayResult.
  ReplayResult merged;
  /// Per-shard stats, indexed by shard.
  std::vector<EdgeRouterStats> shard_stats;
  /// Packets routed to each shard.
  std::vector<std::uint64_t> shard_packets;
  /// Final filter storage per shard (captured before the routers die).
  std::vector<std::size_t> shard_filter_bytes;
  /// Name reported by shard 0's filter.
  std::string filter_name;
  std::size_t shards = 0;
  std::size_t threads = 0;
  /// 1 for each shard whose lane died (injected kill, watchdog
  /// condemnation, or worker crash); its stats/metrics above are frozen at
  /// the death point.
  std::vector<std::uint8_t> shard_failed;
  /// Packets re-routed from dead lanes into surviving shards by the
  /// failover rule documented at the top of this header.
  std::uint64_t failover_packets = 0;
  /// Sidecar packets with no surviving shard to take them (every lane
  /// died).
  std::uint64_t unroutable_packets = 0;
  /// In-flight packets discarded when a router threw mid-sub-batch (a
  /// partially applied sub-batch cannot be replayed safely); the rest of
  /// its chunk fails over.
  std::uint64_t lost_packets = 0;
  /// Lanes condemned by the wall-clock watchdog. Kept out of
  /// merged.metrics: it is timing-dependent, unlike the injected-fault
  /// counters there.
  std::uint64_t lanes_condemned = 0;

  explicit ParallelReplayResult(Duration bucket) : merged(bucket) {}
};

/// Builds the router guarding one shard. Invoked on the calling thread, in
/// shard order, before any worker starts -- a factory may derive per-shard
/// seeds (see shard_seed) without risking nondeterminism.
using ShardRouterFactory = std::function<std::unique_ptr<EdgeRouter>(
    const ClientNetwork& network, std::size_t shard)>;

/// Shard index for a tuple: canonical-tuple hash, so a connection and its
/// inverse (outbound marks, inbound lookups, blocklist entries) always land
/// in the same shard.
std::size_t shard_of(const FiveTuple& tuple, std::size_t shards);

/// Deterministic per-shard seed derivation (splitmix64 over seed, shard).
std::uint64_t shard_seed(std::uint64_t seed, std::size_t shard);

/// Replays `trace` through S shard routers on `config.threads` workers.
/// Returns the deterministic shard-order merge plus per-shard stats.
ParallelReplayResult parallel_replay(const Trace& trace,
                                     const ClientNetwork& network,
                                     const ShardRouterFactory& factory,
                                     const ParallelReplayConfig& config = {});

/// The sequential reference: partitions `trace` with the same shard_of,
/// drives each shard's sub-trace through the plain replay_trace path on the
/// calling thread, and merges identically. parallel_replay at any thread
/// count must produce a byte-identical result.
ParallelReplayResult sharded_replay_reference(
    const Trace& trace, const ClientNetwork& network,
    const ShardRouterFactory& factory, const ParallelReplayConfig& config = {});

/// Non-owning StateFilter adapter: forwards every call to a shared filter
/// instance, so each shard's EdgeRouter can drive one thread-safe filter
/// (shared-filter mode). The shared filter must outlive every view and be
/// safe for concurrent use (e.g. ConcurrentBitmapFilter).
class SharedFilterView final : public StateFilter {
 public:
  explicit SharedFilterView(StateFilter& shared) : shared_(&shared) {}

  void advance_time(SimTime now) override { shared_->advance_time(now); }
  void record_outbound(const PacketRecord& pkt) override {
    shared_->record_outbound(pkt);
  }
  bool admits_inbound(const PacketRecord& pkt) override {
    return shared_->admits_inbound(pkt);
  }
  void record_outbound_batch(PacketBatch batch) override {
    shared_->record_outbound_batch(batch);
  }
  void admits_inbound_batch(PacketBatch batch,
                            std::span<bool> admits) override {
    shared_->admits_inbound_batch(batch, admits);
  }
  bool inbound_lookup_is_pure() const override {
    return shared_->inbound_lookup_is_pure();
  }
  std::size_t storage_bytes() const override {
    return shared_->storage_bytes();
  }
  std::string name() const override { return shared_->name() + "-shared"; }

 private:
  StateFilter* shared_;
};

}  // namespace upbound
