#include "sim/parallel_replay.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <exception>
#include <stdexcept>
#include <thread>
#include <utility>

#include "util/backoff.h"
#include "util/metrics.h"
#include "util/rng.h"
#include "util/spsc_ring.h"

namespace upbound {

namespace {

/// Fixed salt so shard placement is stable across runs and processes
/// (changing it would change the decomposition, i.e. the semantics).
constexpr std::uint64_t kShardHashSeed = 0x73686172645f7632ULL;

/// A filled packet buffer in flight between the partitioner and a worker.
struct Chunk {
  PacketRecord* data = nullptr;
  std::size_t size = 0;
};

/// Lane liveness, driven by the worker and the watchdog:
/// live -> condemned (watchdog CAS) -> dead (worker ack at a chunk
/// boundary), or live -> dead directly (injected kill, worker crash).
/// kLaneDead is the ownership hand-off: the worker release-stores it after
/// its last touch of the lane, and the partitioner acquire-loads it before
/// reclaiming the ring and sidecar.
enum LaneState : std::uint32_t {
  kLaneLive = 0,
  kLaneCondemned = 1,
  kLaneDead = 2,
};

/// Per-shard hand-off lane: a data ring carrying filled chunks toward the
/// worker and a free ring recycling consumed buffers back, so steady-state
/// replay reuses ring_chunks fixed buffers per shard and never allocates.
struct ShardLane {
  /// Why a dead lane died (meaningful once state == kLaneDead).
  enum class Death { kNone, kKilled, kCondemned, kCrashed };

  explicit ShardLane(std::size_t ring_chunks, std::size_t chunk_packets)
      : data_ring(ring_chunks), free_ring(ring_chunks) {
    buffers.reserve(ring_chunks);
    for (std::size_t i = 0; i < ring_chunks; ++i) {
      buffers.push_back(std::make_unique<PacketRecord[]>(chunk_packets));
      free_ring.try_push(Chunk{buffers.back().get(), 0});
    }
  }

  SpscRing<Chunk> data_ring;  // partitioner -> worker
  SpscRing<Chunk> free_ring;  // worker -> partitioner
  std::vector<std::unique_ptr<PacketRecord[]>> buffers;
  std::atomic<bool> done{false};

  // Supervision plane.
  std::atomic<std::uint32_t> state{kLaneLive};
  /// Bumped by the worker once per consumed chunk; the watchdog condemns a
  /// live lane whose heartbeat sits still while chunks wait in its ring.
  std::atomic<std::uint64_t> heartbeat{0};
  /// The worker will never touch this lane again (normal completion or
  /// death) -- tells the watchdog to stop monitoring it.
  std::atomic<bool> finished{false};
  /// A dead lane's unprocessed packets, in stream order: the tail of the
  /// in-flight chunk plus the ring residue (appended by the dying worker,
  /// before the kLaneDead release-store), then whatever the partitioner
  /// reclaims and routes here afterwards.
  std::vector<PacketRecord> sidecar;
  Death death = Death::kNone;
  /// In-flight chunk packets discarded when the worker crashed mid-chunk.
  std::uint64_t lost = 0;

  // Partitioner-side fill state (only the partitioning thread touches it).
  Chunk filling;
  std::size_t fill = 0;
};

/// Copies the replay-relevant fields of a packet; payload bytes are not
/// consulted by any router stage (wire_size uses payload_size), so the
/// copy stays allocation-free.
void copy_for_replay(PacketRecord& dst, const PacketRecord& src) {
  dst.timestamp = src.timestamp;
  dst.tuple = src.tuple;
  dst.flags = src.flags;
  dst.payload_size = src.payload_size;
  dst.payload.clear();
  dst.checksum_valid = src.checksum_valid;
}

void sidecar_append(std::vector<PacketRecord>& sidecar,
                    const PacketRecord& src) {
  PacketRecord rec;
  copy_for_replay(rec, src);
  sidecar.push_back(std::move(rec));
}

ParallelReplayConfig resolve(const ParallelReplayConfig& config) {
  if (config.shards > kMaxShardCount) {
    throw std::invalid_argument("parallel_replay: shards > kMaxShardCount");
  }
  ParallelReplayConfig out = config;
  if (out.shards == 0) out.shards = kDefaultShardCount;
  if (out.threads == 0) out.threads = 1;
  if (out.threads > out.shards) out.threads = out.shards;
  if (out.chunk_packets == 0) out.chunk_packets = 256;
  if (out.ring_chunks < 2) out.ring_chunks = 2;
  return out;
}

std::vector<std::unique_ptr<EdgeRouter>> build_routers(
    const ClientNetwork& network, const ShardRouterFactory& factory,
    std::size_t shards) {
  std::vector<std::unique_ptr<EdgeRouter>> routers;
  routers.reserve(shards);
  for (std::size_t s = 0; s < shards; ++s) {
    routers.push_back(factory(network, s));
    if (routers.back() == nullptr) {
      throw std::invalid_argument("parallel_replay: factory returned null");
    }
  }
  return routers;
}

ParallelReplayResult merge_shards(
    const ParallelReplayConfig& config,
    std::vector<ReplayResult>& shard_results,
    std::vector<std::uint64_t>&& shard_packets,
    const std::vector<std::unique_ptr<EdgeRouter>>& routers) {
  ParallelReplayResult out{config.series_bucket};
  out.shards = config.shards;
  out.threads = config.threads;
  out.shard_packets = std::move(shard_packets);
  out.shard_stats.reserve(shard_results.size());
  for (const ReplayResult& result : shard_results) {
    out.shard_stats.push_back(result.stats);
    out.merged.merge(result);
  }
  out.shard_filter_bytes.reserve(routers.size());
  for (const auto& router : routers) {
    out.shard_filter_bytes.push_back(router->filter().storage_bytes());
  }
  if (!routers.empty()) out.filter_name = routers.front()->filter().name();
  return out;
}

}  // namespace

std::size_t shard_of(const FiveTuple& tuple, std::size_t shards) {
  if (shards <= 1) return 0;
  return static_cast<std::size_t>(
      tuple_hash(tuple.canonical(), kShardHashSeed) % shards);
}

std::uint64_t shard_seed(std::uint64_t seed, std::size_t shard) {
  std::uint64_t state = seed ^ (0x9e3779b97f4a7c15ULL * (shard + 1));
  return splitmix64(state);
}

ParallelReplayResult parallel_replay(const Trace& trace,
                                     const ClientNetwork& network,
                                     const ShardRouterFactory& factory,
                                     const ParallelReplayConfig& raw_config) {
  const ParallelReplayConfig config = resolve(raw_config);
  const std::size_t shards = config.shards;
  const std::size_t threads = config.threads;

  FaultInjector* injector = nullptr;
  if (config.fault_injector != nullptr && config.fault_injector->armed()) {
    injector = config.fault_injector;
    injector->bind(shards);
  }

  // Routers are built on this thread in shard order, so factory-side seed
  // derivation is scheduling-independent.
  std::vector<std::unique_ptr<EdgeRouter>> routers =
      build_routers(network, factory, shards);

  std::vector<std::unique_ptr<ShardLane>> lanes;
  lanes.reserve(shards);
  for (std::size_t s = 0; s < shards; ++s) {
    const std::size_t ring_chunks =
        injector != nullptr ? injector->ring_chunks_for(s, config.ring_chunks)
                            : config.ring_chunks;
    lanes.push_back(
        std::make_unique<ShardLane>(ring_chunks, config.chunk_packets));
  }

  std::vector<ReplayResult> shard_results(shards,
                                          ReplayResult{config.series_bucket});
  std::vector<std::uint64_t> shard_packets(shards, 0);
  std::vector<std::exception_ptr> worker_errors(threads);
  std::atomic<std::size_t> workers_running{threads};

  // Workers: shard s is owned by worker s % threads; each worker drains its
  // lanes round-robin so one stalled shard cannot starve the others.
  std::vector<std::thread> workers;
  workers.reserve(threads);
  for (std::size_t w = 0; w < threads; ++w) {
    workers.emplace_back([&, w] {
      try {
        std::vector<std::size_t> owned;
        for (std::size_t s = w; s < shards; s += threads) owned.push_back(s);
        std::vector<bool> finished(owned.size(), false);
        std::vector<RouterDecision> decisions(config.chunk_packets);
        std::size_t live = owned.size();

        // Freezes a dying lane: the unprocessed tail of `chunk` (from
        // `pos`) and everything still queued in the ring go to the sidecar
        // in stream order, the shard's results are snapshotted at the
        // death point, and kLaneDead is release-stored, handing the lane
        // to the partitioner.
        const auto die = [&](std::size_t s, const Chunk& chunk,
                             std::size_t pos, ShardLane::Death cause) {
          ShardLane& lane = *lanes[s];
          for (std::size_t i = pos; i < chunk.size; ++i) {
            sidecar_append(lane.sidecar, chunk.data[i]);
          }
          Chunk rest;
          while (lane.data_ring.try_pop(rest)) {
            for (std::size_t i = 0; i < rest.size; ++i) {
              sidecar_append(lane.sidecar, rest.data[i]);
            }
          }
          lane.death = cause;
          shard_results[s].stats = routers[s]->stats();
          shard_results[s].metrics = routers[s]->metrics_snapshot();
          lane.state.store(kLaneDead, std::memory_order_release);
          lane.finished.store(true, std::memory_order_release);
        };

        const auto process_subbatch = [&](std::size_t s, PacketRecord* data,
                                          std::size_t n) {
          const PacketBatch batch{data, n};
          routers[s]->process_batch(
              batch, std::span<RouterDecision>{decisions.data(), n});
          account_replay_batch(
              shard_results[s], network, batch,
              std::span<const RouterDecision>{decisions.data(), n});
          shard_packets[s] += n;
        };

        // The one chunk path: sub-batches split at the lane's fault
        // triggers (an unfaulted lane has none, so its one sub-batch is the
        // whole chunk), so a kill or flip fires at the same shard-local
        // packet count however the stream was chunked. Returns true when
        // the lane died inside this chunk.
        const auto run_chunk = [&](std::size_t s, const Chunk& chunk) -> bool {
          ShardLane& lane = *lanes[s];
          const bool faulted =
              injector != nullptr && injector->lane_faulted(s);
          std::size_t pos = 0;
          for (;;) {
            const std::uint64_t processed = shard_packets[s];
            while (faulted) {
              const double ms = injector->take_stall_ms(s, processed);
              if (ms <= 0.0) break;
              std::this_thread::sleep_for(
                  std::chrono::duration<double, std::milli>(ms));
            }
            // Re-checked after any stall: a stalled lane is exactly the
            // one the watchdog condemns, and the ack must precede further
            // processing for the death point to be the condemnation point.
            if (lane.state.load(std::memory_order_acquire) ==
                kLaneCondemned) {
              die(s, chunk, pos, ShardLane::Death::kCondemned);
              return true;
            }
            if (faulted) {
              injector->apply_state_faults(s, processed,
                                           routers[s]->filter());
              if (injector->kill_at(s) <= processed) {
                die(s, chunk, pos, ShardLane::Death::kKilled);
                return true;
              }
            }
            if (pos == chunk.size) return false;
            const std::uint64_t next =
                faulted ? injector->next_lane_trigger(s, processed)
                        : kFaultNever;
            std::size_t n = chunk.size - pos;
            if (next != kFaultNever) {
              n = static_cast<std::size_t>(std::min<std::uint64_t>(
                  n, next - processed));
            }
            try {
              process_subbatch(s, chunk.data + pos, n);
            } catch (...) {
              // Self-heal: a sub-batch that blew up mid-application
              // cannot be replayed safely (the router may hold half its
              // effects), so it counts as lost and the rest of the chunk
              // fails over with the lane.
              lane.lost += n;
              die(s, chunk, pos + n, ShardLane::Death::kCrashed);
              return true;
            }
            pos += n;
          }
        };

        // Drains one lane's ring. Returns true when it made progress;
        // marks the lane finished (and adjusts `live`) when it died.
        const auto drain = [&](std::size_t i, std::size_t s) -> bool {
          ShardLane& lane = *lanes[s];
          Chunk chunk;
          bool any = false;
          while (lane.data_ring.try_pop(chunk)) {
            any = true;
            if (run_chunk(s, chunk)) {
              finished[i] = true;
              --live;
              return true;
            }
            chunk.size = 0;
            while (!lane.free_ring.try_push(chunk)) {
              std::this_thread::yield();  // cannot persist: ring holds every
            }                             // buffer
            lane.heartbeat.fetch_add(1, std::memory_order_relaxed);
          }
          return any;
        };

        while (live > 0) {
          bool progressed = false;
          for (std::size_t i = 0; i < owned.size(); ++i) {
            if (finished[i]) continue;
            const std::size_t s = owned[i];
            if (drain(i, s)) progressed = true;
            if (finished[i]) continue;
            // done is stored (release) after the final push, so observing it
            // then draining once more catches any chunk that raced the first
            // empty check; after that the lane is provably exhausted.
            if (lanes[s]->done.load(std::memory_order_acquire)) {
              if (drain(i, s)) progressed = true;
              if (finished[i]) continue;
              finished[i] = true;
              --live;
              shard_results[s].stats = routers[s]->stats();
              shard_results[s].metrics = routers[s]->metrics_snapshot();
              lanes[s]->finished.store(true, std::memory_order_release);
            }
          }
          if (!progressed && live > 0) std::this_thread::yield();
        }
      } catch (...) {
        worker_errors[w] = std::current_exception();
      }
      workers_running.fetch_sub(1, std::memory_order_release);
    });
  }

  // ---- Partitioner-side supervision state ----
  MetricsRegistry feed_metrics;
  LatencyHistogram* backpressure = nullptr;
  std::uint64_t lanes_condemned = 0;
  std::vector<std::uint8_t> reclaimed(shards, 0);
  const bool watchdog_on = config.watchdog_timeout.count() > 0;
  std::vector<std::uint64_t> hb_seen(shards, 0);
  std::vector<std::chrono::steady_clock::time_point> hb_changed(
      shards, std::chrono::steady_clock::now());

  // Bounded producer wait accounting: the first failed push/pop starts the
  // clock, the histogram gets one sample per completed wait.
  const auto note_backpressure = [&](std::uint64_t t0) {
    if (backpressure == nullptr) {
      backpressure = &feed_metrics.histogram("ring.backpressure_ns");
    }
    backpressure->record(telemetry_clock_ns() - t0);
  };

  const auto lane_dead = [](ShardLane& lane) {
    return lane.state.load(std::memory_order_acquire) == kLaneDead;
  };

  // Condemns a live lane whose heartbeat made no progress for the watchdog
  // timeout while chunks waited in its ring. Idle lanes (empty ring) are
  // exempt -- no pending work means no required progress.
  const auto watchdog_check = [&](std::size_t s) {
    if (!watchdog_on) return;
    ShardLane& lane = *lanes[s];
    if (lane.finished.load(std::memory_order_acquire) ||
        lane.state.load(std::memory_order_acquire) != kLaneLive) {
      return;
    }
    const std::uint64_t hb = lane.heartbeat.load(std::memory_order_relaxed);
    const auto now = std::chrono::steady_clock::now();
    if (hb != hb_seen[s]) {
      hb_seen[s] = hb;
      hb_changed[s] = now;
      return;
    }
    if (lane.data_ring.empty()) {
      hb_changed[s] = now;
      return;
    }
    if (now - hb_changed[s] < config.watchdog_timeout) return;
    std::uint32_t expected = kLaneLive;
    if (lane.state.compare_exchange_strong(expected, kLaneCondemned,
                                           std::memory_order_acq_rel)) {
      ++lanes_condemned;
      hb_changed[s] = now;  // fresh grace period for the worker's ack
    }
  };

  // First observation of a dead lane: reclaim its queued residue (ring
  // chunks, then the partially filled buffer) into the sidecar. Stream
  // order holds because the dying worker's own drain covered a strict
  // prefix of what sits here, and the ring is FIFO.
  const auto reclaim_dead = [&](std::size_t s) {
    if (reclaimed[s]) return;
    reclaimed[s] = 1;
    ShardLane& lane = *lanes[s];
    Chunk chunk;
    while (lane.data_ring.try_pop(chunk)) {
      for (std::size_t i = 0; i < chunk.size; ++i) {
        sidecar_append(lane.sidecar, chunk.data[i]);
      }
    }
    if (lane.filling.data != nullptr && lane.fill > 0) {
      for (std::size_t i = 0; i < lane.fill; ++i) {
        sidecar_append(lane.sidecar, lane.filling.data[i]);
      }
    }
    lane.filling = Chunk{};
    lane.fill = 0;
  };

  // Seals lane.filling and hands it to the worker, waiting with bounded
  // backoff (running the watchdog) when the ring is full. Returns false
  // when the lane died during the wait -- the chunk went to the sidecar.
  const auto push_filled = [&](std::size_t s) -> bool {
    ShardLane& lane = *lanes[s];
    lane.filling.size = lane.fill;
    if (!lane.data_ring.try_push(lane.filling)) {
      const std::uint64_t t0 = telemetry_clock_ns();
      ExpBackoff backoff;
      for (;;) {
        if (lane_dead(lane)) {
          reclaim_dead(s);  // appends ring residue, then this chunk
          return false;
        }
        watchdog_check(s);
        backoff.pause();
        if (lane.data_ring.try_push(lane.filling)) break;
      }
      note_backpressure(t0);
    }
    lane.filling = Chunk{};
    lane.fill = 0;
    return true;
  };

  // Partition on the calling thread: walk the trace in order, append each
  // packet to its shard's current buffer, hand full buffers to the ring.
  // Feed faults (corrupt, clock) are applied here, keyed by the global
  // trace index, so sharding and replay see the already-perturbed packet.
  PacketRecord scratch;
  std::uint64_t feed_index = 0;
  for (const PacketRecord& src : trace) {
    const PacketRecord* pkt = &src;
    if (injector != nullptr) {
      copy_for_replay(scratch, src);
      injector->apply_feed(feed_index, scratch);
      pkt = &scratch;
    }
    ++feed_index;
    const std::size_t s = shard_of(pkt->tuple, shards);
    ShardLane& lane = *lanes[s];
    if (reclaimed[s] || lane_dead(lane)) {
      reclaim_dead(s);
      sidecar_append(lane.sidecar, *pkt);
      continue;
    }
    if (lane.filling.data == nullptr) {
      if (!lane.free_ring.try_pop(lane.filling)) {
        const std::uint64_t t0 = telemetry_clock_ns();
        ExpBackoff backoff;
        bool got = false;
        for (;;) {
          if (lane_dead(lane)) break;
          watchdog_check(s);
          backoff.pause();
          if (lane.free_ring.try_pop(lane.filling)) {
            got = true;
            break;
          }
        }
        if (!got) {
          reclaim_dead(s);
          sidecar_append(lane.sidecar, *pkt);
          continue;
        }
        note_backpressure(t0);
      }
      lane.fill = 0;
    }
    copy_for_replay(lane.filling.data[lane.fill], *pkt);
    ++lane.fill;
    if (lane.fill == config.chunk_packets) {
      if (!push_filled(s)) continue;  // died; chunk is in the sidecar
    }
  }
  for (std::size_t s = 0; s < shards; ++s) {
    ShardLane& lane = *lanes[s];
    if (reclaimed[s] || lane_dead(lane)) {
      reclaim_dead(s);
    } else if (lane.filling.data != nullptr && lane.fill > 0) {
      push_filled(s);
    }
    lane.done.store(true, std::memory_order_release);
  }

  // Keep the watchdog running until every worker exits -- a lane can wedge
  // after the feed finished, and condemnation is what unwedges the join.
  if (watchdog_on) {
    ExpBackoff idle;
    while (workers_running.load(std::memory_order_acquire) > 0) {
      for (std::size_t s = 0; s < shards; ++s) watchdog_check(s);
      idle.pause();
    }
  }
  for (std::thread& worker : workers) worker.join();
  for (const std::exception_ptr& error : worker_errors) {
    if (error) std::rethrow_exception(error);
  }

  // ---- Failover re-merge (rule documented in the header) ----
  std::vector<std::size_t> alive_shards;
  std::vector<std::size_t> dead_shards;
  for (std::size_t s = 0; s < shards; ++s) {
    if (lanes[s]->state.load(std::memory_order_acquire) == kLaneDead) {
      dead_shards.push_back(s);
    } else {
      alive_shards.push_back(s);
    }
  }
  std::uint64_t failover_packets = 0;
  std::uint64_t unroutable = 0;
  std::uint64_t lost = 0;
  std::uint64_t lanes_killed = 0;
  std::uint64_t lanes_crashed = 0;
  if (!dead_shards.empty()) {
    for (const std::size_t d : dead_shards) {
      lost += lanes[d]->lost;
      switch (lanes[d]->death) {
        case ShardLane::Death::kKilled: ++lanes_killed; break;
        case ShardLane::Death::kCrashed: ++lanes_crashed; break;
        default: break;
      }
    }
    std::vector<std::vector<PacketRecord>> failover(shards);
    for (const std::size_t d : dead_shards) {
      // A chunk the feed pushed after the dying worker drained its ring,
      // but before the worker published its death, is still in the ring.
      reclaim_dead(d);
      for (PacketRecord& pkt : lanes[d]->sidecar) {
        if (alive_shards.empty()) {
          ++unroutable;
          continue;
        }
        const std::size_t f = alive_shards[static_cast<std::size_t>(
            tuple_hash(pkt.tuple.canonical(), kShardHashSeed) %
            alive_shards.size())];
        failover[f].push_back(std::move(pkt));
      }
      lanes[d]->sidecar.clear();
    }
    std::vector<RouterDecision> decisions(config.chunk_packets);
    for (const std::size_t f : alive_shards) {
      std::vector<PacketRecord>& stream = failover[f];
      if (stream.empty()) continue;
      for (std::size_t pos = 0; pos < stream.size();
           pos += config.chunk_packets) {
        const std::size_t n =
            std::min(config.chunk_packets, stream.size() - pos);
        const PacketBatch batch{stream.data() + pos, n};
        routers[f]->process_batch(
            batch, std::span<RouterDecision>{decisions.data(), n});
        account_replay_batch(
            shard_results[f], network, batch,
            std::span<const RouterDecision>{decisions.data(), n});
        shard_packets[f] += n;
      }
      failover_packets += stream.size();
      shard_results[f].stats = routers[f]->stats();
      shard_results[f].metrics = routers[f]->metrics_snapshot();
    }
  }

  ParallelReplayResult out =
      merge_shards(config, shard_results, std::move(shard_packets), routers);
  out.shard_failed.assign(shards, 0);
  for (const std::size_t d : dead_shards) out.shard_failed[d] = 1;
  out.failover_packets = failover_packets;
  out.unroutable_packets = unroutable;
  out.lost_packets = lost;
  out.lanes_condemned = lanes_condemned;

  // Deterministic fault/supervision counters are materialized only when
  // something actually happened, so a fault-free run's merged metrics stay
  // byte-identical to a build that never heard of the fault plane.
  // lanes_condemned stays out: watchdog firing is wall-clock dependent.
  if (injector != nullptr || !dead_shards.empty()) {
    if (injector != nullptr) {
      feed_metrics.counter("fault.packets_corrupted")
          .inc(injector->packets_corrupted());
      feed_metrics.counter("fault.clock_faulted_packets")
          .inc(injector->clock_faulted_packets());
      feed_metrics.counter("fault.bits_flipped").inc(injector->bits_flipped());
      feed_metrics.counter("fault.flips_ignored")
          .inc(injector->flips_ignored());
      feed_metrics.counter("fault.stalls_taken").inc(injector->stalls_taken());
      feed_metrics.counter("replay.lanes_killed").inc(lanes_killed);
    }
    feed_metrics.counter("replay.lanes_crashed").inc(lanes_crashed);
    feed_metrics.counter("replay.failover_packets").inc(failover_packets);
    feed_metrics.counter("replay.packets_unroutable").inc(unroutable);
    feed_metrics.counter("replay.packets_lost").inc(lost);
  }
  if (feed_metrics.counters().size() > 0 || feed_metrics.gauge_count() > 0 ||
      feed_metrics.histogram_count() > 0) {
    merge_metrics_snapshot(out.merged.metrics, feed_metrics.snapshot());
  }
  return out;
}

ParallelReplayResult sharded_replay_reference(
    const Trace& trace, const ClientNetwork& network,
    const ShardRouterFactory& factory,
    const ParallelReplayConfig& raw_config) {
  const ParallelReplayConfig config = resolve(raw_config);
  const std::size_t shards = config.shards;
  // The reference path has no lanes to fault; silently ignoring a spec
  // would make a faulted comparison vacuously pass.
  if (config.fault_injector != nullptr && config.fault_injector->armed()) {
    throw std::invalid_argument(
        "sharded_replay_reference does not support fault injection");
  }

  std::vector<Trace> sub_traces(shards);
  for (const PacketRecord& pkt : trace) {
    sub_traces[shard_of(pkt.tuple, shards)].push_back(pkt);
  }

  std::vector<std::unique_ptr<EdgeRouter>> routers =
      build_routers(network, factory, shards);
  std::vector<ReplayResult> shard_results;
  std::vector<std::uint64_t> shard_packets(shards, 0);
  shard_results.reserve(shards);
  for (std::size_t s = 0; s < shards; ++s) {
    shard_results.push_back(replay_trace(sub_traces[s], *routers[s], network,
                                         config.series_bucket));
    shard_packets[s] = sub_traces[s].size();
  }
  return merge_shards(config, shard_results, std::move(shard_packets), routers);
}

}  // namespace upbound
