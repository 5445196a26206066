// The simulated edge router of paper Section 5.3: a connection-state
// filter (bitmap / SPI / naive), an uplink bandwidth meter feeding the
// Eq. 1 drop policy, and the blocked-connection store that models peers
// giving up after their packets are dropped.
//
// Packet flow (Algorithm 2 embedded in the deployment):
//   outbound -> record state, meter uplink, always pass
//   inbound  -> blocked sigma?            drop
//              state present?            pass
//              else                      drop with P_d(uplink throughput)
//
// The datapath is batched: process_batch() runs a batch through explicit
// stages -- classify -> blocklist -> state -> meter/Eq.1 policy -- and
// hands maximal same-direction runs to the filter's batch API so the
// bitmap path hashes once per packet and overlaps its bit-vector cache
// misses. Every packet takes that one path: the single-packet process()
// is a batch-of-1 wrapper, and a packet whose timestamp regressed runs as
// a one-packet run of its clamped copy. Each stage exposes per-stage
// event counters through a CounterRegistry.
#pragma once

#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "fault/health_monitor.h"
#include "filter/adaptive_tuner.h"
#include "filter/bandwidth_meter.h"
#include "filter/blocklist.h"
#include "filter/drop_policy.h"
#include "filter/state_filter.h"
#include "net/direction.h"
#include "net/packet_batch.h"
#include "tenant/tenant_index.h"
#include "tenant/tenant_table.h"
#include "util/counters.h"
#include "util/metrics.h"
#include "util/rng.h"

namespace upbound {

class HierarchicalFilter;

enum class RouterDecision {
  kPassedOutbound,
  kPassedInbound,
  kDroppedByPolicy,    // no state and the P_d coin said drop
  kDroppedBlocked,     // connection previously blocked (Section 5.3 rule)
  kIgnored,            // local/transit: not the edge's business
};

/// Switches on per-subscriber accounting and enforcement; see the
/// EdgeRouterConfig::tenancy field for semantics.
struct TenancyConfig {
  bool enabled = false;
  /// How client addresses map to tenants (per-subscriber or per-/24).
  TenantTableConfig table;
};

struct EdgeRouterConfig {
  ClientNetwork network;
  /// Averaging window of the uplink throughput estimate.
  Duration meter_window = Duration::sec(1.0);
  /// Bucket width of the throughput series a live run records (Figs.
  /// 8-9); offline replay takes its width as a replay_trace argument.
  Duration series_bucket = Duration::sec(1.0);
  /// Enables the Section 5.3 blocked-connection persistence.
  bool track_blocked_connections = true;
  /// When true (default), outbound packets of blocked connections are
  /// suppressed too -- responses a real client would never send had the
  /// inbound request been dropped. Setting false reproduces the paper's
  /// replay semantics exactly: replayed upload keeps flowing (and keeps
  /// marking filter state), which is the limitation Section 5.3 concedes.
  bool suppress_blocked_outbound = true;
  /// TTL for blocked entries (0 = never forget).
  Duration blocklist_ttl = Duration::sec(120.0);
  std::uint64_t seed = 7;
  /// Records wall-clock per-stage latency histograms (latency.*_ns) while
  /// replaying. The timing reads happen outside the decision path, so
  /// decisions and stats are identical either way.
  bool stage_timing = true;
  /// Health monitoring + degraded stance (see fault/health_monitor.h).
  /// Disabled by default. While degraded, only the stateless-inbound
  /// verdict changes: fail-open admits, fail-closed drops (without
  /// evaluating Eq. 1 or inserting blocklist entries, so the policy.* and
  /// blocklist stage identities keep holding).
  HealthConfig health;
  /// Online {k, N, dt} recommendation from sampled occupancy (see
  /// filter/adaptive_tuner.h). Recommend-only: never mutates the filter.
  /// Requires a filter with an occupancy signal (registry kCapOccupancy);
  /// the constructor throws otherwise. Disabled by default, and the
  /// tuner.* gauges are never registered while disabled.
  TunerConfig tuner;
  /// Per-subscriber accounting and enforcement (the multi-tenant edge of
  /// src/tenant/). When enabled, every pass/drop decision is additionally
  /// attributed to the client-side tenant of its tuple, each tenant gets
  /// its own uplink BandwidthMeter (window = meter_window), and the Eq. 1
  /// input b becomes the *tenant's* uplink throughput -- one subscriber's
  /// swarm can no longer push every subscriber's P_d toward the knee.
  /// Disabled (the default) leaves the datapath bit-identical to a build
  /// of this struct without the field. Tenant attribution is a pure
  /// function of the tuple (tenant/tenant_table.h), so per-tenant stats
  /// are shard-local under parallel replay and merge deterministically.
  TenancyConfig tenancy;
};

/// Per-tenant slice of the router's decision bookkeeping. Keys of the
/// EdgeRouterStats::tenants map are TenantIds (subscriber address or /24
/// network, host order), so iteration order -- and every report built
/// from it -- is deterministic.
struct TenantStats {
  std::uint64_t outbound_packets = 0;
  std::uint64_t outbound_bytes = 0;
  std::uint64_t inbound_passed_packets = 0;
  std::uint64_t inbound_passed_bytes = 0;
  std::uint64_t inbound_dropped_packets = 0;
  std::uint64_t inbound_dropped_bytes = 0;
  std::uint64_t blocked_drops = 0;
  std::uint64_t policy_drops = 0;
  std::uint64_t suppressed_outbound_packets = 0;
  std::uint64_t suppressed_outbound_bytes = 0;

  bool operator==(const TenantStats&) const = default;

  TenantStats& merge(const TenantStats& other);

  double inbound_drop_rate() const {
    const std::uint64_t total =
        inbound_passed_packets + inbound_dropped_packets;
    return total == 0 ? 0.0
                      : static_cast<double>(inbound_dropped_packets) /
                            static_cast<double>(total);
  }
};

struct EdgeRouterStats {
  std::uint64_t outbound_packets = 0;
  std::uint64_t outbound_bytes = 0;
  std::uint64_t inbound_passed_packets = 0;
  std::uint64_t inbound_passed_bytes = 0;
  std::uint64_t inbound_dropped_packets = 0;
  std::uint64_t inbound_dropped_bytes = 0;
  std::uint64_t blocked_drops = 0;   // inbound drops via the blocklist
  /// Outbound traffic of blocked connections: upload a real network never
  /// carries once the triggering inbound request is gone (the effect the
  /// paper says replay cannot fully capture -- we can, per-connection).
  std::uint64_t suppressed_outbound_packets = 0;
  std::uint64_t suppressed_outbound_bytes = 0;
  std::uint64_t ignored_packets = 0;
  /// Packets whose timestamp regressed below the last-seen time; their
  /// time is clamped so the meter and rotation schedule stay monotonic.
  std::uint64_t out_of_order_packets = 0;
  /// Per-stage datapath counters (classify./blocklist./state./policy.*),
  /// snapshotted from the router's CounterRegistry by stats().
  CounterSnapshot stage_counters;
  /// Per-tenant decision slices; empty unless tenancy is enabled. Ordered
  /// by TenantId, so reports and merges are deterministic.
  std::map<TenantId, TenantStats> tenants;

  bool operator==(const EdgeRouterStats&) const = default;

  /// Sums `other` into this stats object, including the per-stage counter
  /// snapshot (merged by name). Merging per-shard stats in a fixed shard
  /// order is how the parallel replay engine builds its deterministic
  /// aggregate report.
  EdgeRouterStats& merge(const EdgeRouterStats& other);

  /// Inbound drop rate over all inbound packets.
  double inbound_drop_rate() const {
    const std::uint64_t total =
        inbound_passed_packets + inbound_dropped_packets;
    return total == 0 ? 0.0
                      : static_cast<double>(inbound_dropped_packets) /
                            static_cast<double>(total);
  }
};

class EdgeRouter {
 public:
  EdgeRouter(EdgeRouterConfig config, std::unique_ptr<StateFilter> filter,
             std::unique_ptr<DropPolicy> policy);

  /// Processes one packet: a batch-of-1 through the staged pipeline.
  RouterDecision process(const PacketRecord& pkt);

  /// Processes a batch; writes one decision per packet into `decisions`
  /// (which must be at least batch.size() long). Timestamps should be
  /// non-decreasing; regressions are clamped and counted. Decisions and
  /// stats are identical to calling process() per packet in batch order.
  void process_batch(PacketBatch batch, std::span<RouterDecision> decisions);

  /// Aggregate stats, including a fresh per-stage counter snapshot.
  EdgeRouterStats stats() const;

  /// Full telemetry snapshot: the stage counters plus gauges (state
  /// footprint, blocklist population) and per-stage histograms -- batch and
  /// run size distributions (deterministic) and, with stage_timing, the
  /// wall-clock latency.*_ns latency distributions. Gauges are refreshed
  /// from live structures at snapshot time.
  MetricsSnapshot metrics_snapshot();

  const StateFilter& filter() const { return *filter_; }
  /// Mutable access for harnesses that advance the filter clock between
  /// packets (e.g. occupancy sampling on a fixed sim-time grid); callers
  /// must keep the filter's time monotonic with the packet stream.
  StateFilter& filter() { return *filter_; }
  const BlockList& blocklist() const { return blocklist_; }
  /// The health monitor, or nullptr when disabled.
  const HealthMonitor* health() const {
    return health_.has_value() ? &*health_ : nullptr;
  }
  /// The adaptive tuner, or nullptr when disabled.
  const AdaptiveTuner* tuner() const {
    return tuner_.has_value() ? &*tuner_ : nullptr;
  }
  const CounterRegistry& counters() const { return metrics_.counters(); }
  const MetricsRegistry& metrics() const { return metrics_; }

  /// Current uplink throughput estimate (the Eq. 1 input b when tenancy
  /// is disabled; always the aggregate uplink series either way).
  double uplink_bits_per_sec(SimTime now) { return meter_.bits_per_sec(now); }

  /// Whether per-tenant accounting/enforcement is on.
  bool tenancy_enabled() const { return config_.tenancy.enabled; }
  /// The tenant mapping in effect (valid regardless of tenancy.enabled).
  const TenantTable& tenant_table() const { return tenant_table_; }
  /// The tenant's uplink throughput estimate (its Eq. 1 input b). A
  /// tenant with no outbound traffic seen reads 0.
  double tenant_uplink_bits_per_sec(TenantId tenant, SimTime now);
  /// The filter as a HierarchicalFilter when the backend is the
  /// two-level tenant filter, else nullptr. Telemetry-only seam: the
  /// datapath itself never branches on it.
  const HierarchicalFilter* hierarchical_filter() const { return hier_; }

  /// Advances the router's notion of time without a packet: the filter's
  /// rotation schedule fires and metered traffic ages out of the Eq. 1
  /// window. Live mode's tick timer calls this between packets; offline
  /// replay never needs it (packet timestamps carry the clock), and a
  /// call at or below the last-seen time is a no-op, so a live run whose
  /// clock trails the packet stream is observably identical to replay.
  void advance_clock(SimTime now);

  /// Swaps the Eq. 1 drop policy at runtime (live `set L/H`). Takes
  /// effect on the next stateless-inbound decision; throws on null.
  void set_drop_policy(std::unique_ptr<DropPolicy> policy);
  const DropPolicy& drop_policy() const { return *policy_; }

  /// Retargets the degraded-mode stance at runtime (live
  /// `set on-unhealthy`). Returns false when health monitoring is not
  /// engaged (disabled by config): the stance would never be consulted,
  /// so pretending to set it would be lying to the operator.
  bool set_unhealthy_stance(UnhealthyStance stance);

  /// Swaps the state filter at runtime (live hot reload: the caller has
  /// already migrated state into `filter`). Re-derives the telemetry
  /// downcast and the occupancy-capability flag; throws on null, and --
  /// with the tuner engaged -- on a filter without an occupancy signal
  /// (same contract the constructor enforces), leaving the running
  /// filter untouched in every throwing path.
  void replace_filter(std::unique_ptr<StateFilter> filter);

  /// Live capture-outage feed: latches (or clears) the health monitor's
  /// capture signal at sim time `now` and refreshes the degraded stance
  /// mirror immediately -- traffic processed during the gap must already
  /// run under the degraded stance, not one batch later. Returns false
  /// when health monitoring is not engaged.
  bool note_capture_outage(bool active, SimTime now);

 private:
  // --- Pipeline stages (each consumes a batch or a run of one) ---

  /// Stage 1: direction per packet into dirs_, plus classify.* counters.
  void classify_batch(PacketBatch batch);

  /// Prefetch pass: cache hints for batch packets [from, to) -- the
  /// filter's own hint when `filter_hints`, and the tenant's ledger entry
  /// when tenancy is on. Reads only: no ledger entry is created.
  void prefetch_packets(PacketBatch batch, std::size_t from, std::size_t to,
                        bool filter_hints) const;

  /// Stages 2-4 for a same-direction, time-sorted run.
  void process_outbound_run(PacketBatch run,
                            std::span<RouterDecision> decisions);
  void process_inbound_run(PacketBatch run,
                           std::span<RouterDecision> decisions);

  /// One per tenant a decision was attributed to: the tenant's decision
  /// slice and its uplink meter (window = meter_window).
  struct TenantLedger {
    explicit TenantLedger(Duration meter_window) : meter(meter_window) {}
    /// The tenant's Eq. 1 input. 0 until its first passed outbound
    /// packet: the meter is not read (so not started) before it has
    /// booked a byte.
    double uplink_bits_per_sec(SimTime now) {
      return stats.outbound_packets == 0 ? 0.0 : meter.bits_per_sec(now);
    }
    TenantStats stats;
    BandwidthMeter meter;
  };

  /// The tenant's ledger entry, created on first touch. Only called when
  /// tenancy is enabled; the returned reference is valid until the next
  /// call.
  TenantLedger& ledger_for(TenantId tenant) {
    return ledger_.find_or_insert(tenant, config_.meter_window);
  }

  // Inbound verdict bookkeeping. `tenant` is the packet's ledger entry,
  // nullptr when tenancy is disabled.
  RouterDecision admit_inbound(const PacketRecord& pkt, TenantLedger* tenant);
  /// Books an inbound drop in the aggregate stats and the tenant's slice;
  /// `blocked` / `policy` say whether the blocklist or Eq. 1 dropped it.
  void drop_inbound(const PacketRecord& pkt, TenantLedger* tenant,
                    bool blocked, bool policy);
  RouterDecision drop_or_pass_inbound(const PacketRecord& pkt, SimTime now,
                                      TenantLedger* tenant);

  /// Health sampling, once per batch: feeds occupancy and any meter clamp
  /// events accumulated since the last poll into the monitor and mirrors
  /// its transition counters. Only called when health_ is engaged.
  void health_poll(PacketBatch batch);

  /// Tuner sampling, once per batch on its own cadence. Only called when
  /// tuner_ is engaged. Simulation-domain (batch ticks + filter state),
  /// so sampling is deterministic for a given packet/batch sequence.
  void tuner_poll();

  EdgeRouterConfig config_;
  std::unique_ptr<StateFilter> filter_;
  std::unique_ptr<DropPolicy> policy_;
  BandwidthMeter meter_;
  /// Tuple -> tenant mapping; constructed always (it is stateless and
  /// cheap), consulted only when tenancy is enabled.
  TenantTable tenant_table_;
  /// Per-tenant decision slices and uplink meters; one index probe per
  /// packet reaches both. stats() orders the slices by TenantId.
  TenantIndex<TenantLedger> ledger_;
  /// Set iff the filter is the hierarchical tenant backend; feeds the
  /// tenancy.* gauges in metrics_snapshot().
  HierarchicalFilter* hier_ = nullptr;
  BlockList blocklist_;
  Rng rng_;
  EdgeRouterStats stats_;

  /// Highest timestamp seen; regressions are clamped up to this.
  SimTime last_time_;

  /// Engaged iff config_.health.enabled(); every health member below is
  /// untouched otherwise, and the health.* counters are never registered
  /// -- a disabled router's metrics output is byte-identical to a router
  /// without the feature.
  std::optional<HealthMonitor> health_;
  /// Whether the filter reports occupancy_fraction() (registry capability
  /// kCapOccupancy). When false, sampling ticks count into
  /// health.occupancy_unsupported instead -- operators can tell a healthy
  /// router from a blind one.
  bool health_occupancy_supported_ = false;
  std::uint64_t health_meter_clamps_seen_ = 0;
  /// Batch tick driving the occupancy sampling cadence (simulation-domain:
  /// advances per batch, never reads a clock).
  std::uint64_t health_tick_ = 0;
  /// Mirror of health_->degraded(), refreshed at the two sites that can
  /// change it (health_poll, clock clamps), so the per-packet policy path
  /// tests one bool instead of chasing the optional. Always false when
  /// health is disengaged.
  bool health_degraded_ = false;
  std::uint64_t health_degraded_seen_ = 0;
  std::uint64_t health_recovered_seen_ = 0;
  StageCounter* ctr_health_fail_open_ = nullptr;
  StageCounter* ctr_health_fail_closed_ = nullptr;
  StageCounter* ctr_health_degraded_ = nullptr;
  StageCounter* ctr_health_recovered_ = nullptr;
  StageCounter* ctr_health_occupancy_unsupported_ = nullptr;

  /// Engaged iff config_.tuner.enabled.
  std::optional<AdaptiveTuner> tuner_;
  std::uint64_t tuner_tick_ = 0;

  MetricsRegistry metrics_;
  // Cached per-stage counters (references into metrics_ stay valid).
  StageCounter& ctr_classify_outbound_;
  StageCounter& ctr_classify_inbound_;
  StageCounter& ctr_classify_ignored_;
  StageCounter& ctr_classify_out_of_order_;
  StageCounter& ctr_blocklist_lookups_;
  StageCounter& ctr_blocklist_hits_;
  StageCounter& ctr_blocklist_inserts_;
  StageCounter& ctr_state_marks_;
  StageCounter& ctr_state_lookups_;
  StageCounter& ctr_state_hits_;
  StageCounter& ctr_state_misses_;
  StageCounter& ctr_policy_evaluations_;
  StageCounter& ctr_policy_drops_;
  StageCounter& ctr_policy_passes_;

  // Telemetry histograms (references into metrics_ stay valid). The
  // batch./run. size histograms are simulation-domain and deterministic;
  // the latency.*_ns histograms are wall-clock and recorded only when
  // config_.stage_timing is set.
  LatencyHistogram& hist_batch_packets_;
  LatencyHistogram& hist_run_packets_;
  LatencyHistogram& hist_batch_ns_;
  LatencyHistogram& hist_classify_ns_;
  LatencyHistogram& hist_blocklist_ns_;
  LatencyHistogram& hist_state_ns_;
  LatencyHistogram& hist_policy_ns_;
  LatencyHistogram& hist_forward_ns_;
  /// Runs are often a handful of packets, so timing every one would spend
  /// more cycles in the clock than in the stages (~75% overhead measured).
  /// The run-level stage timers sample 1 run in kTimingSamplePeriod
  /// instead; batch-level timers (batch_ns, classify_ns) are per batch and
  /// stay unsampled. The tick advances with the run sequence only -- no
  /// clock value feeds it -- so sampling preserves decision purity.
  static constexpr std::uint64_t kTimingSamplePeriod = 32;
  /// How many packets ahead of the one being processed the prefetch pass
  /// hints: far enough for a DRAM miss to land, near enough that the
  /// lines are still in L1 when the packet arrives.
  static constexpr std::size_t kPrefetchLookahead = 8;
  std::uint64_t timing_tick_ = 0;

  // Reused per-batch scratch; capacity persists so the steady-state
  // datapath performs no allocations.
  std::vector<Direction> dirs_;
  std::vector<std::uint8_t> run_blocked_;
  std::unique_ptr<bool[]> admit_buf_;
  std::size_t admit_capacity_ = 0;
};

}  // namespace upbound
