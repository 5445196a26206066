#include "sim/edge_router.h"

#include <algorithm>
#include <limits>
#include <stdexcept>

#include "tenant/hierarchical_filter.h"
#include "util/prefetch.h"

namespace upbound {

EdgeRouter::EdgeRouter(EdgeRouterConfig config,
                       std::unique_ptr<StateFilter> filter,
                       std::unique_ptr<DropPolicy> policy)
    : config_(std::move(config)),
      filter_(std::move(filter)),
      policy_(std::move(policy)),
      meter_(config_.meter_window),
      tenant_table_(config_.tenancy.table),
      blocklist_(config_.blocklist_ttl),
      rng_(config_.seed),
      last_time_(
          SimTime::from_usec(std::numeric_limits<std::int64_t>::min())),
      ctr_classify_outbound_(metrics_.counter("classify.outbound_packets")),
      ctr_classify_inbound_(metrics_.counter("classify.inbound_packets")),
      ctr_classify_ignored_(metrics_.counter("classify.ignored_packets")),
      ctr_classify_out_of_order_(
          metrics_.counter("classify.out_of_order_packets")),
      ctr_blocklist_lookups_(metrics_.counter("blocklist.lookups")),
      ctr_blocklist_hits_(metrics_.counter("blocklist.hits")),
      ctr_blocklist_inserts_(metrics_.counter("blocklist.inserts")),
      ctr_state_marks_(metrics_.counter("state.marks")),
      ctr_state_lookups_(metrics_.counter("state.lookups")),
      ctr_state_hits_(metrics_.counter("state.hits")),
      ctr_state_misses_(metrics_.counter("state.misses")),
      ctr_policy_evaluations_(metrics_.counter("policy.evaluations")),
      ctr_policy_drops_(metrics_.counter("policy.drops")),
      ctr_policy_passes_(metrics_.counter("policy.passes")),
      hist_batch_packets_(metrics_.histogram("batch.packets")),
      hist_run_packets_(metrics_.histogram("run.packets")),
      hist_batch_ns_(metrics_.histogram("latency.batch_ns")),
      hist_classify_ns_(metrics_.histogram("latency.classify_ns")),
      hist_blocklist_ns_(metrics_.histogram("latency.blocklist_ns")),
      hist_state_ns_(metrics_.histogram("latency.state_ns")),
      hist_policy_ns_(metrics_.histogram("latency.policy_ns")),
      hist_forward_ns_(metrics_.histogram("latency.forward_ns")) {
  if (filter_ == nullptr || policy_ == nullptr) {
    throw std::invalid_argument("EdgeRouter: filter and policy required");
  }
  // Telemetry-only downcast: the tenancy.* gauges and the control
  // socket's per-tenant stats read the hierarchical filter's
  // introspection counters. The decision path never touches hier_.
  hier_ = dynamic_cast<HierarchicalFilter*>(filter_.get());
  if (config_.health.enabled()) {
    health_.emplace(config_.health);
    health_occupancy_supported_ = filter_->occupancy_fraction().has_value();
    // Lazily registered here, not in the init list: a router with health
    // disabled must not grow new counter names in its snapshots.
    ctr_health_fail_open_ = &metrics_.counter("health.fail_open_admits");
    ctr_health_fail_closed_ = &metrics_.counter("health.fail_closed_drops");
    ctr_health_degraded_ = &metrics_.counter("health.transitions_degraded");
    ctr_health_recovered_ = &metrics_.counter("health.transitions_recovered");
    ctr_health_occupancy_unsupported_ =
        &metrics_.counter("health.occupancy_unsupported");
  }
  if (config_.tuner.enabled) {
    config_.tuner.validate();
    if (!filter_->occupancy_fraction().has_value()) {
      throw std::invalid_argument(
          "EdgeRouter: the tuner requires a filter with an occupancy "
          "signal (filter '" +
          filter_->name() + "' has none)");
    }
    tuner_.emplace(config_.tuner);
  }
}

void EdgeRouter::health_poll(PacketBatch batch) {
  if (batch.empty()) return;
  SimTime now = batch[0].timestamp;
  if (now < last_time_) now = last_time_;
  // The meter clamps on its own high-water mark; surface every clamp it
  // took since the last poll as a clock anomaly.
  const std::uint64_t clamps = meter_.clamp_events();
  for (; health_meter_clamps_seen_ < clamps; ++health_meter_clamps_seen_) {
    health_->note_clock_clamp(now);
  }
  if (health_tick_++ % config_.health.occupancy_sample_batches == 0) {
    // Capability-driven occupancy: any backend reporting
    // occupancy_fraction() feeds the saturation signal; the rest count
    // skipped samples so "healthy" is distinguishable from "blind".
    if (health_occupancy_supported_) {
      health_->note_occupancy(*filter_->occupancy_fraction(), now);
    } else {
      ctr_health_occupancy_unsupported_->inc();
    }
  }
  const std::uint64_t degraded = health_->transitions_to_degraded();
  const std::uint64_t recovered = health_->transitions_to_healthy();
  ctr_health_degraded_->inc(degraded - health_degraded_seen_);
  ctr_health_recovered_->inc(recovered - health_recovered_seen_);
  health_degraded_seen_ = degraded;
  health_recovered_seen_ = recovered;
  health_degraded_ = health_->degraded();
}

void EdgeRouter::tuner_poll() {
  if (tuner_tick_++ % config_.tuner.sample_batches != 0) return;
  // The constructor guarantees the filter reports occupancy.
  tuner_->observe(*filter_->occupancy_fraction(),
                  filter_->expiry_generations());
}

void EdgeRouter::advance_clock(SimTime now) {
  if (now <= last_time_) return;
  last_time_ = now;
  filter_->advance_time(now);
  meter_.advance(now);
}

void EdgeRouter::set_drop_policy(std::unique_ptr<DropPolicy> policy) {
  if (policy == nullptr) {
    throw std::invalid_argument("EdgeRouter::set_drop_policy: null policy");
  }
  policy_ = std::move(policy);
}

bool EdgeRouter::set_unhealthy_stance(UnhealthyStance stance) {
  if (!health_.has_value()) return false;
  config_.health.stance = stance;
  return true;
}

void EdgeRouter::replace_filter(std::unique_ptr<StateFilter> filter) {
  if (filter == nullptr) {
    throw std::invalid_argument("EdgeRouter::replace_filter: null filter");
  }
  if (tuner_.has_value() && !filter->occupancy_fraction().has_value()) {
    throw std::invalid_argument(
        "EdgeRouter::replace_filter: the tuner requires a filter with an "
        "occupancy signal (filter '" + filter->name() + "' has none)");
  }
  filter_ = std::move(filter);
  // Re-derive everything the constructor derived from the filter type:
  // a reload may change the backend out from under the telemetry seams.
  hier_ = dynamic_cast<HierarchicalFilter*>(filter_.get());
  if (health_.has_value()) {
    health_occupancy_supported_ = filter_->occupancy_fraction().has_value();
  }
}

bool EdgeRouter::note_capture_outage(bool active, SimTime now) {
  if (!health_.has_value()) return false;
  if (now < last_time_) now = last_time_;
  health_->note_capture_outage(active, now);
  // Mirror the transition counters and the per-packet degraded flag right
  // here: the next batch may arrive before the next health_poll.
  const std::uint64_t degraded = health_->transitions_to_degraded();
  const std::uint64_t recovered = health_->transitions_to_healthy();
  ctr_health_degraded_->inc(degraded - health_degraded_seen_);
  ctr_health_recovered_->inc(recovered - health_recovered_seen_);
  health_degraded_seen_ = degraded;
  health_recovered_seen_ = recovered;
  health_degraded_ = health_->degraded();
  return true;
}

RouterDecision EdgeRouter::process(const PacketRecord& pkt) {
  RouterDecision decision = RouterDecision::kIgnored;
  process_batch(PacketBatch{&pkt, 1}, std::span<RouterDecision>{&decision, 1});
  return decision;
}

void EdgeRouter::process_batch(PacketBatch batch,
                               std::span<RouterDecision> decisions) {
  if (decisions.size() < batch.size()) {
    throw std::invalid_argument(
        "EdgeRouter::process_batch: decisions span smaller than batch");
  }
  // Telemetry reads sit outside the decision path: clock values are only
  // ever recorded, never branched on, so decisions and stats are
  // bit-identical with timing on or off.
  hist_batch_packets_.record(batch.size());
  const std::uint64_t batch_t0 =
      config_.stage_timing ? telemetry_clock_ns() : 0;
  if (health_.has_value()) health_poll(batch);
  if (tuner_.has_value()) tuner_poll();
  classify_batch(batch);

  // Prefetch pass: a filter whose lookups are impure is called packet by
  // packet, and the tenant ledger is probed per packet, so neither
  // overlaps its own cache misses. Hints run kPrefetchLookahead packets
  // ahead of the run being processed. Pure filters pipeline prefetches
  // inside their batch calls and need no hint.
  const bool filter_hints = !filter_->inbound_lookup_is_pure();
  const bool hints = filter_hints || config_.tenancy.enabled;
  std::size_t hinted = 0;

  PacketRecord clamped;
  std::size_t i = 0;
  while (i < batch.size()) {
    const Direction dir = dirs_[i];
    const bool regressed = batch[i].timestamp < last_time_;
    if (regressed) {
      // Regressed clock (reordered capture, clock step): clamp to the
      // last-seen time so the meter, blocklist TTLs, and the filter's
      // rotation schedule stay monotonic instead of silently corrupting.
      ++stats_.out_of_order_packets;
      ctr_classify_out_of_order_.inc();
      if (health_.has_value()) {
        health_->note_clock_clamp(last_time_);
        health_degraded_ = health_->degraded();
      }
    }

    if (dir != Direction::kOutbound && dir != Direction::kInbound) {
      if (!regressed) last_time_ = batch[i].timestamp;
      filter_->advance_time(last_time_);
      ++stats_.ignored_packets;
      decisions[i] = RouterDecision::kIgnored;
      ++i;
      continue;
    }

    PacketBatch run;
    if (regressed) {
      // The clamped copy runs through the stages as a one-packet run.
      // run.packets histograms only the runs the input itself forms.
      clamped = batch[i];
      clamped.timestamp = last_time_;
      run = PacketBatch{&clamped, 1};
    } else {
      // Maximal same-direction, time-sorted run: the unit the state stage
      // can batch without changing any mark/lookup interleaving.
      std::size_t j = i + 1;
      while (j < batch.size() && dirs_[j] == dir &&
             batch[j].timestamp >= batch[j - 1].timestamp) {
        ++j;
      }
      run = batch.subspan(i, j - i);
      hist_run_packets_.record(run.size());
    }
    if (hints) {
      const std::size_t ahead =
          std::min(batch.size(), i + run.size() + kPrefetchLookahead);
      if (ahead > hinted) {
        prefetch_packets(batch, hinted, ahead, filter_hints);
        hinted = ahead;
      }
    }
    const std::span<RouterDecision> run_decisions =
        decisions.subspan(i, run.size());
    if (dir == Direction::kOutbound) {
      process_outbound_run(run, run_decisions);
    } else {
      process_inbound_run(run, run_decisions);
    }
    last_time_ = run.back().timestamp;
    i += run.size();
  }
  if (config_.stage_timing) {
    hist_batch_ns_.record(telemetry_clock_ns() - batch_t0);
  }
}

void EdgeRouter::classify_batch(PacketBatch batch) {
  const std::uint64_t t0 = config_.stage_timing ? telemetry_clock_ns() : 0;
  dirs_.resize(batch.size());
  std::uint64_t outbound = 0;
  std::uint64_t inbound = 0;
  std::uint64_t ignored = 0;
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const Direction dir = config_.network.classify(batch[i]);
    dirs_[i] = dir;
    if (dir == Direction::kOutbound) {
      ++outbound;
    } else if (dir == Direction::kInbound) {
      ++inbound;
    } else {
      ++ignored;
    }
  }
  ctr_classify_outbound_.inc(outbound);
  ctr_classify_inbound_.inc(inbound);
  ctr_classify_ignored_.inc(ignored);
  if (config_.stage_timing) {
    hist_classify_ns_.record(telemetry_clock_ns() - t0);
  }
}

void EdgeRouter::prefetch_packets(PacketBatch batch, std::size_t from,
                                  std::size_t to, bool filter_hints) const {
  for (std::size_t p = from; p < to; ++p) {
    const Direction dir = dirs_[p];
    if (dir != Direction::kOutbound && dir != Direction::kInbound) continue;
    const PacketRecord& pkt = batch[p];
    if (filter_hints) filter_->prefetch(pkt, dir);
    if (config_.tenancy.enabled) {
      const TenantId tenant = dir == Direction::kOutbound
                                  ? tenant_table_.tenant_of_outbound(pkt.tuple)
                                  : tenant_table_.tenant_of_inbound(pkt.tuple);
      if (const TenantLedger* entry = ledger_.find(tenant)) {
        prefetch_write_lines(entry, sizeof(TenantLedger));
      }
    }
  }
}

void EdgeRouter::process_outbound_run(PacketBatch run,
                                      std::span<RouterDecision> decisions) {
  // Blocklist stage. Section 5.3: outbound packets of a blocked
  // connection are suppressed too -- responses a real client would never
  // have sent had the inbound request been dropped at the edge (the
  // replay limitation the paper notes; per-connection suppression models
  // it). is_blocked refreshes entry TTLs, so it runs per packet in order;
  // within an outbound run nothing inserts entries, so the verdicts are
  // stable for the rest of the run.
  const bool check_blocked = config_.track_blocked_connections &&
                             config_.suppress_blocked_outbound;
  // 1-in-kTimingSamplePeriod run sampling; see the header note.
  const bool sample = config_.stage_timing &&
                      (timing_tick_++ & (kTimingSamplePeriod - 1)) == 0;
  const std::uint64_t blocklist_t0 = sample ? telemetry_clock_ns() : 0;
  if (check_blocked) {
    run_blocked_.resize(run.size());
    for (std::size_t p = 0; p < run.size(); ++p) {
      ctr_blocklist_lookups_.inc();
      run_blocked_[p] =
          blocklist_.is_blocked(run[p].tuple, run[p].timestamp) ? 1 : 0;
    }
  } else {
    run_blocked_.assign(run.size(), 0);
  }
  const std::uint64_t state_t0 = sample ? telemetry_clock_ns() : 0;
  if (sample) hist_blocklist_ns_.record(state_t0 - blocklist_t0);

  // State stage: batch-mark maximal unsuppressed stretches. Suppressed
  // packets never reach record_outbound; they only keep the filter clock
  // current.
  std::size_t s = 0;
  while (s < run.size()) {
    if (run_blocked_[s]) {
      filter_->advance_time(run[s].timestamp);
      ++s;
      continue;
    }
    std::size_t e = s + 1;
    while (e < run.size() && !run_blocked_[e]) ++e;
    filter_->record_outbound_batch(run.subspan(s, e - s));
    ctr_state_marks_.inc(e - s);
    s = e;
  }
  const std::uint64_t forward_t0 = sample ? telemetry_clock_ns() : 0;
  if (sample) hist_state_ns_.record(forward_t0 - state_t0);

  // Meter/bookkeeping stage. The meter is only read on the inbound path,
  // which cannot occur inside an outbound run.
  for (std::size_t p = 0; p < run.size(); ++p) {
    const PacketRecord& pkt = run[p];
    TenantLedger* tenant =
        config_.tenancy.enabled
            ? &ledger_for(tenant_table_.tenant_of_outbound(pkt.tuple))
            : nullptr;
    if (run_blocked_[p]) {
      ctr_blocklist_hits_.inc();
      ++stats_.suppressed_outbound_packets;
      stats_.suppressed_outbound_bytes += pkt.wire_size();
      if (tenant != nullptr) {
        ++tenant->stats.suppressed_outbound_packets;
        tenant->stats.suppressed_outbound_bytes += pkt.wire_size();
      }
      decisions[p] = RouterDecision::kDroppedBlocked;
      continue;
    }
    meter_.add(pkt.timestamp, pkt.wire_size());
    ++stats_.outbound_packets;
    stats_.outbound_bytes += pkt.wire_size();
    if (tenant != nullptr) {
      tenant->meter.add(pkt.timestamp, pkt.wire_size());
      ++tenant->stats.outbound_packets;
      tenant->stats.outbound_bytes += pkt.wire_size();
    }
    decisions[p] = RouterDecision::kPassedOutbound;
  }
  if (sample) hist_forward_ns_.record(telemetry_clock_ns() - forward_t0);
}

void EdgeRouter::process_inbound_run(PacketBatch run,
                                     std::span<RouterDecision> decisions) {
  // 1-in-kTimingSamplePeriod run sampling; see the header note.
  const bool sample = config_.stage_timing &&
                      (timing_tick_++ & (kTimingSamplePeriod - 1)) == 0;
  // State stage first when the lookup is pure: the whole run's verdicts
  // in one batched lookup; verdicts for packets the blocklist stage later
  // rejects are simply discarded. A lookup with side effects (SPI
  // refreshes flow timers, hierarchical touches its LRU) is made inline
  // below instead, only for packets that survive the blocklist.
  const bool pure = filter_->inbound_lookup_is_pure();
  const std::uint64_t state_t0 = sample ? telemetry_clock_ns() : 0;
  if (pure) {
    if (admit_capacity_ < run.size()) {
      admit_buf_ = std::make_unique<bool[]>(run.size());
      admit_capacity_ = run.size();
    }
    filter_->admits_inbound_batch(run, {admit_buf_.get(), run.size()});
  }
  const std::uint64_t policy_t0 = sample ? telemetry_clock_ns() : 0;
  if (sample && pure) hist_state_ns_.record(policy_t0 - state_t0);

  // Blocklist + policy stages, per packet in order (both mutate: a policy
  // drop inserts a blocklist entry that later packets of the same run
  // must observe). Section 5.3: a packet of a blocked connection is
  // dropped without consulting the filter, so state.lookups counts only
  // the packets that reach the state stage (lookups == hits + misses).
  for (std::size_t p = 0; p < run.size(); ++p) {
    const PacketRecord& pkt = run[p];
    const SimTime now = pkt.timestamp;
    // The batched lookup advanced a pure filter's clock through the whole
    // run; an impure one advances per packet, blocked or not.
    if (!pure) filter_->advance_time(now);
    // Every inbound packet is attributed to its tenant, whatever the
    // verdict, so the entry is fetched once up front.
    TenantLedger* tenant =
        config_.tenancy.enabled
            ? &ledger_for(tenant_table_.tenant_of_inbound(pkt.tuple))
            : nullptr;
    if (config_.track_blocked_connections) {
      ctr_blocklist_lookups_.inc();
      if (blocklist_.is_blocked(pkt.tuple, now)) {
        ctr_blocklist_hits_.inc();
        drop_inbound(pkt, tenant, /*blocked=*/true, /*policy=*/false);
        decisions[p] = RouterDecision::kDroppedBlocked;
        continue;
      }
    }
    ctr_state_lookups_.inc();
    if (pure ? admit_buf_[p] : filter_->admits_inbound(pkt)) {
      ctr_state_hits_.inc();
      decisions[p] = admit_inbound(pkt, tenant);
      continue;
    }
    ctr_state_misses_.inc();
    decisions[p] = drop_or_pass_inbound(pkt, now, tenant);
  }
  if (sample) hist_policy_ns_.record(telemetry_clock_ns() - policy_t0);
}

RouterDecision EdgeRouter::admit_inbound(const PacketRecord& pkt,
                                         TenantLedger* tenant) {
  ++stats_.inbound_passed_packets;
  stats_.inbound_passed_bytes += pkt.wire_size();
  if (tenant != nullptr) {
    ++tenant->stats.inbound_passed_packets;
    tenant->stats.inbound_passed_bytes += pkt.wire_size();
  }
  return RouterDecision::kPassedInbound;
}

void EdgeRouter::drop_inbound(const PacketRecord& pkt, TenantLedger* tenant,
                              bool blocked, bool policy) {
  ++stats_.inbound_dropped_packets;
  stats_.inbound_dropped_bytes += pkt.wire_size();
  if (blocked) ++stats_.blocked_drops;
  if (tenant == nullptr) return;
  TenantStats& slice = tenant->stats;
  ++slice.inbound_dropped_packets;
  slice.inbound_dropped_bytes += pkt.wire_size();
  if (blocked) ++slice.blocked_drops;
  if (policy) ++slice.policy_drops;
}

double EdgeRouter::tenant_uplink_bits_per_sec(TenantId tenant, SimTime now) {
  TenantLedger* entry = ledger_.find(tenant);
  return entry == nullptr ? 0.0 : entry->uplink_bits_per_sec(now);
}

RouterDecision EdgeRouter::drop_or_pass_inbound(const PacketRecord& pkt,
                                                SimTime now,
                                                TenantLedger* tenant) {
  if (health_degraded_) {
    // Degraded: the miss that brought us here is no longer evidence (the
    // Eq. 2 chain is broken), so Eq. 1 is not evaluated and nothing is
    // blocklisted -- both stances are reversible the moment health
    // recovers.
    if (config_.health.stance == UnhealthyStance::kFailOpen) {
      ctr_health_fail_open_->inc();
      return admit_inbound(pkt, tenant);
    }
    ctr_health_fail_closed_->inc();
    drop_inbound(pkt, tenant, /*blocked=*/false, /*policy=*/false);
    return RouterDecision::kDroppedByPolicy;
  }
  ctr_policy_evaluations_.inc();
  // Eq. 1 input b: the aggregate uplink throughput -- or, with tenancy
  // on, the throughput of the tenant this inbound packet targets, so one
  // subscriber's upload burst cannot raise another subscriber's P_d.
  // Either way exactly one rng draw happens per evaluation, so decision
  // sequences stay reproducible for a given seed and packet stream.
  const double uplink = tenant != nullptr ? tenant->uplink_bits_per_sec(now)
                                          : meter_.bits_per_sec(now);
  const double p_drop = policy_->drop_probability(uplink);
  if (rng_.next_bool(p_drop)) {
    ctr_policy_drops_.inc();
    drop_inbound(pkt, tenant, /*blocked=*/false, /*policy=*/true);
    if (config_.track_blocked_connections) {
      ctr_blocklist_inserts_.inc();
      blocklist_.block(pkt.tuple, now);
    }
    return RouterDecision::kDroppedByPolicy;
  }
  ctr_policy_passes_.inc();
  return admit_inbound(pkt, tenant);
}

TenantStats& TenantStats::merge(const TenantStats& other) {
  outbound_packets += other.outbound_packets;
  outbound_bytes += other.outbound_bytes;
  inbound_passed_packets += other.inbound_passed_packets;
  inbound_passed_bytes += other.inbound_passed_bytes;
  inbound_dropped_packets += other.inbound_dropped_packets;
  inbound_dropped_bytes += other.inbound_dropped_bytes;
  blocked_drops += other.blocked_drops;
  policy_drops += other.policy_drops;
  suppressed_outbound_packets += other.suppressed_outbound_packets;
  suppressed_outbound_bytes += other.suppressed_outbound_bytes;
  return *this;
}

EdgeRouterStats& EdgeRouterStats::merge(const EdgeRouterStats& other) {
  outbound_packets += other.outbound_packets;
  outbound_bytes += other.outbound_bytes;
  inbound_passed_packets += other.inbound_passed_packets;
  inbound_passed_bytes += other.inbound_passed_bytes;
  inbound_dropped_packets += other.inbound_dropped_packets;
  inbound_dropped_bytes += other.inbound_dropped_bytes;
  blocked_drops += other.blocked_drops;
  suppressed_outbound_packets += other.suppressed_outbound_packets;
  suppressed_outbound_bytes += other.suppressed_outbound_bytes;
  ignored_packets += other.ignored_packets;
  out_of_order_packets += other.out_of_order_packets;
  merge_counter_snapshot(stage_counters, other.stage_counters);
  // Key-wise: tenants are keyed by address-derived id, never a per-shard
  // index, so merging shard maps in any order yields the same aggregate.
  for (const auto& [tenant, slice] : other.tenants) {
    tenants[tenant].merge(slice);
  }
  return *this;
}

EdgeRouterStats EdgeRouter::stats() const {
  EdgeRouterStats out = stats_;
  out.stage_counters = metrics_.counters().snapshot();
  for (TenantIndex<TenantLedger>::Position pos = 0; pos < ledger_.size();
       ++pos) {
    out.tenants.emplace(ledger_.key_at(pos), ledger_.value_at(pos).stats);
  }
  return out;
}

MetricsSnapshot EdgeRouter::metrics_snapshot() {
  metrics_.gauge("filter.storage_bytes")
      .set(static_cast<double>(filter_->storage_bytes()));
  metrics_.gauge("blocklist.entries")
      .set(static_cast<double>(blocklist_.size()));
  if (const std::optional<double> occupancy = filter_->occupancy_fraction()) {
    // Current-generation set-slot fraction: the live Eq. 2 false-positive
    // input, and the quantity saturation attacks drive up. Only emitted
    // by backends with an occupancy signal (registry kCapOccupancy).
    metrics_.gauge("state.occupancy").set(*occupancy);
  }
  if (health_.has_value()) {
    metrics_.gauge("health.state").set(health_->degraded() ? 1.0 : 0.0);
  }
  if (hier_ != nullptr) {
    // Two-level tenant filter introspection. Registered only when the
    // backend is hierarchical, so every other router's metrics output is
    // unchanged by the feature existing.
    metrics_.gauge("tenancy.tenants")
        .set(static_cast<double>(hier_->tenant_count()));
    metrics_.gauge("tenancy.fine_live")
        .set(static_cast<double>(hier_->live_fine_filters()));
    metrics_.gauge("tenancy.fine_instantiations")
        .set(static_cast<double>(hier_->fine_instantiations()));
    metrics_.gauge("tenancy.fine_evictions")
        .set(static_cast<double>(hier_->fine_evictions()));
    metrics_.gauge("tenancy.front_absorbed")
        .set(static_cast<double>(hier_->front_absorbed()));
    metrics_.gauge("tenancy.digest_admits")
        .set(static_cast<double>(hier_->digest_admits()));
    // Per-tenant occupancy gauges, bounded so a flash crowd cannot blow
    // up the metrics namespace: beyond 32 live fine filters only the
    // aggregate gauges above are emitted, and no occupancy is computed.
    constexpr std::size_t kMaxTenantGauges = 32;
    if (hier_->live_fine_filters() <= kMaxTenantGauges) {
      for (const auto& [tenant, occupancy] : hier_->tenant_occupancies()) {
        metrics_
            .gauge("tenancy.occupancy." + tenant_table_.label(tenant))
            .set(occupancy);
      }
    }
  }
  if (tuner_.has_value()) {
    const TunerRecommendation& rec = tuner_->recommendation();
    metrics_.gauge("tuner.occupancy_peak_ewma").set(rec.occupancy_peak_ewma);
    metrics_.gauge("tuner.estimated_connections")
        .set(rec.estimated_connections);
    metrics_.gauge("tuner.penetration_estimate")
        .set(rec.penetration_estimate);
    metrics_.gauge("tuner.recommended_hash_count")
        .set(static_cast<double>(rec.recommended_hash_count));
    metrics_.gauge("tuner.recommended_bits")
        .set(static_cast<double>(rec.recommended_bits));
    metrics_.gauge("tuner.recommended_rotate_sec")
        .set(rec.recommended_rotate_interval.to_sec());
    metrics_.gauge("tuner.generations_observed")
        .set(static_cast<double>(rec.generations_observed));
    metrics_.gauge("tuner.samples").set(static_cast<double>(rec.samples));
  }
  return metrics_.snapshot();
}

}  // namespace upbound
