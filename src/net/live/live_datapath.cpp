#include "net/live/live_datapath.h"

#include <algorithm>
#include <bit>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <stdexcept>

#include "filter/drop_policy.h"
#include "filter/snapshot.h"
#include "net/live/reload.h"
#include "tenant/hierarchical_filter.h"

namespace upbound::live {

namespace {

std::string format_bps(double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%g", value);
  return buf;
}

/// The spec's rotation interval dt; zero for backends without one.
Duration rotate_interval_of(const FilterSpec& spec) {
  const std::optional<FilterGeometry> geometry = spec.backend->geometry(spec);
  return geometry.has_value() ? geometry->rotate_interval : Duration{};
}

std::unique_ptr<DropPolicy> policy_from(const LiveConfig& config) {
  if (config.policy_red) {
    return std::make_unique<RedDropPolicy>(config.policy_low,
                                           config.policy_high);
  }
  return std::make_unique<ConstantDropPolicy>(config.policy_pd);
}

}  // namespace

MetricsSnapshot strip_batch_shape(const MetricsSnapshot& snapshot) {
  MetricsSnapshot out = snapshot;
  std::erase_if(out.histograms, [](const HistogramSample& h) {
    return h.name == "batch.packets" || h.name == "run.packets";
  });
  return out;
}

std::string conformance_report(const ReplayResult& result,
                               SimTime end_time) {
  return metrics_to_json(strip_batch_shape(result.metrics.deterministic()),
                         "final", end_time);
}

LiveDatapath::LiveDatapath(LiveConfig config, FilterSpec spec,
                           std::unique_ptr<CaptureSource> source,
                           EventLoop& loop)
    : config_(std::move(config)),
      spec_(std::move(spec)),
      source_(std::move(source)),
      loop_(loop),
      result_(config_.router.series_bucket),
      policy_low_(config_.policy_low),
      policy_high_(config_.policy_high),
      next_metrics_emit_(SimTime::infinite()),
      capture_retry_(config_.capture_retry_initial,
                     config_.capture_retry_max) {
  if (config_.clock == nullptr) {
    throw std::invalid_argument("LiveDatapath: clock required");
  }
  if (source_ == nullptr) {
    throw std::invalid_argument("LiveDatapath: capture source required");
  }
  if (config_.batch_max == 0) {
    throw std::invalid_argument("LiveDatapath: batch_max must be > 0");
  }
  if (config_.capture_retry_initial <= Duration{} ||
      config_.capture_retry_max < config_.capture_retry_initial) {
    throw std::invalid_argument(
        "LiveDatapath: need 0 < capture_retry_initial <= "
        "capture_retry_max");
  }
  router_ = std::make_unique<EdgeRouter>(
      config_.router, make_state_filter(spec_), policy_from(config_));
  rotate_interval_ = rotate_interval_of(spec_);

  pending_.resize(config_.batch_max);
  decisions_.resize(config_.batch_max);
  sink_ = [this](std::span<const std::uint8_t> frame, SimTime ts) {
    ingest_frame(frame, ts);
  };

  if (!config_.metrics_out.empty() && !config_.metrics_prometheus) {
    metrics_writer_ =
        std::make_unique<MetricsJsonlWriter>(config_.metrics_out);
  }

  if (!config_.checkpoint_dir.empty()) {
    if (!spec_.backend->has(kCapSnapshot)) {
      throw std::invalid_argument(
          "LiveDatapath: checkpointing requires a snapshot-capable "
          "filter backend (supported: " +
          FilterRegistry::instance().names_with(kCapSnapshot) + ")");
    }
    checkpointer_ = std::make_unique<Checkpointer>(
        Checkpointer::Config{config_.checkpoint_dir,
                             config_.checkpoint_interval,
                             config_.checkpoint_keep},
        [this](CheckpointMeta& meta) { return checkpoint_state(meta); },
        config_.faults);
    checkpoint_fd_ = loop_.add_timer(
        config_.checkpoint_interval,
        [this](std::uint64_t) { write_checkpoint_now(); });
  }

  start_time_ = config_.clock->now();
  capture_fd_ = source_->fd();
  attach_capture();
  tick_fd_ = loop_.add_timer(
      config_.tick, [this](std::uint64_t n) { on_tick(n); });
}

LiveDatapath::~LiveDatapath() {
  // The loop may outlive the datapath; its registrations capture `this`.
  loop_.remove_fd(tick_fd_);
  if (checkpoint_fd_ >= 0) loop_.remove_fd(checkpoint_fd_);
  if (pending_oneshot_fd_ >= 0) loop_.remove_fd(pending_oneshot_fd_);
  if (capture_attached_) loop_.remove_fd(capture_fd_);
}

void LiveDatapath::enable_control(const std::string& path,
                                  Duration idle_timeout) {
  control_ =
      std::make_unique<ControlServer>(loop_, path, this, idle_timeout);
}

void LiveDatapath::ingest_frame(std::span<const std::uint8_t> frame,
                                SimTime ts) {
  // Decoding straight into the ring slot reuses the slot's payload
  // capacity: the steady-state frame path performs no allocations. A
  // frame that fails to decode leaves the slot to the next one.
  if (!decode_frame_into(frame, ts, pending_[pending_count_])) {
    ++live_stats_.decode_errors;
    return;
  }
  ++pending_count_;
}

void LiveDatapath::on_capture_readable() {
  for (;;) {
    if (pending_count_ == config_.batch_max) process_pending();
    const std::size_t room = config_.batch_max - pending_count_;
    if (source_->drain(room, sink_) < room) break;  // source would block
  }
  process_pending();
  run_capture_faults();
  if (capture_attached_ && source_->error() != 0) {
    // drain() returned "would block" because the socket is DEAD, not
    // empty; waiting on epoll would wedge the daemon forever.
    handle_capture_failure();
  }
  check_stop_conditions();
}

void LiveDatapath::run_capture_faults() {
  if (config_.faults == nullptr || !config_.faults->armed()) return;
  const std::uint64_t frames = source_->frames_received();
  if (capture_attached_ &&
      config_.faults->take_capture_kill(frames)) {
    source_->inject_failure();  // error() latches; handled by caller
  }
  const double stall_ms = config_.faults->take_capture_stall_ms(frames);
  if (stall_ms > 0.0 && capture_attached_ && source_->error() == 0) {
    stall_capture(Duration::sec(stall_ms / 1e3));
  }
}

void LiveDatapath::attach_capture() {
  loop_.add_fd(
      capture_fd_, [this]() { on_capture_readable(); }, false,
      [this]() { handle_capture_failure(); });
  capture_attached_ = true;
}

void LiveDatapath::handle_capture_failure() {
  if (!capture_attached_) return;
  ++live_stats_.capture_failures;
  loop_.remove_fd(capture_fd_);
  capture_attached_ = false;
  capture_down_since_ = config_.clock->now();
  // The router is blind while the fd is down: a stateless-inbound miss
  // proves nothing, so the health monitor degrades and the configured
  // stance (fail-open / fail-closed) governs traffic across the gap.
  router_->note_capture_outage(true, capture_down_since_);
  const int err = source_->error();
  std::fprintf(stderr,
               "live: capture source '%s' failed (%s); retrying from %s\n",
               source_->name().c_str(),
               err != 0 ? std::strerror(err) : "event error",
               config_.capture_retry_initial.to_string().c_str());
  capture_retry_.reset();
  consecutive_reattach_failures_ = 0;
  schedule_reattach();
}

void LiveDatapath::schedule_reattach() {
  pending_oneshot_fd_ =
      loop_.add_oneshot(capture_retry_.next(), [this]() {
        pending_oneshot_fd_ = -1;
        try_reattach();
      });
}

void LiveDatapath::try_reattach() {
  ++live_stats_.capture_reattach_attempts;
  try {
    capture_fd_ = source_->reattach();
  } catch (const std::exception& e) {
    ++consecutive_reattach_failures_;
    if (config_.capture_retry_limit != 0 &&
        consecutive_reattach_failures_ >= config_.capture_retry_limit) {
      std::fprintf(stderr,
                   "live: capture source did not recover after %llu "
                   "attempts (%s); draining and stopping\n",
                   static_cast<unsigned long long>(
                       consecutive_reattach_failures_),
                   e.what());
      drain_and_stop();
      return;
    }
    schedule_reattach();  // bounded exponential backoff
    return;
  }
  consecutive_reattach_failures_ = 0;
  attach_capture();
  ++live_stats_.capture_reattaches;
  const SimTime now = config_.clock->now();
  const Duration gap = now - capture_down_since_;
  if (!gap.is_negative()) {
    live_stats_.capture_gap_usec +=
        static_cast<std::uint64_t>(gap.count_usec());
  }
  router_->note_capture_outage(false, now);
  capture_retry_.reset();
  // Anything already queued on the fresh fd predates its epoll edge.
  on_capture_readable();
}

void LiveDatapath::stall_capture(Duration window) {
  ++live_stats_.capture_failures;
  loop_.remove_fd(capture_fd_);
  capture_attached_ = false;
  capture_down_since_ = config_.clock->now();
  router_->note_capture_outage(true, capture_down_since_);
  pending_oneshot_fd_ = loop_.add_oneshot(window, [this]() {
    pending_oneshot_fd_ = -1;
    // Same fd, no socket death: just re-register and clear the outage.
    attach_capture();
    ++live_stats_.capture_reattaches;
    const SimTime now = config_.clock->now();
    const Duration gap = now - capture_down_since_;
    if (!gap.is_negative()) {
      live_stats_.capture_gap_usec +=
          static_cast<std::uint64_t>(gap.count_usec());
    }
    router_->note_capture_outage(false, now);
    // The kernel kept buffering while we were detached; catch up now.
    on_capture_readable();
  });
}

void LiveDatapath::process_pending() {
  if (pending_count_ == 0) return;
  const PacketBatch batch{pending_.data(), pending_count_};
  const std::span<RouterDecision> decisions{decisions_.data(),
                                            pending_count_};
  router_->process_batch(batch, decisions);
  account_replay_batch(result_, config_.router.network, batch,
                       std::span<const RouterDecision>{decisions_.data(),
                                                       pending_count_});
  for (std::size_t i = 0; i < pending_count_; ++i) {
    switch (decisions[i]) {
      case RouterDecision::kPassedOutbound:
      case RouterDecision::kPassedInbound:
        ++live_stats_.forwarded;
        break;
      case RouterDecision::kDroppedByPolicy:
      case RouterDecision::kDroppedBlocked:
        ++live_stats_.dropped;
        break;
      case RouterDecision::kIgnored:
        ++live_stats_.ignored;
        break;
    }
    if (verdict_sink_) verdict_sink_(pending_[i], decisions[i]);
  }
  live_stats_.packets += pending_count_;
  ++live_stats_.batches;
  live_stats_.frames = source_->frames_received();
  live_stats_.frame_bytes = source_->bytes_received();
  live_stats_.malformed = source_->malformed_inputs();
  live_stats_.frames_lost = source_->frames_lost();

  const SimTime batch_last = pending_[pending_count_ - 1].timestamp;
  if (!saw_packet_) {
    saw_packet_ = true;
    last_packet_time_ = pending_[0].timestamp;
    if (!config_.metrics_interval.is_zero() && metrics_writer_ != nullptr) {
      // Interval snapshots fire on sim-time boundaries measured from the
      // first packet -- the exact offline replay semantics, so a live
      // interval JSONL stream matches an offline one line for line.
      next_metrics_emit_ = pending_[0].timestamp + config_.metrics_interval;
    }
  }
  if (batch_last > last_packet_time_) last_packet_time_ = batch_last;
  pending_count_ = 0;
  maybe_emit_interval_metrics();
}

void LiveDatapath::maybe_emit_interval_metrics() {
  while (last_packet_time_ >= next_metrics_emit_) {
    MetricsSnapshot snap =
        config_.metrics_deterministic
            ? router_->metrics_snapshot().deterministic()
            : router_->metrics_snapshot();
    append_robustness_gauges(snap, next_metrics_emit_);
    try {
      metrics_writer_->write(snap, "interval", next_metrics_emit_);
    } catch (const std::exception& e) {
      // A full disk must not take the datapath down: count it, warn once,
      // and keep processing. The boundary still advances, so a recovered
      // filesystem resumes at the next interval instead of replaying a
      // burst of stale snapshots.
      ++live_stats_.metrics_export_errors;
      if (live_stats_.metrics_export_errors == 1) {
        std::fprintf(stderr,
                     "live: interval metrics export failed: %s "
                     "(continuing; counted in metrics_export_errors)\n",
                     e.what());
      }
    }
    next_metrics_emit_ = next_metrics_emit_ + config_.metrics_interval;
  }
}

void LiveDatapath::append_robustness_gauges(MetricsSnapshot& snap,
                                            SimTime now) const {
  if (checkpointer_ == nullptr) return;
  // Only armed daemons grow these gauges: with checkpointing off the
  // exported snapshot is byte-identical to offline replay's, which the
  // conformance harness asserts.
  const Duration stale = checkpointer_->staleness(now);
  snap.gauges.push_back(GaugeSample{
      "checkpoint.generations",
      static_cast<double>(checkpointer_->generations_written())});
  snap.gauges.push_back(GaugeSample{
      "checkpoint.staleness_usec",
      static_cast<double>(stale.count_usec())});
  std::sort(snap.gauges.begin(), snap.gauges.end(),
            [](const GaugeSample& a, const GaugeSample& b) {
              return a.name < b.name;
            });  // gauges are name-sorted by contract
}

void LiveDatapath::on_tick(std::uint64_t expirations) {
  live_stats_.ticks += expirations;
  // One advance regardless of how many periods coalesced: advance_clock
  // is idempotent for a given `now`, and the filter's advance_time loops
  // over every dt boundary it crossed -- exactly one rotation per
  // boundary, never one per expiration.
  router_->advance_clock(config_.clock->now());
  check_stop_conditions();
}

void LiveDatapath::check_stop_conditions() {
  if (loop_.stopped() || finalized_) return;
  if (!config_.run_duration.is_zero() &&
      config_.clock->now() - start_time_ >= config_.run_duration) {
    drain_and_stop();
    return;
  }
  if (config_.max_packets != 0 &&
      live_stats_.packets >= config_.max_packets) {
    drain_and_stop();
  }
}

void LiveDatapath::drain_and_stop() {
  finalize();
  loop_.stop();
}

void LiveDatapath::finalize() {
  if (finalized_) return;
  finalized_ = true;
  // Shutdown drains: every frame the kernel already handed us is decoded
  // and processed before the final report (the conservation property the
  // harness asserts).
  for (;;) {
    if (pending_count_ == config_.batch_max) process_pending();
    const std::size_t room = config_.batch_max - pending_count_;
    if (source_->drain(room, sink_) < room) break;
  }
  process_pending();

  result_.stats = router_->stats();
  result_.metrics = router_->metrics_snapshot();
  live_stats_.frames = source_->frames_received();
  live_stats_.frame_bytes = source_->bytes_received();
  live_stats_.malformed = source_->malformed_inputs();
  live_stats_.frames_lost = source_->frames_lost();

  if (!config_.metrics_out.empty()) {
    const SimTime end =
        saw_packet_ ? last_packet_time_ : SimTime::origin();
    MetricsSnapshot exported = config_.metrics_deterministic
                                   ? result_.metrics.deterministic()
                                   : result_.metrics;
    append_robustness_gauges(exported, end);
    if (config_.metrics_prometheus) {
      std::FILE* f = std::fopen(config_.metrics_out.c_str(), "wb");
      if (f == nullptr) {
        metrics_export_failed_ = true;
        std::fprintf(stderr,
                     "live: cannot open metrics output '%s': %s\n",
                     config_.metrics_out.c_str(), std::strerror(errno));
      } else {
        const std::string text = metrics_to_prometheus(exported);
        const bool wrote =
            std::fwrite(text.data(), 1, text.size(), f) == text.size();
        const bool closed = std::fclose(f) == 0;
        if (!wrote || !closed) {
          metrics_export_failed_ = true;
          std::fprintf(stderr,
                       "live: failed writing metrics output '%s'\n",
                       config_.metrics_out.c_str());
        }
      }
    } else {
      try {
        metrics_writer_->write(exported, "final", end);
      } catch (const std::exception& e) {
        metrics_export_failed_ = true;
        ++live_stats_.metrics_export_errors;
        std::fprintf(stderr,
                     "live: failed writing metrics output '%s': %s\n",
                     config_.metrics_out.c_str(), e.what());
      }
    }
  }
}

std::vector<std::uint8_t> LiveDatapath::checkpoint_state(
    CheckpointMeta& meta) {
  // Quiesce at a batch boundary: the image never splits a batch, so a
  // restore resumes exactly where accounting left off.
  process_pending();
  const SimTime at = saw_packet_ ? last_packet_time_ : SimTime::origin();
  meta.time = at;
  meta.policy_low = policy_low_;
  meta.policy_high = policy_high_;
  meta.rotate_interval = rotate_interval_;
  meta.meter_window = config_.router.meter_window;
  return spec_.backend->save(router_->filter(), at);
}

void LiveDatapath::write_checkpoint_now() {
  if (checkpointer_ == nullptr) return;
  try {
    checkpointer_->write_checkpoint();
    ++live_stats_.checkpoints_written;
  } catch (const std::exception& e) {
    // Same stance as interval metrics: checkpointing is an availability
    // aid; a full disk costs the warm start, never the datapath.
    ++live_stats_.checkpoint_errors;
    if (live_stats_.checkpoint_errors == 1) {
      std::fprintf(stderr,
                   "live: checkpoint write failed: %s (continuing; "
                   "counted in checkpoint_errors)\n",
                   e.what());
    }
  }
}

CheckpointRestore LiveDatapath::restore_checkpoint_dir(
    const std::string& dir, std::optional<SimTime> now) {
  // Restoring through the CONFIGURED spec skips images of any other
  // geometry, which would change Eq. 2 behavior out from under the
  // operator's flags. dt alone follows the checkpoint (a runtime `set dt`
  // retune survives restart).
  CheckpointRestore restore = restore_newest_checkpoint(dir, spec_, now);
  if (!restore.ok()) return restore;

  if (config_.policy_red) {
    policy_low_ = restore.meta.policy_low;
    policy_high_ = restore.meta.policy_high;
    router_->set_drop_policy(
        std::make_unique<RedDropPolicy>(policy_low_, policy_high_));
  }
  rotate_interval_ = rotate_interval_of(restore.spec);
  router_->replace_filter(std::move(restore.filter));
  return restore;
}

ControlReply LiveDatapath::control_set_threshold(bool is_low, double bps) {
  const double low = is_low ? bps : policy_low_;
  const double high = is_low ? policy_high_ : bps;
  if (!(low < high)) {
    return ControlReply::err(
        "bad-argument", "thresholds must satisfy low < high (low=" +
                            format_bps(low) + ", high=" + format_bps(high) +
                            ")");
  }
  policy_low_ = low;
  policy_high_ = high;
  router_->set_drop_policy(std::make_unique<RedDropPolicy>(low, high));
  return ControlReply::good("low=" + format_bps(low) +
                            " high=" + format_bps(high));
}

ControlReply LiveDatapath::control_set_rotate_interval(Duration dt) {
  if (!spec_.backend->has(kCapRotateInterval)) {
    return ControlReply::err(
        "capability:rotate",
        "backend '" + spec_.kind() +
            "' has no runtime-adjustable rotation interval (supported: " +
            FilterRegistry::instance().names_with(kCapRotateInterval) +
            ")");
  }
  try {
    if (!router_->filter().set_rotate_interval(dt)) {
      return ControlReply::err(
          "capability:rotate",
          "backend '" + spec_.kind() + "' rejected the retune");
    }
  } catch (const std::invalid_argument& e) {
    return ControlReply::err("bad-argument", e.what());
  }
  rotate_interval_ = dt;
  return ControlReply::good("dt=" + format_bps(dt.to_sec()) + "s");
}

ControlReply LiveDatapath::control_set_unhealthy_stance(UnhealthyStance s) {
  if (!router_->set_unhealthy_stance(s)) {
    return ControlReply::err(
        "unsupported:health",
        "health monitor not armed (launch with --on-unhealthy)");
  }
  return ControlReply::good(
      s == UnhealthyStance::kFailOpen ? "on-unhealthy=fail-open"
                                      : "on-unhealthy=fail-closed");
}

ControlReply LiveDatapath::control_snapshot(const std::string& path) {
  if (!spec_.backend->has(kCapSnapshot)) {
    return ControlReply::err(
        "capability:snapshot",
        "backend '" + spec_.kind() +
            "' has no snapshot format (supported: " +
            FilterRegistry::instance().names_with(kCapSnapshot) + ")");
  }
  const SimTime at = saw_packet_ ? last_packet_time_ : SimTime::origin();
  try {
    const std::vector<std::uint8_t> bytes =
        spec_.backend->save(router_->filter(), at);
    save_snapshot_file(path, bytes);
    return ControlReply::good("wrote " + path + " (" +
                              std::to_string(bytes.size()) + " bytes)");
  } catch (const std::exception& e) {
    return ControlReply::err("io", e.what());
  }
}

ControlReply LiveDatapath::control_reload(const std::string& path) {
  ReloadConfig reload;
  try {
    reload = parse_reload_config(path);
  } catch (const std::invalid_argument& e) {
    return ControlReply::err("bad-argument", e.what());
  } catch (const std::exception& e) {
    return ControlReply::err("io", e.what());
  }

  // Validate EVERYTHING before touching the datapath: a reload applies
  // whole or not at all, so a typo'd config can never leave the daemon
  // half-reconfigured.
  double low = policy_low_;
  double high = policy_high_;
  const bool retune_policy =
      reload.policy_low.has_value() || reload.policy_high.has_value();
  if (retune_policy) {
    if (!config_.policy_red) {
      return ControlReply::err(
          "bad-argument",
          "low/high retune a RED policy; this datapath runs a constant "
          "P_d");
    }
    low = reload.policy_low.value_or(low);
    high = reload.policy_high.value_or(high);
    if (!(low < high)) {
      return ControlReply::err(
          "bad-argument", "thresholds must satisfy low < high (low=" +
                              format_bps(low) + ", high=" +
                              format_bps(high) + ")");
    }
  }

  std::string detail;
  if (reload.has_filter) {
    const BackendDescriptor* backend =
        FilterRegistry::instance().find(reload.filter_kind);
    if (backend == nullptr) {
      return ControlReply::err(
          "bad-argument",
          "unknown filter backend '" + reload.filter_kind + "' (" +
              FilterRegistry::instance().names_joined("|") + ")");
    }
    FilterSpec new_spec;
    try {
      new_spec = backend->parse(reload.filter_args);
    } catch (const std::invalid_argument& e) {
      return ControlReply::err("bad-argument", e.what());
    }
    // Marking state migrates through the running backend's state image,
    // so both backends must have one.
    if (!spec_.backend->has(kCapSnapshot) || !backend->has(kCapSnapshot)) {
      return ControlReply::err(
          "reload-incompatible",
          "'" + spec_.kind() + "' -> '" + backend->name +
              "' cannot migrate state (snapshot-capable backends: " +
              FilterRegistry::instance().names_with(kCapSnapshot) +
              "); restart to change");
    }

    // Quiesce at a batch boundary and migrate: save -> restore expecting
    // the new spec -> new dt -> swap. The round-trip runs even when only
    // dt (or nothing) changed -- it IS the lossless-migration path, and
    // the conformance test pins a no-op reload to byte-identical results.
    process_pending();
    const SimTime at = saw_packet_ ? last_packet_time_ : SimTime::origin();
    FilterRestoreResult migrated = spec_.backend->restore(
        spec_.backend->save(router_->filter(), at), std::nullopt, &new_spec);
    if (migrated.error == SnapshotRestoreError::kGeometryMismatch) {
      // An image of one geometry has no lossless embedding into another.
      // n = log2 N: every geometry's N is a power of two.
      const FilterGeometry running =
          spec_.backend->geometry(spec_).value_or(FilterGeometry{});
      return ControlReply::err(
          "reload-incompatible",
          "new geometry would discard marking state (running n=" +
              std::to_string(std::countr_zero(running.bits)) + " k=" +
              std::to_string(running.vector_count) + " m=" +
              std::to_string(running.hash_count) +
              "; only dt may change across a reload). Filter untouched; "
              "restart to change geometry");
    }
    if (!migrated.ok()) {
      return ControlReply::err(
          "io", std::string{"snapshot round-trip failed: "} +
                    snapshot_restore_error_name(migrated.error));
    }
    const Duration dt = rotate_interval_of(new_spec);
    if (dt != rotate_interval_) migrated.filter->set_rotate_interval(dt);
    router_->replace_filter(std::move(migrated.filter));
    spec_ = std::move(new_spec);
    rotate_interval_ = dt;
    detail = "filter=" + spec_.kind() + " dt=" + format_bps(dt.to_sec()) + "s";
  }

  if (retune_policy) {
    policy_low_ = low;
    policy_high_ = high;
    router_->set_drop_policy(std::make_unique<RedDropPolicy>(low, high));
    if (!detail.empty()) detail += ' ';
    detail += "low=" + format_bps(low) + " high=" + format_bps(high);
  }
  return ControlReply::good("reloaded " + path + ": " + detail);
}

ControlReply LiveDatapath::control_checkpoint() {
  if (checkpointer_ == nullptr) {
    return ControlReply::err(
        "unsupported:checkpoint",
        "checkpointing not armed (launch with --checkpoint-dir)");
  }
  try {
    const std::string path = checkpointer_->write_checkpoint();
    ++live_stats_.checkpoints_written;
    return ControlReply::good("wrote " + path);
  } catch (const std::exception& e) {
    ++live_stats_.checkpoint_errors;
    return ControlReply::err("io", e.what());
  }
}

ControlReply LiveDatapath::control_stats() {
  live_stats_.frames = source_->frames_received();
  live_stats_.frame_bytes = source_->bytes_received();
  live_stats_.malformed = source_->malformed_inputs();
  live_stats_.frames_lost = source_->frames_lost();
  const SimTime at = saw_packet_ ? last_packet_time_ : SimTime::origin();
  char buf[768];
  std::snprintf(
      buf, sizeof(buf),
      "{\"source\":\"%s\",\"frames\":%llu,\"frame_bytes\":%llu,"
      "\"packets\":%llu,\"forwarded\":%llu,\"dropped\":%llu,"
      "\"ignored\":%llu,\"decode_errors\":%llu,\"malformed\":%llu,"
      "\"batches\":%llu,\"ticks\":%llu,\"frames_lost\":%llu,"
      "\"capture_failures\":%llu,\"capture_reattaches\":%llu,"
      "\"capture_gap_usec\":%llu,\"capture_attached\":%s,"
      "\"metrics_export_errors\":%llu,\"checkpoints_written\":%llu,"
      "\"uplink_bps\":%g}",
      source_->name().c_str(),
      static_cast<unsigned long long>(live_stats_.frames),
      static_cast<unsigned long long>(live_stats_.frame_bytes),
      static_cast<unsigned long long>(live_stats_.packets),
      static_cast<unsigned long long>(live_stats_.forwarded),
      static_cast<unsigned long long>(live_stats_.dropped),
      static_cast<unsigned long long>(live_stats_.ignored),
      static_cast<unsigned long long>(live_stats_.decode_errors),
      static_cast<unsigned long long>(live_stats_.malformed),
      static_cast<unsigned long long>(live_stats_.batches),
      static_cast<unsigned long long>(live_stats_.ticks),
      static_cast<unsigned long long>(live_stats_.frames_lost),
      static_cast<unsigned long long>(live_stats_.capture_failures),
      static_cast<unsigned long long>(live_stats_.capture_reattaches),
      static_cast<unsigned long long>(live_stats_.capture_gap_usec),
      capture_attached_ ? "true" : "false",
      static_cast<unsigned long long>(live_stats_.metrics_export_errors),
      static_cast<unsigned long long>(live_stats_.checkpoints_written),
      router_->uplink_bits_per_sec(at));
  return ControlReply::good(buf);
}

ControlReply LiveDatapath::control_stats_tenants() {
  // Capability-gated like `set dt`/`snapshot`: the declared backend
  // capability decides, so the answer matches the registry's contract
  // even if the running filter type were to change.
  if (!spec_.backend->has(kCapTenancy)) {
    return ControlReply::err(
        "capability:tenancy",
        "filter '" + spec_.kind() + "' has no tenant table (" +
            FilterRegistry::instance().names_with(kCapTenancy) + ")");
  }
  const HierarchicalFilter* hier = router_->hierarchical_filter();
  if (hier == nullptr) {
    return ControlReply::err("capability:tenancy",
                             "filter has no tenant table");
  }
  char buf[256];
  std::snprintf(
      buf, sizeof(buf),
      "{\"tenants\":%zu,\"fine_live\":%zu,\"fine_instantiations\":%llu,"
      "\"fine_evictions\":%llu,\"front_absorbed\":%llu,"
      "\"digest_admits\":%llu,\"digest_epoch\":%llu}",
      hier->tenant_count(), hier->live_fine_filters(),
      static_cast<unsigned long long>(hier->fine_instantiations()),
      static_cast<unsigned long long>(hier->fine_evictions()),
      static_cast<unsigned long long>(hier->front_absorbed()),
      static_cast<unsigned long long>(hier->digest_admits()),
      static_cast<unsigned long long>(
          hier->digests_enabled() ? hier->digest_epoch() : 0));
  return ControlReply::good(buf);
}

void LiveDatapath::control_quit() { drain_and_stop(); }

}  // namespace upbound::live
