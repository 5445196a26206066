// The live datapath: a capture source, the unmodified EdgeRouter staged
// pipeline, and the runtime control surface, all driven by one epoll
// event loop. Frames drain in batches, decode into a reused PacketRecord
// ring (allocation-free steady state), and flow through the exact same
// process_batch/account_replay_batch seam offline replay uses -- which is
// what makes live-vs-offline conformance a byte-identity check rather
// than a tolerance test.
//
// Time has two sources: packet timestamps drive the router exactly as in
// replay, and a periodic tick advances the router clock from the
// pluggable Clock between packets (rotations fire, metered traffic ages
// out). The conformance harness pins a VirtualClock to the replayed
// timeline so ticks are no-ops and the live run is observably identical
// to offline replay.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>

#include "fault/fault_injector.h"
#include "filter/filter_registry.h"
#include "net/headers.h"
#include "net/live/capture.h"
#include "net/live/checkpointer.h"
#include "net/live/control.h"
#include "net/live/event_loop.h"
#include "sim/replay.h"
#include "util/backoff.h"
#include "util/clock.h"
#include "util/metrics_export.h"

namespace upbound::live {

struct LiveConfig {
  EdgeRouterConfig router;

  /// Eq. 1 policy: RED between low/high, or a constant P_d.
  bool policy_red = true;
  double policy_low = 50e6;
  double policy_high = 100e6;
  double policy_pd = 1.0;

  /// Largest batch handed to the router (mirrors replay's 256).
  std::size_t batch_max = 256;
  /// Tick timer period (rotation/metrics cadence between packets).
  Duration tick = Duration::msec(100.0);
  /// Time source for ticks and on-receive stamping. Required.
  Clock* clock = nullptr;

  /// Stop conditions; zero disables each. run_duration is measured on
  /// `clock` from construction.
  Duration run_duration{};
  std::uint64_t max_packets = 0;

  /// Telemetry export (mirrors the offline --metrics-* flags).
  std::string metrics_out;
  Duration metrics_interval{};  // zero = final snapshot only
  bool metrics_deterministic = false;
  bool metrics_prometheus = false;

  /// Capture-source supervision: when the source's fd dies (ENETDOWN,
  /// ring death, EPOLLERR) the datapath detaches it and retries
  /// reattach() under bounded exponential backoff instead of exiting.
  Duration capture_retry_initial = Duration::msec(10);
  Duration capture_retry_max = Duration::sec(2.0);
  /// Consecutive failed reattach attempts before the daemon gives up and
  /// drains; 0 = retry forever.
  std::uint64_t capture_retry_limit = 0;

  /// Periodic crash-consistent checkpointing (empty dir = off; requires
  /// a kCapSnapshot backend).
  std::string checkpoint_dir;
  Duration checkpoint_interval = Duration::sec(5.0);
  std::size_t checkpoint_keep = 4;

  /// Daemon-plane fault injection (capture.kill / capture.stall /
  /// checkpoint.corrupt); owned by the caller, may be null.
  FaultInjector* faults = nullptr;
};

struct LiveStats {
  std::uint64_t frames = 0;        // frames delivered by the source
  std::uint64_t frame_bytes = 0;   // their payload bytes
  std::uint64_t decode_errors = 0; // frames that failed Ethernet/IP decode
  std::uint64_t malformed = 0;     // source-level runts (tap envelope)
  std::uint64_t packets = 0;       // decoded packets processed
  std::uint64_t batches = 0;       // router batches
  std::uint64_t forwarded = 0;     // pass verdicts
  std::uint64_t dropped = 0;       // drop verdicts
  std::uint64_t ignored = 0;       // local/transit verdicts
  std::uint64_t ticks = 0;         // tick-timer expirations observed

  // Robustness-layer accounting.
  std::uint64_t capture_failures = 0;    // fatal source errors observed
  std::uint64_t capture_reattach_attempts = 0;
  std::uint64_t capture_reattaches = 0;  // fd successfully re-registered
  std::uint64_t frames_lost = 0;         // source-reported input loss
  std::uint64_t capture_gap_usec = 0;    // cumulative detached wall time
  std::uint64_t metrics_export_errors = 0;  // failed interval exports
  std::uint64_t checkpoints_written = 0;
  std::uint64_t checkpoint_errors = 0;   // failed checkpoint writes
};

/// Strips the batch-shape-dependent histograms (batch.packets,
/// run.packets) from a snapshot. They are deterministic but depend on
/// how arrivals coalesce into batches, which is the one thing a live run
/// legitimately does differently from offline replay; everything else in
/// the deterministic subset must match byte-for-byte.
MetricsSnapshot strip_batch_shape(const MetricsSnapshot& snapshot);

/// The canonical conformance report: deterministic subset, batch-shape
/// stripped, serialized with the stable JSON encoder. Two runs that
/// processed the same packets identically produce identical strings.
std::string conformance_report(const ReplayResult& result, SimTime end_time);

class LiveDatapath final : public ControlApi {
 public:
  /// Registers the capture fd and the tick timer with `loop`; the loop
  /// must outlive the datapath.
  LiveDatapath(LiveConfig config, FilterSpec spec,
               std::unique_ptr<CaptureSource> source, EventLoop& loop);
  ~LiveDatapath() override;

  /// Arms the control socket at `path`. `idle_timeout` is forwarded to
  /// the ControlServer's mid-line idle sweep.
  void enable_control(const std::string& path,
                      Duration idle_timeout = Duration::sec(30.0));

  /// Restores the newest valid checkpoint generation from `dir` into the
  /// running router: filter state (with the image's rotation cadence) and
  /// drop-policy watermarks. Generations that fail to decode, CRC-check,
  /// restore, or whose geometry disagrees with the configured filter spec
  /// are skipped with typed reasons (result.skipped); the restore
  /// succeeds iff any generation survives. `now` enables the T_e
  /// staleness check -- in-process restarts on a shared timeline pass the
  /// current sim time, cross-process restarts pass nullopt (monotonic
  /// epochs are not comparable between runs). Call before traffic flows;
  /// throws std::invalid_argument for a backend without a state image.
  CheckpointRestore restore_checkpoint_dir(
      const std::string& dir, std::optional<SimTime> now = std::nullopt);

  /// SIGHUP entry point: applies the reload file like the control
  /// socket's `reload` verb and returns the same typed reply.
  ControlReply reload_from_file(const std::string& path) {
    return control_reload(path);
  }

  /// Per-verdict hook (e.g. writing forwarded packets to a pcap).
  void set_verdict_sink(
      std::function<void(const PacketRecord&, RouterDecision)> sink) {
    verdict_sink_ = std::move(sink);
  }

  /// Drains everything still buffered in the source, processes it, and
  /// stops the loop. Signal handlers and `quit` route here: shutdown
  /// loses no accepted frame (the conservation check in the harness).
  void drain_and_stop();

  /// Drains + snapshots final stats/metrics into result(); writes the
  /// final metrics export. Idempotent; called by drain_and_stop.
  void finalize();

  const ReplayResult& result() const { return result_; }
  const LiveStats& stats() const { return live_stats_; }
  /// False when the final metrics export could not be written (also
  /// warned on stderr); lets callers avoid reporting a file that does
  /// not exist.
  bool metrics_export_ok() const { return !metrics_export_failed_; }
  EdgeRouter& router() { return *router_; }
  const FilterSpec& spec() const { return spec_; }
  CaptureSource& source() { return *source_; }
  const ControlServer* control() const { return control_.get(); }
  SimTime last_packet_time() const { return last_packet_time_; }
  /// False while the capture fd is detached (failure -> backoff window).
  bool capture_attached() const { return capture_attached_; }
  const Checkpointer* checkpointer() const { return checkpointer_.get(); }

  // ControlApi:
  ControlReply control_set_threshold(bool is_low, double bps) override;
  ControlReply control_set_rotate_interval(Duration dt) override;
  ControlReply control_set_unhealthy_stance(UnhealthyStance s) override;
  ControlReply control_snapshot(const std::string& path) override;
  ControlReply control_reload(const std::string& path) override;
  ControlReply control_checkpoint() override;
  ControlReply control_stats() override;
  ControlReply control_stats_tenants() override;
  void control_quit() override;

 private:
  void on_capture_readable();
  void on_tick(std::uint64_t expirations);
  /// Decodes one frame into the reused batch ring.
  void ingest_frame(std::span<const std::uint8_t> frame, SimTime ts);
  /// Runs the pending batch through the router + replay accounting.
  void process_pending();
  void maybe_emit_interval_metrics();
  void check_stop_conditions();

  // Capture supervision.
  /// Detaches the dead capture fd, flips the router's health stance into
  /// the outage, and schedules the first backoff reattach attempt.
  void handle_capture_failure();
  void try_reattach();
  void schedule_reattach();
  /// Re-registers `capture_fd_` with the loop and clears the outage.
  void attach_capture();
  /// Fires armed daemon-plane faults (capture.kill / capture.stall)
  /// against the source's delivered-frame count.
  void run_capture_faults();
  /// Deterministic outage: detach for `window`, then re-register the
  /// same fd (no socket death involved).
  void stall_capture(Duration window);

  // Checkpointing.
  /// StateProvider body: quiesces and saves the filter's state image.
  std::vector<std::uint8_t> checkpoint_state(CheckpointMeta& meta);
  /// Timer body: one checkpoint, errors counted + warned, never fatal.
  void write_checkpoint_now();
  /// Appends checkpoint.staleness_usec / checkpoint.generations gauges
  /// when checkpointing is armed (off = snapshot untouched, preserving
  /// conformance byte-identity).
  void append_robustness_gauges(MetricsSnapshot& snap, SimTime now) const;

  LiveConfig config_;
  FilterSpec spec_;
  std::unique_ptr<CaptureSource> source_;
  EventLoop& loop_;
  std::unique_ptr<EdgeRouter> router_;
  ReplayResult result_;
  LiveStats live_stats_;
  std::unique_ptr<ControlServer> control_;
  std::function<void(const PacketRecord&, RouterDecision)> verdict_sink_;

  // Reused batch ring: pending_[0..pending_count_) are decoded packets
  // awaiting the router. Payload vectors keep their capacity across
  // reuse, so the steady-state frame path performs no allocations.
  std::vector<PacketRecord> pending_;
  std::size_t pending_count_ = 0;
  std::vector<RouterDecision> decisions_;
  FrameSink sink_;

  double policy_low_ = 0;
  double policy_high_ = 0;
  /// The running filter's dt, written into each checkpoint envelope;
  /// follows `set dt`, `reload`, and checkpoint restore.
  Duration rotate_interval_{};

  SimTime start_time_;
  SimTime last_packet_time_;
  bool saw_packet_ = false;
  bool metrics_export_failed_ = false;

  std::unique_ptr<MetricsJsonlWriter> metrics_writer_;
  SimTime next_metrics_emit_;
  int tick_fd_ = -1;
  bool finalized_ = false;

  // Capture supervision state.
  int capture_fd_ = -1;
  bool capture_attached_ = false;
  SimTime capture_down_since_;
  RetryDelay capture_retry_;
  std::uint64_t consecutive_reattach_failures_ = 0;
  /// Pending backoff / stall one-shot timer fd (-1 = none); removed in
  /// the destructor so no callback outlives the datapath.
  int pending_oneshot_fd_ = -1;

  std::unique_ptr<Checkpointer> checkpointer_;
  int checkpoint_fd_ = -1;
};

}  // namespace upbound::live
