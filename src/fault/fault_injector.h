// Deterministic fault injection for the replay engine.
//
// The injector turns a FaultSpec + seed into concrete, reproducible
// perturbations of a replay run. Faults split into two planes:
//
//  * feed faults (corrupt, clock-step, clock-skew) are applied by the
//    partitioning thread to each packet, keyed by its global trace index,
//    BEFORE sharding -- so the same packet is corrupted identically at any
//    thread/shard count;
//  * lane faults (kill-shard, stall-shard, flip-bit, ring-overflow) are
//    applied by the worker owning the target shard, triggered by that
//    shard's local processed-packet count -- a quantity the thread
//    schedule cannot influence.
//
// Everything is off unless a spec is supplied.
#pragma once

#include <cstdint>
#include <limits>
#include <vector>

#include "fault/fault_spec.h"
#include "filter/state_filter.h"
#include "net/packet.h"

namespace upbound {

/// "this trigger never fires" sentinel for packet-count trigger points.
inline constexpr std::uint64_t kFaultNever =
    std::numeric_limits<std::uint64_t>::max();

class FaultInjector {
 public:
  FaultInjector(FaultSpec spec, std::uint64_t seed);

  const FaultSpec& spec() const { return spec_; }
  bool armed() const { return !spec_.events.empty(); }

  /// Re-derives per-shard schedules for a run over `shards` shards. Must
  /// be called before a replay uses the injector; throws when an event
  /// targets a shard >= shards. Resets all injection counters.
  void bind(std::size_t shards);
  std::size_t shards() const { return lanes_.size(); }

  // --- Feed plane (partitioning thread only) ---

  /// Applies corrupt/clock faults to the packet with global trace index
  /// `index`. Purely a function of (spec, seed, index, pkt).
  void apply_feed(std::uint64_t index, PacketRecord& pkt);

  // --- Lane plane (each shard queried only by its owning worker) ---

  /// Shard-local packet count at which the lane dies (kFaultNever = no
  /// kill scheduled).
  std::uint64_t kill_at(std::size_t shard) const {
    return lanes_[shard].kill_at;
  }
  /// True when the shard has any lane fault, so fault-free lanes keep the
  /// plain whole-chunk hot path.
  bool lane_faulted(std::size_t shard) const {
    return lanes_[shard].faulted;
  }
  /// One-shot stall: returns the sleep in milliseconds the first time the
  /// shard's processed count reaches the trigger, 0.0 otherwise.
  double take_stall_ms(std::size_t shard, std::uint64_t processed);
  /// Applies every scheduled bit flip whose trigger has been reached to
  /// the shard's filter (BitmapFilter only; others count as ignored).
  void apply_state_faults(std::size_t shard, std::uint64_t processed,
                          StateFilter& filter);
  /// Earliest pending lane trigger (kill, un-applied flip, un-taken
  /// stall) strictly after `processed`; kFaultNever when none. Lets a
  /// worker process packets in whole sub-batches between exact trigger
  /// points.
  std::uint64_t next_lane_trigger(std::size_t shard,
                                  std::uint64_t processed) const;
  /// Ring capacity override: the minimum (2 chunks) for ring-overflow
  /// targets, `fallback` otherwise.
  std::size_t ring_chunks_for(std::size_t shard, std::size_t fallback) const;

  // --- Daemon plane (live datapath; single-threaded, no bind() needed) ---

  /// One-shot capture-fd kill: true the first time the source's delivered
  /// frame count reaches a scheduled capture.kill trigger. The caller
  /// tears the fd down (inject_failure) and lets supervision reattach.
  bool take_capture_kill(std::uint64_t frames_delivered);
  /// One-shot capture stall: the detach window in milliseconds the first
  /// time `frames_delivered` reaches a capture.stall trigger, 0.0
  /// otherwise.
  double take_capture_stall_ms(std::uint64_t frames_delivered);
  /// Whether the checkpoint write of `generation` is scheduled to be
  /// corrupted (checkpoint.corrupt:<g>).
  bool corrupt_checkpoint(std::uint64_t generation) const;

  // --- Injection counters (stable after the run's threads joined) ---
  std::uint64_t packets_corrupted() const { return packets_corrupted_; }
  std::uint64_t capture_kills_taken() const { return capture_kills_taken_; }
  std::uint64_t capture_stalls_taken() const {
    return capture_stalls_taken_;
  }
  std::uint64_t clock_faulted_packets() const { return clock_faulted_; }
  std::uint64_t bits_flipped() const;
  std::uint64_t flips_ignored() const;
  std::uint64_t stalls_taken() const;

 private:
  struct FlipEvent {
    std::uint64_t at_packet = 0;
    std::uint64_t bit = 0;
    bool applied = false;
  };
  struct StallEvent {
    std::uint64_t at_packet = 0;
    double ms = 0.0;
    bool taken = false;
  };
  /// Per-shard schedule; only the owning worker reads/writes one entry, so
  /// the mutable cursors need no synchronization.
  struct LaneFaults {
    std::uint64_t kill_at = kFaultNever;
    std::vector<StallEvent> stalls;
    std::vector<FlipEvent> flips;
    bool ring_overflow = false;
    bool faulted = false;
    std::uint64_t bits_flipped = 0;
    std::uint64_t flips_ignored = 0;
    std::uint64_t stalls_taken = 0;
  };

  FaultSpec spec_;
  std::uint64_t seed_ = 0;
  std::vector<LaneFaults> lanes_;

  // Daemon-plane schedule (the single datapath thread only).
  std::vector<StallEvent> capture_kills_;   // ms unused
  std::vector<StallEvent> capture_stalls_;
  std::vector<std::uint64_t> checkpoint_corrupt_gens_;
  std::uint64_t capture_kills_taken_ = 0;
  std::uint64_t capture_stalls_taken_ = 0;

  // Feed-plane schedule (partitioning thread only).
  double corrupt_rate_ = 0.0;
  double skew_factor_ = 1.0;
  std::vector<FaultEvent> steps_;  // clock-step events
  std::uint64_t packets_corrupted_ = 0;
  std::uint64_t clock_faulted_ = 0;
};

}  // namespace upbound
