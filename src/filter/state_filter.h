// Common interface for the three connection-state trackers compared in the
// paper's evaluation: the bitmap filter (the contribution), the naive
// exact-timer solution (Section 4.2's strawman), and the SPI baseline
// (Section 5.3). Each answers one question on the inbound path -- "did an
// inner client recently talk to this socket pair?" -- and differs only in
// state representation and expiry semantics.
//
// The scalar methods are the semantic ground truth. The *_batch methods
// exist so hot implementations can amortize virtual dispatch, hash once
// per packet, and overlap bit-vector cache misses; their contract is that
// a batch call is observably identical to the per-packet sequence
// {advance_time(pkt.timestamp); <op>(pkt)} in batch order. The defaults
// below implement exactly that loop, so new filters are batch-correct for
// free and the fast paths can be differential-tested against them.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <string>

#include "net/direction.h"
#include "net/packet.h"
#include "net/packet_batch.h"
#include "util/time.h"

namespace upbound {

class StateFilter {
 public:
  virtual ~StateFilter() = default;

  /// Advances internal timers to `now`. Must be called with non-decreasing
  /// times; packet callbacks assume timers are current.
  virtual void advance_time(SimTime now) = 0;

  /// Records state for an outbound packet (tuple written sender-first,
  /// i.e. source is the internal client). Outbound packets always pass.
  virtual void record_outbound(const PacketRecord& pkt) = 0;

  /// True if state exists admitting this inbound packet (tuple written
  /// sender-first, i.e. destination is the internal client). Inbound
  /// packets without state are subject to the drop policy.
  virtual bool admits_inbound(const PacketRecord& pkt) = 0;

  /// Records a time-sorted batch of outbound packets. Equivalent to
  /// {advance_time(pkt.timestamp); record_outbound(pkt)} per packet in
  /// batch order; overrides may reorder internally only where the result
  /// is indistinguishable (e.g. commuting idempotent bit marks between
  /// rotations).
  virtual void record_outbound_batch(PacketBatch batch) {
    for (const PacketRecord& pkt : batch) {
      advance_time(pkt.timestamp);
      record_outbound(pkt);
    }
  }

  /// Looks up a time-sorted batch of inbound packets; writes one verdict
  /// per packet into `admits` (which must be at least batch.size() long).
  /// Equivalent to {advance_time(pkt.timestamp); admits_inbound(pkt)} per
  /// packet in batch order.
  virtual void admits_inbound_batch(PacketBatch batch,
                                    std::span<bool> admits) {
    for (std::size_t i = 0; i < batch.size(); ++i) {
      advance_time(batch[i].timestamp);
      admits[i] = admits_inbound(batch[i]);
    }
  }

  /// Cache hint for a packet the caller will soon hand to
  /// record_outbound (dir == kOutbound) or admits_inbound (kInbound): an
  /// implementation may start the memory accesses that call will make.
  /// It must have no observable effect -- a filter that receives hints
  /// behaves exactly like one that never does -- and it is ignored for
  /// any other direction. Default: nothing.
  virtual void prefetch(const PacketRecord& /*pkt*/,
                        Direction /*dir*/) const {}

  /// True when admits_inbound is a pure lookup: no observable state
  /// change, so callers may evaluate it speculatively for packets whose
  /// verdict ends up unused (the batched edge router relies on this to
  /// look up a whole inbound run before consulting the blocklist).
  /// Conservative default: false.
  virtual bool inbound_lookup_is_pure() const { return false; }

  /// Set-cell fraction U of the structure consulted by admits_inbound
  /// (the current Bloom vector / counter generation). Paper Eq. 2's input
  /// and the health monitor's saturation signal. std::nullopt when the
  /// backend has no meaningful occupancy (exact-state filters); the
  /// registry's occupancy capability bit mirrors this.
  virtual std::optional<double> occupancy_fraction() const {
    return std::nullopt;
  }

  /// Number of expiry generations completed so far (bitmap rotations,
  /// aging epochs, counting-generation clears). 0 for filters whose
  /// expiry is continuous rather than generational; the adaptive tuner
  /// uses transitions of this value to fold occupancy peaks.
  virtual std::uint64_t expiry_generations() const { return 0; }

  /// Retunes the generational expiry interval dt at runtime (live-mode
  /// `set dt` reconfiguration). Returns false when the backend has no
  /// runtime-adjustable rotation schedule (the registry's
  /// kCapRotateInterval bit mirrors this); throws std::invalid_argument
  /// on a non-positive interval. Implementations re-anchor the next
  /// boundary to the last completed one so already-accumulated state ages
  /// on the new schedule without a partial-interval glitch.
  virtual bool set_rotate_interval(Duration /*dt*/) { return false; }

  /// Current heap footprint of the connection state, in bytes.
  virtual std::size_t storage_bytes() const = 0;

  virtual std::string name() const = 0;
};

}  // namespace upbound
