// Sliding-window throughput estimation -- the "indicator of upload
// bandwidth throughput b" that feeds Eq. 1. A ring of kSlots fixed-width
// slots covers the averaging window; expired slots are zeroed lazily as
// time advances, so both add() and bits_per_sec() are O(kSlots) worst
// case and O(1) amortized. The ring is inline and its length a constant:
// the router keeps one meter per tenant in its ledger entry, so a packet
// reaches its tenant's meter without another pointer chase, and the slot
// arithmetic is by a constant.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>

#include "util/time.h"

namespace upbound {

class BandwidthMeter {
 public:
  /// Subdivisions of the window: old traffic decays out in steps of
  /// window / kSlots.
  static constexpr std::size_t kSlots = 10;

  /// `window` is the averaging period: positive and a whole multiple of
  /// kSlots microseconds, else std::invalid_argument.
  explicit BandwidthMeter(Duration window = Duration::sec(1.0));

  /// Accounts `bytes` observed at time `now`. A regressed `now` (below
  /// the highest time seen) is clamped to that high-water mark and
  /// counted, mirroring EdgeRouter's rotation-clock clamp: a backwards
  /// step books the bytes into the newest slot instead of corrupting the
  /// window the Eq. 1 P_d input is averaged over.
  void add(SimTime now, std::uint64_t bytes);

  /// Throughput over the window ending at `now`, in bits per second.
  /// Regressed times are clamped to the high-water mark like add(), but
  /// NOT counted: a read never misattributes bytes, so it is not the
  /// clock anomaly the health monitor's clamp signal watches for.
  double bits_per_sec(SimTime now);

  /// Ages the window forward to `now` without booking bytes. The live
  /// datapath's tick timer calls this so traffic decays out of the Eq. 1
  /// input between packets; offline replay never needs it (every add or
  /// read carries a packet timestamp). Regressions clamp, uncounted.
  void advance(SimTime now);

  Duration window() const { return window_; }

  /// add() calls whose `now` regressed and was clamped -- data-bearing
  /// clock anomalies only (reads and advance() clamp silently).
  std::uint64_t clamp_events() const { return clamp_events_; }

 private:
  /// Clamps a regressed `now` to the high-water mark; counts it only when
  /// `count_regression` (the add() path). Forward times always raise the
  /// high-water mark -- even on reads -- because roll_to() advances the
  /// slot head, and head and high-water must move together or a later
  /// add() between the old high-water and this `now` would book bytes
  /// into a slot the ring has already wrapped past.
  SimTime observe(SimTime now, bool count_regression);

  /// Zeroes slots whose time span fell out of the window.
  void roll_to(SimTime now);

  Duration window_;
  Duration slot_width_;
  std::array<std::uint64_t, kSlots> slots_{};
  std::int64_t head_slot_ = 0;  // absolute slot index of the newest slot
  /// head_slot_ is meaningless until the first event sets it; without the
  /// latch a meter whose first event is pre-origin (negative slot index)
  /// would never roll forward from the default head of 0.
  bool primed_ = false;
  std::uint64_t total_bytes_ = 0;
  /// Highest time seen; regressions are clamped up to it.
  SimTime high_water_;
  std::uint64_t clamp_events_ = 0;
};

}  // namespace upbound
