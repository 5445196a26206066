#include "filter/bandwidth_meter.h"

#include <stdexcept>
#include <string>

namespace upbound {

namespace {

/// Floor division: rounds toward negative infinity, unlike C++'s `/`
/// which truncates toward zero. A pre-origin SimTime (negative usec) must
/// map to the slot whose span contains it -- truncation would map e.g.
/// -0.5 slots to slot 0 and make the window appear to roll backward.
std::int64_t floor_div(std::int64_t a, std::int64_t b) {
  return a / b - ((a % b != 0 && (a ^ b) < 0) ? 1 : 0);
}

/// Non-negative remainder in [0, b), valid for negative a.
std::size_t floor_mod(std::int64_t a, std::int64_t b) {
  const std::int64_t m = a % b;
  return static_cast<std::size_t>(m < 0 ? m + b : m);
}

constexpr std::int64_t kRing = BandwidthMeter::kSlots;

Duration checked_slot_width(Duration window) {
  if (window <= Duration{} || window.count_usec() % kRing != 0) {
    throw std::invalid_argument(
        "BandwidthMeter: window must be positive and divisible by " +
        std::to_string(kRing) + " us");
  }
  return Duration::usec(window.count_usec() / kRing);
}

}  // namespace

BandwidthMeter::BandwidthMeter(Duration window)
    : window_(window), slot_width_(checked_slot_width(window)) {}

void BandwidthMeter::roll_to(SimTime now) {
  const std::int64_t target =
      floor_div(now.usec(), slot_width_.count_usec());
  if (!primed_) {
    primed_ = true;
    head_slot_ = target;
    return;
  }
  if (target <= head_slot_) return;
  const std::int64_t steps = target - head_slot_;
  if (steps >= kRing) {
    // Entire window expired.
    slots_.fill(0);
    total_bytes_ = 0;
  } else {
    for (std::int64_t i = 1; i <= steps; ++i) {
      auto& slot = slots_[floor_mod(head_slot_ + i, kRing)];
      total_bytes_ -= slot;
      slot = 0;
    }
  }
  head_slot_ = target;
}

SimTime BandwidthMeter::observe(SimTime now, bool count_regression) {
  if (primed_ && now < high_water_) {
    if (count_regression) ++clamp_events_;
    return high_water_;
  }
  high_water_ = now;
  return now;
}

void BandwidthMeter::add(SimTime now, std::uint64_t bytes) {
  roll_to(observe(now, /*count_regression=*/true));
  // floor_mod: head_slot_ is negative for pre-origin times, where C++'s
  // `%` would produce a negative (out-of-range) slot index.
  slots_[floor_mod(head_slot_, kRing)] += bytes;
  total_bytes_ += bytes;
}

double BandwidthMeter::bits_per_sec(SimTime now) {
  roll_to(observe(now, /*count_regression=*/false));
  return static_cast<double>(total_bytes_) * 8.0 / window_.to_sec();
}

void BandwidthMeter::advance(SimTime now) {
  roll_to(observe(now, /*count_regression=*/false));
}

}  // namespace upbound
