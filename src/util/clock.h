// Pluggable time source shared by the live datapath and its harnesses.
// Offline replay derives time from packet timestamps; live mode needs an
// external clock to drive rotation ticks and metrics cadence between
// packets. One interface serves both: MonotonicClock wraps
// CLOCK_MONOTONIC for deployment, VirtualClock is set explicitly by the
// loopback conformance harness so a live run replays a trace on the exact
// simulated timeline the offline replay used.
#pragma once

#include "util/time.h"

namespace upbound {

class Clock {
 public:
  virtual ~Clock() = default;

  /// Current time. Implementations must be monotonic: successive calls
  /// never go backwards.
  virtual SimTime now() = 0;
};

/// Explicitly driven clock for tests and the conformance harness. Never
/// regresses: advance_to() below the current time is a no-op, so harness
/// code can pin the clock to "last packet processed" without ordering
/// hazards.
class VirtualClock final : public Clock {
 public:
  explicit VirtualClock(SimTime start = SimTime::origin()) : now_(start) {}

  SimTime now() override { return now_; }

  void advance_to(SimTime t) {
    if (t > now_) now_ = t;
  }
  void advance_by(Duration d) { now_ = now_ + d; }

 private:
  SimTime now_;
};

/// CLOCK_MONOTONIC, rebased so the first call is t=0. Rebasing keeps live
/// timestamps in the same small-epoch domain as synthetic traces, so a
/// live run's series bucket indices and report rows read like a replay's
/// (TimeSeries stores only the populated span either way).
class MonotonicClock final : public Clock {
 public:
  MonotonicClock();

  SimTime now() override;

 private:
  std::int64_t epoch_ns_ = 0;
};

}  // namespace upbound
