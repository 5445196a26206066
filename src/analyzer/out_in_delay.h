// The out-in packet delay measurement of paper Section 3.3 (Fig. 5):
//
//   1. An outbound packet's socket pair is timestamped (insert or refresh).
//   2. An inbound packet whose inverse socket pair is recorded yields a
//      delay sample t - t0.
//   3. An expiry timer T_e deletes pairs when t - t0 > T_e, limiting the
//      port-reuse artifacts the paper observes as peaks at 60 s multiples.
//
// One entry per outbound socket pair lives on an ExpirySet whose TTL is
// T_e, stamped by the pair's latest outbound packet, so memory is
// O(pairs within T_e).
#pragma once

#include <cstdint>

#include "net/direction.h"
#include "net/five_tuple.h"
#include "net/packet.h"
#include "util/expiry_set.h"
#include "util/stats.h"
#include "util/time.h"

namespace upbound {

/// Packets are expected in non-decreasing timestamp order; a regressed
/// timestamp follows the ExpirySet rule.
class OutInDelayTracker {
 public:
  explicit OutInDelayTracker(Duration expiry_timer = Duration::sec(600.0));

  void on_packet(const PacketRecord& pkt, Direction dir);

  /// Collected delay samples in seconds.
  const CdfBuilder& delays() const { return delays_; }

  /// Pairs whose timer is running.
  std::size_t tracked_pairs() const { return pairs_.size(); }
  std::uint64_t expired_pairs() const { return expired_; }
  /// Slot-array length of the pair index, which the memory follows.
  std::size_t capacity() const { return pairs_.capacity(); }

 private:
  ExpirySet<FiveTuple, TupleMix> pairs_;
  CdfBuilder delays_;
  std::uint64_t expired_ = 0;
};

}  // namespace upbound
