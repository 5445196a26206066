// The out-in packet delay measurement of paper Section 3.3 (Fig. 5):
//
//   1. An outbound packet's socket pair is timestamped (insert or refresh).
//   2. An inbound packet whose inverse socket pair is recorded yields a
//      delay sample t - t0.
//   3. An expiry timer T_e deletes pairs when t - t0 > T_e, limiting the
//      port-reuse artifacts the paper observes as peaks at 60 s multiples.
//
// One entry per outbound socket pair lives on a FlatIndex; live entries
// are linked into a recency list ordered by their last outbound packet,
// and the expiry sweep takes the oldest end. Memory is O(distinct pairs),
// not O(outbound packets within T_e).
#pragma once

#include <cstdint>

#include "net/direction.h"
#include "net/five_tuple.h"
#include "net/packet.h"
#include "util/flat_index.h"
#include "util/stats.h"
#include "util/time.h"

namespace upbound {

/// Packets are expected in non-decreasing timestamp order. A packet whose
/// timestamp regressed is still handled by one rule: an outbound refresh
/// stamps the pair with the packet's own timestamp and moves it to the
/// newest end of the recency list, and a sweep expires pairs from the
/// oldest end while `last + T_e <= now`. The list is then not sorted by
/// time, so a pair refreshed into the past waits behind newer ones.
class OutInDelayTracker {
 public:
  explicit OutInDelayTracker(Duration expiry_timer = Duration::sec(600.0));

  void on_packet(const PacketRecord& pkt, Direction dir);

  /// Collected delay samples in seconds.
  const CdfBuilder& delays() const { return delays_; }

  /// Pairs whose timer is running.
  std::size_t tracked_pairs() const { return live_; }
  std::uint64_t expired_pairs() const { return expired_; }
  Duration expiry_timer() const { return expiry_; }

 private:
  /// One per outbound socket pair ever seen. Expiry unlinks the entry and
  /// clears `live`; the entry stays in the index for the pair's next
  /// outbound packet.
  struct Pair {
    SimTime last;                      // latest outbound timestamp
    FlatPosition prev = kNilPosition;  // toward the newest refresh
    FlatPosition next = kNilPosition;  // toward the oldest refresh
    bool live = false;
  };
  using Index = FlatIndex<FiveTuple, Pair, TupleMix>;

  void sweep(SimTime now);
  /// Unlinks a live pair and counts it expired.
  void expire(FlatPosition pos);

  Duration expiry_;
  Index pairs_;
  // Front: the newest refresh; back: the next pair to expire.
  PositionList<Index> recency_;
  std::size_t live_ = 0;
  CdfBuilder delays_;
  std::uint64_t expired_ = 0;
};

}  // namespace upbound
