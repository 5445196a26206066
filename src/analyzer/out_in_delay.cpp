#include "analyzer/out_in_delay.h"

#include <stdexcept>

namespace upbound {

OutInDelayTracker::OutInDelayTracker(Duration expiry_timer)
    : expiry_(expiry_timer) {
  if (expiry_ <= Duration{}) {
    throw std::invalid_argument("OutInDelayTracker: expiry must be positive");
  }
}

void OutInDelayTracker::expire(FlatPosition pos) {
  recency_.unlink(pairs_, pos);
  pairs_.value_at(pos).live = false;
  --live_;
  ++expired_;
}

void OutInDelayTracker::sweep(SimTime now) {
  while (recency_.back() != kNilPosition &&
         pairs_.value_at(recency_.back()).last + expiry_ <= now) {
    expire(recency_.back());
  }
}

void OutInDelayTracker::on_packet(const PacketRecord& pkt, Direction dir) {
  sweep(pkt.timestamp);
  if (dir == Direction::kOutbound) {
    // Step 1: record or refresh sigma_out's timestamp.
    Pair& pair = pairs_.find_or_insert(pkt.tuple);
    const FlatPosition pos = pairs_.position_of(pair);
    pair.last = pkt.timestamp;
    if (pair.live) {
      recency_.move_to_front(pairs_, pos);
    } else {
      pair.live = true;
      ++live_;
      recency_.push_front(pairs_, pos);
    }
  } else if (dir == Direction::kInbound) {
    // Step 2: look up the inverse socket pair.
    const Pair* pair = pairs_.find(pkt.tuple.inverse());
    if (pair == nullptr || !pair->live) return;
    const Duration delay = pkt.timestamp - pair->last;
    if (delay > expiry_) {
      // Step 3: stale pair (port reuse); drop it instead of sampling.
      expire(pairs_.position_of(*pair));
      return;
    }
    delays_.add(delay.to_sec());
  }
}

}  // namespace upbound
