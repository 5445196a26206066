#include "analyzer/out_in_delay.h"

#include <stdexcept>

namespace upbound {

OutInDelayTracker::OutInDelayTracker(Duration expiry_timer)
    : pairs_(expiry_timer) {
  if (expiry_timer <= Duration{}) {
    throw std::invalid_argument("OutInDelayTracker: expiry must be positive");
  }
}

void OutInDelayTracker::on_packet(const PacketRecord& pkt, Direction dir) {
  expired_ += pairs_.sweep(pkt.timestamp);
  if (dir == Direction::kOutbound) {
    // Step 1: record or refresh sigma_out's timestamp.
    pairs_.touch(pkt.tuple, pkt.timestamp);
  } else if (dir == Direction::kInbound) {
    // Step 2: look up the inverse socket pair.
    const FiveTuple key = pkt.tuple.inverse();
    const auto* pair = pairs_.find(key);
    if (pair == nullptr) return;
    const Duration delay = pkt.timestamp - pair->last;
    if (delay > pairs_.ttl()) {
      // Step 3: stale pair (port reuse); drop it instead of sampling.
      pairs_.erase(key);
      ++expired_;
      return;
    }
    delays_.add(delay.to_sec());
  }
}

}  // namespace upbound
