// Blocked-connection store implementing the Section 5.3 simulation rule:
// when an inbound packet is dropped by the filter, its socket pair sigma is
// stored and every future packet matching sigma or its inverse is dropped
// without consulting the bitmap -- modelling a connection that never got
// established.
//
// Entries carry an optional TTL so long replays cannot grow the store
// unboundedly (a blocked peer that stays silent for the TTL is forgotten,
// exactly like a real endpoint giving up on retries). The entries, one per
// canonical sigma, live on an ExpirySet.
#pragma once

#include <cstddef>
#include <cstdint>

#include "net/five_tuple.h"
#include "util/expiry_set.h"
#include "util/time.h"

namespace upbound {

/// Times passed to block() and is_blocked() must not decrease; the router
/// clamps a regressed packet to its last-seen time before it gets here. A
/// regressed time follows the ExpirySet rule.
class BlockList {
 public:
  /// `ttl` <= 0 means entries never expire.
  explicit BlockList(Duration ttl = Duration{});

  /// Records sigma as blocked at time `now`.
  void block(const FiveTuple& sigma, SimTime now);

  /// True when sigma or its inverse was blocked (and not expired).
  /// Refreshes the entry's TTL: continued retries keep the block alive.
  bool is_blocked(const FiveTuple& sigma, SimTime now);

  /// Blocked, unexpired connections.
  std::size_t size() const { return entries_.size(); }
  /// Blocks of a connection that was absent or had expired.
  std::uint64_t total_blocked() const { return total_blocked_; }
  /// Slot-array length of the index, which the store's memory follows.
  std::size_t capacity() const { return entries_.capacity(); }

 private:
  ExpirySet<FiveTuple, TupleMix> entries_;
  std::uint64_t total_blocked_ = 0;
};

}  // namespace upbound
