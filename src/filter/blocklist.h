// Blocked-connection store implementing the Section 5.3 simulation rule:
// when an inbound packet is dropped by the filter, its socket pair sigma is
// stored and every future packet matching sigma or its inverse is dropped
// without consulting the bitmap -- modelling a connection that never got
// established.
//
// Entries carry an optional TTL so long replays cannot grow the store
// unboundedly (a blocked peer that stays silent for the TTL is forgotten,
// exactly like a real endpoint giving up on retries).
//
// One entry per canonical sigma lives on a FlatIndex. With a TTL, live
// entries are linked into a recency list ordered by their last block or
// refresh, and the expiry sweep takes the oldest end. Expired entries stay
// in the index (a re-block revives one in place) until they outnumber the
// live ones above a small floor; then the live entries are rebuilt into a
// fresh index in recency order. Memory is O(peak live entries).
#pragma once

#include <cstddef>
#include <cstdint>

#include "net/five_tuple.h"
#include "util/flat_index.h"
#include "util/time.h"

namespace upbound {

/// Times passed to block() and is_blocked() must not decrease; the router
/// clamps a regressed packet to its last-seen time before it gets here. A
/// regressed time is still handled by one rule: a block or a hit stamps
/// the entry with the call's own time and moves it to the newest end of
/// the recency list, and a sweep expires entries from the oldest end while
/// `last + ttl <= now`. The list is then not sorted by time, so an entry
/// stamped into the past expires only after every entry stamped before it.
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
  std::size_t size() const { return live_; }
  /// Blocks of a connection that was absent or had expired.
  std::uint64_t total_blocked() const { return total_blocked_; }
  /// Slot-array length of the index, which the store's memory follows.
  std::size_t capacity() const { return index_.slot_count(); }

 private:
  /// One per canonical sigma. Expiry unlinks the entry and clears `live`.
  struct Entry {
    SimTime last;                      // latest block or refresh
    FlatPosition prev = kNilPosition;  // toward the newest refresh
    FlatPosition next = kNilPosition;  // toward the oldest refresh
    bool live = false;
  };
  using Index = FlatIndex<FiveTuple, Entry, TupleMix>;

  bool expires() const { return ttl_ > Duration{}; }
  void sweep(SimTime now);
  /// Rebuilds the index from the live entries, oldest first.
  void compact();

  Duration ttl_;
  Index index_;
  // Front: the newest refresh; back: the next entry to expire. Empty
  // without a TTL.
  PositionList<Index> recency_;
  std::size_t live_ = 0;
  std::uint64_t total_blocked_ = 0;
};

}  // namespace upbound
