#include "filter/blocklist.h"

#include <algorithm>
#include <utility>

namespace upbound {

namespace {
// Expired entries are reclaimed once they outnumber the live ones and this
// floor, so a small store does not rebuild on every expiry and a rebuild's
// O(live) cost is paid for by at least as many expiries.
constexpr std::size_t kCompactFloor = 1024;
}  // namespace

BlockList::BlockList(Duration ttl) : ttl_(ttl) {}

void BlockList::sweep(SimTime now) {
  while (recency_.back() != kNilPosition &&
         index_.value_at(recency_.back()).last + ttl_ <= now) {
    const FlatPosition pos = recency_.back();
    recency_.unlink(index_, pos);
    index_.value_at(pos).live = false;
    --live_;
  }
  if (index_.size() - live_ > std::max(live_, kCompactFloor)) compact();
}

void BlockList::compact() {
  Index fresh;
  PositionList<Index> recency;
  for (FlatPosition pos = recency_.back(); pos != kNilPosition;
       pos = index_.value_at(pos).prev) {
    Entry& entry = fresh.find_or_insert(index_.key_at(pos));
    entry.last = index_.value_at(pos).last;
    entry.live = true;
    recency.push_front(fresh, fresh.position_of(entry));
  }
  index_ = std::move(fresh);
  recency_ = recency;
}

void BlockList::block(const FiveTuple& sigma, SimTime now) {
  if (expires()) sweep(now);
  Entry& entry = index_.find_or_insert(sigma.canonical());
  const FlatPosition pos = index_.position_of(entry);
  entry.last = now;
  if (entry.live) {
    if (expires()) recency_.move_to_front(index_, pos);
    return;
  }
  entry.live = true;
  ++live_;
  ++total_blocked_;
  if (expires()) recency_.push_front(index_, pos);
}

bool BlockList::is_blocked(const FiveTuple& sigma, SimTime now) {
  if (!expires()) return index_.find(sigma.canonical()) != nullptr;
  sweep(now);
  Entry* entry = index_.find(sigma.canonical());
  if (entry == nullptr || !entry->live) return false;
  entry->last = now;  // refresh: active retries keep the block alive
  recency_.move_to_front(index_, index_.position_of(*entry));
  return true;
}

}  // namespace upbound
