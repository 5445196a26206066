// Expiry set: a keyed set that forgets a key a fixed time (the TTL) after
// its last touch. Every table that ages entries out keeps them here: the
// naive and SPI baselines, the blocked-connection store, the out-in
// tracker (T_e) and the analyzer's FTP expectations.
//
// One entry per key on a FlatIndex holds the last-touch time and an
// optional payload. Live keys form a recency list, newest touch at the
// front; sweep(now) expires keys from the oldest end while
// `last + ttl <= now`. An expired entry stays in the index (a later touch
// revives it in place) until the expired entries outnumber the live keys
// above kReclaimFloor; then the live keys are rebuilt, oldest first, into
// a fresh index. Memory is O(peak live keys), and a rebuild's O(live) cost
// is paid for by as many expiries. A TTL <= 0 never expires.
//
// Times should not decrease. A regressed time follows one rule: a touch
// stamps the key with the call's own time and moves it to the newest end,
// so a key stamped into the past expires only after every key touched
// before it.
#pragma once

#include <algorithm>
#include <cstddef>
#include <utility>

#include "util/flat_index.h"
#include "util/time.h"

namespace upbound {

struct NoPayload {};

/// Entry pointers are invalidated by touch(), erase() and sweep().
template <typename Key, typename Hash, typename Value = NoPayload>
class ExpirySet {
 public:
  /// Callers read `last` and use `value`; the rest belongs to the set.
  struct Entry {
    SimTime last;  // latest touch
    [[no_unique_address]] Value value{};
    FlatPosition prev = kNilPosition;  // toward the newest touch
    FlatPosition next = kNilPosition;  // toward the oldest touch
    bool live = false;
  };

  static constexpr std::size_t kReclaimFloor = 1024;

  explicit ExpirySet(Duration ttl) : ttl_(ttl) {}

  Duration ttl() const { return ttl_; }
  std::size_t size() const { return live_; }  // live keys
  /// Slot-array length of the index, which the memory follows.
  std::size_t capacity() const { return index_.slot_count(); }
  std::size_t storage_bytes() const { return index_.storage_bytes(); }

  /// Stamps `key` with `now` as the newest key. True when this made it
  /// live (it was absent or expired); its payload is then reset.
  bool touch(const Key& key, SimTime now) {
    Entry& entry = index_.find_or_insert(key);
    const FlatPosition pos = index_.position_of(entry);
    if (entry.live) {
      entry.last = now;
      recency_.move_to_front(index_, pos);
      return false;
    }
    entry = Entry{.last = now, .live = true};
    ++live_;
    recency_.push_front(index_, pos);
    return true;
  }

  /// Touches `key` only if it is live; returns its entry or nullptr.
  Entry* refresh(const Key& key, SimTime now) {
    Entry* entry = find(key);
    if (entry != nullptr) {
      entry->last = now;
      recency_.move_to_front(index_, index_.position_of(*entry));
    }
    return entry;
  }

  /// The entry of a live key, or nullptr.
  Entry* find(const Key& key) {
    Entry* entry = index_.find(key);
    return entry != nullptr && entry->live ? entry : nullptr;
  }

  /// Expires a live key now; false when it was not live.
  bool erase(const Key& key) {
    Entry* entry = find(key);
    if (entry == nullptr) return false;
    expire(index_.position_of(*entry));
    reclaim_if_sparse();
    return true;
  }

  /// Expires the keys whose TTL has run out at `now`; returns how many.
  std::size_t sweep(SimTime now) {
    std::size_t expired = 0;
    while (ttl_ > Duration{} && recency_.back() != kNilPosition &&
           index_.value_at(recency_.back()).last + ttl_ <= now) {
      expire(recency_.back());
      ++expired;
    }
    if (expired > 0) reclaim_if_sparse();
    return expired;
  }

 private:
  using Index = FlatIndex<Key, Entry, Hash>;

  void expire(FlatPosition pos) {
    recency_.unlink(index_, pos);
    index_.value_at(pos).live = false;
    --live_;
  }

  /// Runs after every expiry, the only event that adds expired entries.
  void reclaim_if_sparse() {
    if (index_.size() - live_ <= std::max(live_, kReclaimFloor)) return;
    Index fresh;
    PositionList<Index> recency;
    for (FlatPosition pos = recency_.back(); pos != kNilPosition;
         pos = index_.value_at(pos).prev) {
      Entry& entry = fresh.find_or_insert(index_.key_at(pos));
      entry = index_.value_at(pos);
      recency.push_front(fresh, fresh.position_of(entry));
    }
    index_ = std::move(fresh);
    recency_ = recency;
  }

  Duration ttl_;
  Index index_;
  // Front: the newest touch; back: the next key to expire.
  PositionList<Index> recency_;
  std::size_t live_ = 0;
};

}  // namespace upbound
