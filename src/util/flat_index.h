// Flat index: maps a key to a slot in a dense, append-only value array.
// Layers that keep per-key state on the packet path (the router's tenant
// ledger, the hierarchical filter's fine tier, the analyzer's connection
// table, and every ExpirySet) store it here instead of in node-based
// containers, so reaching a key's state is one probe of a small slot array
// plus one dense-array access.
//
// Open addressing with linear probing over power-of-two slots. The home
// slot is the top bits of `Hash{}(key)`, so the hash must spread its high
// bits well (a multiplicative mix does). The table is kept at most half
// full.
//
// Entries are never erased: values live at their insertion position
// until the index is destroyed, so positions are stable and iteration in
// position order is insertion order. Value references and pointers are
// invalidated by any insertion (the dense array may reallocate);
// positions are not. Nothing is allocated before the first insertion.
#pragma once

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <utility>
#include <vector>

namespace upbound {

/// Dense insertion position of a FlatIndex entry.
using FlatPosition = std::uint32_t;
/// No position: the end of a PositionList, or an unlinked entry's links.
inline constexpr FlatPosition kNilPosition = ~FlatPosition{0};

template <typename Key, typename Value, typename Hash>
class FlatIndex {
 public:
  using Position = FlatPosition;

  std::size_t size() const { return keys_.size(); }
  /// Slot-array length (0 until the first insertion).
  std::size_t slot_count() const { return slots_.size(); }
  /// Bytes allocated for the slot, key and value arrays.
  std::size_t storage_bytes() const {
    return slots_.capacity() * sizeof(Slot) + keys_.capacity() * sizeof(Key) +
           values_.capacity() * sizeof(Value);
  }

  /// The value of `key`, or nullptr when absent.
  Value* find(const Key& key) {
    return const_cast<Value*>(std::as_const(*this).find(key));
  }
  const Value* find(const Key& key) const {
    const Position pos = position_of_key(key);
    return pos == kAbsent ? nullptr : &values_[pos];
  }

  /// The value of `key`, constructed from `args` when absent. Only an
  /// insertion grows the table; a hit leaves it as it is.
  template <typename... Args>
  Value& find_or_insert(const Key& key, Args&&... args) {
    std::size_t s = 0;
    if (!slots_.empty()) {
      for (s = home(key); slots_[s].pos_plus_one != 0; s = (s + 1) & mask_) {
        if (slots_[s].key == key) return values_[slots_[s].pos_plus_one - 1];
      }
    }
    if (2 * (keys_.size() + 1) > slots_.size()) {
      grow();
      s = home(key);
      while (slots_[s].pos_plus_one != 0) s = (s + 1) & mask_;
    }
    if (keys_.size() >= kAbsent) {
      throw std::length_error("FlatIndex: too many keys");
    }
    // grow() reserved room for every key the table admits, so neither
    // push allocates: only Value's constructor can throw, and it does so
    // before anything has changed.
    values_.emplace_back(std::forward<Args>(args)...);
    keys_.push_back(key);
    slots_[s] = Slot{key, static_cast<Position>(keys_.size())};
    return values_.back();
  }

  // Dense access in insertion order.
  const Key& key_at(Position pos) const { return keys_[pos]; }
  Value& value_at(Position pos) { return values_[pos]; }
  const Value& value_at(Position pos) const { return values_[pos]; }
  /// Position of a value obtained from this index.
  Position position_of(const Value& value) const {
    return static_cast<Position>(&value - values_.data());
  }

  /// Longest probe sequence any present key needs (1 = found in its home
  /// slot). O(size); for tests and capacity checks.
  std::size_t max_probe_length() const {
    std::size_t longest = 0;
    for (const Key& key : keys_) {
      std::size_t probes = 1;
      for (std::size_t s = home(key); !(slots_[s].key == key) ||
                                      slots_[s].pos_plus_one == 0;
           s = (s + 1) & mask_) {
        ++probes;
      }
      if (probes > longest) longest = probes;
    }
    return longest;
  }

 private:
  struct Slot {
    Key key{};
    Position pos_plus_one = 0;  // 0 = empty
  };

  static constexpr Position kAbsent = kNilPosition;
  static constexpr std::size_t kMinSlots = 16;

  std::size_t home(const Key& key) const {
    return static_cast<std::size_t>(Hash{}(key) >> shift_);
  }

  Position position_of_key(const Key& key) const {
    if (slots_.empty()) return kAbsent;
    for (std::size_t s = home(key);; s = (s + 1) & mask_) {
      const Slot& slot = slots_[s];
      if (slot.pos_plus_one == 0) return kAbsent;
      if (slot.key == key) return slot.pos_plus_one - 1;
    }
  }

  /// Doubles the slot array and reinserts every key by position.
  void grow() {
    const std::size_t count =
        slots_.empty() ? kMinSlots : 2 * slots_.size();
    keys_.reserve(count / 2);
    values_.reserve(count / 2);
    slots_.assign(count, Slot{});
    mask_ = count - 1;
    unsigned log2 = 0;
    while ((std::size_t{1} << log2) < count) ++log2;
    shift_ = 64 - log2;
    for (Position pos = 0; pos < keys_.size(); ++pos) {
      std::size_t s = home(keys_[pos]);
      while (slots_[s].pos_plus_one != 0) s = (s + 1) & mask_;
      slots_[s] = Slot{keys_[pos], pos + 1};
    }
  }

  std::vector<Slot> slots_;
  std::size_t mask_ = 0;
  unsigned shift_ = 64;
  std::vector<Key> keys_;
  std::vector<Value> values_;
};

/// An intrusive doubly linked list threaded through a FlatIndex's values
/// by position: each value has `FlatPosition prev` (toward the front) and
/// `next` members, kNilPosition when unlinked. A recency list pushes at
/// the front and takes its oldest entry from the back. Unlinked entries
/// stay in the index.
template <typename Index>
class PositionList {
 public:
  FlatPosition front() const { return front_; }
  FlatPosition back() const { return back_; }

  void unlink(Index& index, FlatPosition pos) {
    auto& value = index.value_at(pos);
    if (value.prev != kNilPosition) {
      index.value_at(value.prev).next = value.next;
    } else {
      front_ = value.next;
    }
    if (value.next != kNilPosition) {
      index.value_at(value.next).prev = value.prev;
    } else {
      back_ = value.prev;
    }
    value.prev = kNilPosition;
    value.next = kNilPosition;
  }

  /// Links an unlinked entry at the front.
  void push_front(Index& index, FlatPosition pos) {
    auto& value = index.value_at(pos);
    value.prev = kNilPosition;
    value.next = front_;
    if (front_ != kNilPosition) {
      index.value_at(front_).prev = pos;
    } else {
      back_ = pos;
    }
    front_ = pos;
  }

  /// Moves a linked entry to the front.
  void move_to_front(Index& index, FlatPosition pos) {
    if (pos == front_) return;
    unlink(index, pos);
    push_front(index, pos);
  }

 private:
  FlatPosition front_ = kNilPosition;
  FlatPosition back_ = kNilPosition;
};

}  // namespace upbound
