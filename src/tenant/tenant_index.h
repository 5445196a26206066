// Flat per-tenant index: maps a TenantId to a slot in a dense,
// append-only value array. Every layer that keeps per-subscriber state
// (the router's tenant ledger, the hierarchical filter's fine tier) stores
// it here instead of in node-based containers, so reaching a tenant's
// state is one probe of a small slot array plus one dense-array access.
//
// Open addressing with linear probing over power-of-two slots. The home
// slot comes from a multiplicative (Fibonacci) hash of the id: TenantIds
// are addresses, and consecutive subscriber addresses land on well-spread
// slots instead of one cluster. The table is kept at most half full.
//
// Entries are never erased: values live at their insertion position
// until the index is destroyed, so positions are stable and iteration in
// position order is deterministic for a given insertion sequence. Value
// references and pointers are invalidated by any insertion (the dense
// array may reallocate); positions are not.
#pragma once

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <utility>
#include <vector>

#include "tenant/tenant_table.h"

namespace upbound {

template <typename Value>
class TenantIndex {
 public:
  /// Dense insertion position of an entry.
  using Position = std::uint32_t;

  std::size_t size() const { return keys_.size(); }
  /// Slot-array length (0 until the first insertion).
  std::size_t slot_count() const { return slots_.size(); }

  /// The value of `tenant`, or nullptr when absent.
  Value* find(TenantId tenant) {
    return const_cast<Value*>(std::as_const(*this).find(tenant));
  }
  const Value* find(TenantId tenant) const {
    const Position pos = position_of_key(tenant);
    return pos == kAbsent ? nullptr : &values_[pos];
  }

  /// The value of `tenant`, constructed from `args` when absent.
  template <typename... Args>
  Value& find_or_insert(TenantId tenant, Args&&... args) {
    if (2 * (keys_.size() + 1) > slots_.size()) grow();
    std::size_t s = home(tenant);
    while (slots_[s].pos_plus_one != 0) {
      if (slots_[s].key == tenant) return values_[slots_[s].pos_plus_one - 1];
      s = (s + 1) & mask_;
    }
    if (keys_.size() >= kAbsent) {
      throw std::length_error("TenantIndex: too many tenants");
    }
    // grow() reserved room for every key the table admits, so neither
    // push allocates: only Value's constructor can throw, and it does so
    // before anything has changed.
    values_.emplace_back(std::forward<Args>(args)...);
    keys_.push_back(tenant);
    slots_[s] = Slot{tenant, static_cast<Position>(keys_.size())};
    return values_.back();
  }

  // Dense access in insertion order.
  TenantId key_at(Position pos) const { return keys_[pos]; }
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
    for (const TenantId key : keys_) {
      std::size_t probes = 1;
      for (std::size_t s = home(key); slots_[s].key != key ||
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
    TenantId key = 0;
    Position pos_plus_one = 0;  // 0 = empty
  };

  static constexpr Position kAbsent = ~Position{0};
  static constexpr std::size_t kMinSlots = 16;

  std::size_t home(TenantId tenant) const {
    return static_cast<std::size_t>(
        (static_cast<std::uint64_t>(tenant) * 0x9e3779b97f4a7c15ULL) >>
        shift_);
  }

  Position position_of_key(TenantId tenant) const {
    if (slots_.empty()) return kAbsent;
    for (std::size_t s = home(tenant);; s = (s + 1) & mask_) {
      const Slot& slot = slots_[s];
      if (slot.pos_plus_one == 0) return kAbsent;
      if (slot.key == tenant) return slot.pos_plus_one - 1;
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
  std::vector<TenantId> keys_;
  std::vector<Value> values_;
};

}  // namespace upbound
