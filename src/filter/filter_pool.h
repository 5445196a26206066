// Many instances of one filter spec, each addressed by a 32-bit slot: the
// per-tenant fine tier of the hierarchical filter. Every slot behaves
// exactly like a StateFilter the spec's factory builds; the pool decides
// where the state lives.
//
// make_filter_pool (filter_registry.h) picks the implementation:
//   BlockedBitmapPool  the registry's own bitmap-blocked descriptor. Each
//                      slot's k x N/512 blocks sit in 64-byte-aligned
//                      chunks and its rotation state in a slot-indexed
//                      array, so a packet reaches its tenant's bits as
//                      slot -> block address (a small chunk table plus
//                      arithmetic), with no filter object in between.
//   BoxedFilterPool    any other descriptor, including a caller's copy
//                      with its own factory: one StateFilter per slot,
//                      built through that factory.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "filter/blocked_bitmap_core.h"
#include "filter/filter_registry.h"
#include "filter/state_filter.h"

namespace upbound {

class FilterPool {
 public:
  using Slot = std::uint32_t;
  /// No slot: a tenant without a live instance.
  static constexpr Slot kNilSlot = ~Slot{0};

  virtual ~FilterPool() = default;

  /// A fresh instance -- what the spec's factory builds -- advanced to
  /// `now`.
  virtual Slot acquire(SimTime now) = 0;
  /// Drops the instance in `slot`; a later acquire may reuse the slot.
  virtual void release(Slot slot) = 0;

  // The StateFilter contract, per live slot.
  virtual void advance_time(Slot slot, SimTime now) = 0;
  virtual void record_outbound(Slot slot, const PacketRecord& pkt) = 0;
  virtual bool admits_inbound(Slot slot, const PacketRecord& pkt) = 0;
  /// Read-only cache hint with StateFilter::prefetch's contract.
  virtual void prefetch(Slot slot, const PacketRecord& pkt,
                        Direction dir) const = 0;
  virtual std::optional<double> occupancy_fraction(Slot slot) const = 0;
  /// What the slot's instance would report as a StateFilter.
  virtual std::size_t storage_bytes(Slot slot) const = 0;
};

/// One heap StateFilter per slot, built by spec.backend->make.
class BoxedFilterPool final : public FilterPool {
 public:
  explicit BoxedFilterPool(FilterSpec spec);

  Slot acquire(SimTime now) override;
  void release(Slot slot) override;
  void advance_time(Slot slot, SimTime now) override {
    filters_[slot]->advance_time(now);
  }
  void record_outbound(Slot slot, const PacketRecord& pkt) override {
    filters_[slot]->record_outbound(pkt);
  }
  bool admits_inbound(Slot slot, const PacketRecord& pkt) override {
    return filters_[slot]->admits_inbound(pkt);
  }
  void prefetch(Slot slot, const PacketRecord& pkt,
                Direction dir) const override {
    filters_[slot]->prefetch(pkt, dir);
  }
  std::optional<double> occupancy_fraction(Slot slot) const override {
    return filters_[slot]->occupancy_fraction();
  }
  std::size_t storage_bytes(Slot slot) const override {
    return filters_[slot]->storage_bytes();
  }

 private:
  FilterSpec spec_;
  std::vector<std::unique_ptr<StateFilter>> filters_;  // null when free
  std::vector<Slot> free_;
};

/// bitmap-blocked instances carved from fixed-size chunks. A slot's
/// blocks are block-major interleaved exactly as BlockedBitmapFilter's
/// own, and the same BlockedBitmapCore code marks, tests and rotates
/// them, so a slot is bit-for-bit that filter. Chunks are never moved or
/// reallocated; released slots go on a free list and are zeroed when
/// acquired again, so memory follows the peak number of live slots.
class BlockedBitmapPool final : public FilterPool {
 public:
  /// Chunk budget: as many slots as fit, rounded down to a power of two
  /// (slot -> chunk is then a shift), and at least one.
  static constexpr std::size_t kChunkBytes = std::size_t{128} << 10;

  explicit BlockedBitmapPool(const BitmapFilterConfig& config);

  Slot acquire(SimTime now) override;
  void release(Slot slot) override { free_.push_back(slot); }
  void advance_time(Slot slot, SimTime now) override {
    core_.advance(blocks_of(slot), rotations_[slot], now);
  }
  void record_outbound(Slot slot, const PacketRecord& pkt) override {
    core_.mark(blocks_of(slot), core_.outbound_hash(pkt.tuple));
  }
  bool admits_inbound(Slot slot, const PacketRecord& pkt) override {
    return core_.test(blocks_of(slot), rotations_[slot].column,
                      core_.inbound_hash(pkt.tuple));
  }
  void prefetch(Slot slot, const PacketRecord& pkt,
                Direction dir) const override;
  std::optional<double> occupancy_fraction(Slot slot) const override {
    return core_.utilization(blocks_of(slot), rotations_[slot].column);
  }
  std::size_t storage_bytes(Slot /*slot*/) const override {
    return core_.instance_bytes();
  }

  std::size_t slots_per_chunk() const { return std::size_t{chunk_mask_} + 1; }
  std::size_t chunk_count() const { return chunks_.size(); }

 private:
  BitBlock* blocks_of(Slot slot) const {
    return chunks_[slot >> chunk_shift_].get() +
           (slot & chunk_mask_) * slot_blocks_;
  }

  BlockedBitmapCore core_;
  Duration interval_;
  std::size_t slot_blocks_;  // core_.instance_blocks()
  unsigned chunk_shift_ = 0;
  Slot chunk_mask_ = 0;
  std::vector<std::unique_ptr<BitBlock[]>> chunks_;
  std::vector<BlockedRotation> rotations_;  // by slot
  std::vector<Slot> free_;
};

}  // namespace upbound
