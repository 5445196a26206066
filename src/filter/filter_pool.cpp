#include "filter/filter_pool.h"

#include <stdexcept>
#include <utility>

namespace upbound {

namespace {

/// The next slot number, refusing the one that would collide with
/// kNilSlot.
FilterPool::Slot next_slot(std::size_t slots_so_far) {
  if (slots_so_far >= FilterPool::kNilSlot) {
    throw std::length_error("FilterPool: too many slots");
  }
  return static_cast<FilterPool::Slot>(slots_so_far);
}

}  // namespace

BoxedFilterPool::BoxedFilterPool(FilterSpec spec) : spec_(std::move(spec)) {}

FilterPool::Slot BoxedFilterPool::acquire(SimTime now) {
  std::unique_ptr<StateFilter> filter = spec_.backend->make(spec_);
  filter->advance_time(now);
  if (!free_.empty()) {
    const Slot slot = free_.back();
    free_.pop_back();
    filters_[slot] = std::move(filter);
    return slot;
  }
  const Slot slot = next_slot(filters_.size());
  filters_.push_back(std::move(filter));
  return slot;
}

void BoxedFilterPool::release(Slot slot) {
  filters_[slot].reset();
  free_.push_back(slot);
}

BlockedBitmapPool::BlockedBitmapPool(const BitmapFilterConfig& config)
    : core_(config),
      interval_(config.rotate_interval),
      slot_blocks_(core_.instance_blocks()) {
  while ((core_.instance_bytes() << (chunk_shift_ + 1)) <= kChunkBytes) {
    ++chunk_shift_;
  }
  chunk_mask_ = (Slot{1} << chunk_shift_) - 1;
}

FilterPool::Slot BlockedBitmapPool::acquire(SimTime now) {
  Slot slot;
  if (!free_.empty()) {
    slot = free_.back();
    free_.pop_back();
    rotations_[slot] = BlockedRotation{interval_};
  } else {
    slot = next_slot(rotations_.size());
    if ((slot & chunk_mask_) == 0) {
      chunks_.push_back(
          std::make_unique_for_overwrite<BitBlock[]>(slots_per_chunk() *
                                                     slot_blocks_));
    }
    rotations_.emplace_back(interval_);
  }
  BitBlock* bits = blocks_of(slot);
  core_.clear_all(bits);
  core_.advance(bits, rotations_[slot], now);
  return slot;
}

void BlockedBitmapPool::prefetch(Slot slot, const PacketRecord& pkt,
                                 Direction dir) const {
  if (dir == Direction::kOutbound) {
    core_.prefetch_mark(blocks_of(slot), core_.outbound_hash(pkt.tuple));
  } else if (dir == Direction::kInbound) {
    core_.prefetch_test(blocks_of(slot), rotations_[slot].column,
                        core_.inbound_hash(pkt.tuple));
  }
}

}  // namespace upbound
