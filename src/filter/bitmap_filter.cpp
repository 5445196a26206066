#include "filter/bitmap_filter.h"

#include <array>
#include <stdexcept>

namespace upbound {

void BitmapFilterConfig::validate() const {
  if (log2_bits < 3 || log2_bits > 30) {
    throw std::invalid_argument("BitmapFilterConfig: log2_bits out of range");
  }
  if (vector_count < 2) {
    // With k = 1 every rotation wipes all state and nothing survives.
    throw std::invalid_argument("BitmapFilterConfig: need >= 2 bit vectors");
  }
  if (hash_count == 0 || hash_count > 64) {
    throw std::invalid_argument("BitmapFilterConfig: hash_count out of range");
  }
  if (rotate_interval <= Duration{}) {
    throw std::invalid_argument(
        "BitmapFilterConfig: rotate_interval must be positive");
  }
}

BitmapFilter::BitmapFilter(const BitmapFilterConfig& config)
    : config_(config),
      hashes_((config.validate(), config.bits()), config.hash_count,
              config.hash_seed),
      schedule_(SimTime::origin() + config.rotate_interval,
                config.rotate_interval),
      scratch_(config.hash_count) {
  vectors_.reserve(config_.vector_count);
  for (unsigned i = 0; i < config_.vector_count; ++i) {
    vectors_.emplace_back(config_.bits());
  }
}

void BitmapFilter::rotate() {
  // Algorithm 1: last = idx; idx = (idx + 1) mod k; clear bit-vector[last].
  //
  // Note the ordering subtlety: after the paper's three steps, the vector
  // just cleared is the OLDEST data holder ("last" position behind the new
  // idx), and the new current vector still carries everything marked during
  // the previous k-1 intervals -- marks go to all vectors, so lookups in
  // the new current vector see any connection active in the last k-1
  // rotations.
  const std::size_t last = idx_;
  idx_ = (idx_ + 1) % vectors_.size();
  vectors_[last].clear();
  ++rotations_;
}

void BitmapFilter::advance_time(SimTime now) {
  const std::uint64_t due = schedule_.advance(now);
  if (due == 0) return;
  if (due < vectors_.size()) {
    for (std::uint64_t i = 0; i < due; ++i) rotate();
  } else {
    // k or more boundaries elapsed at once (clock-step fault, sparse trace
    // gap): every vector was cleared at least once along the way, so the
    // catch-up collapses to a full wipe plus index/counter arithmetic --
    // O(k) instead of one rotate() per missed interval.
    for (auto& vector : vectors_) vector.clear();
    idx_ = (idx_ + due) % vectors_.size();
    rotations_ += due;
  }
}

bool BitmapFilter::set_rotate_interval(Duration dt) {
  schedule_.set_interval(dt);
  config_.rotate_interval = dt;
  return true;
}

void BitmapFilter::record_outbound(const PacketRecord& pkt) {
  // Algorithm 2, outbound arm: mark the j-th bit in ALL bit vectors.
  hashes_.outbound_indexes(pkt.tuple, config_.key_mode, scratch_);
  for (auto& vector : vectors_) {
    for (const std::size_t j : scratch_) vector.set(j);
  }
}

bool BitmapFilter::admits_inbound(const PacketRecord& pkt) {
  // Algorithm 2, inbound arm: check the j-th bit in the CURRENT vector.
  hashes_.inbound_indexes(pkt.tuple, config_.key_mode, scratch_);
  const BitVector& current = vectors_[idx_];
  for (const std::size_t j : scratch_) {
    if (!current.test(j)) return false;
  }
  return true;
}

void BitmapFilter::prefetch(const PacketRecord& pkt, Direction dir) const {
  std::array<std::size_t, 64> idx;  // validate() caps m at 64
  const std::span<std::size_t> probes{idx.data(), config_.hash_count};
  if (dir == Direction::kOutbound) {
    hashes_.outbound_indexes(pkt.tuple, config_.key_mode, probes);
    for (const auto& vector : vectors_) {
      for (const std::size_t j : probes) vector.prefetch_for_set(j);
    }
  } else if (dir == Direction::kInbound) {
    hashes_.inbound_indexes(pkt.tuple, config_.key_mode, probes);
    for (const std::size_t j : probes) vectors_[idx_].prefetch_for_test(j);
  }
}

void BitmapFilter::record_outbound_batch(PacketBatch batch) {
  std::size_t i = 0;
  while (i < batch.size()) {
    advance_time(batch[i].timestamp);
    // Extend the chunk while no rotation interleaves: inside it, marks
    // commute (idempotent bit-ORs with no clears between), so hashing and
    // touching in two passes is indistinguishable from the scalar order.
    std::size_t j = i + 1;
    while (j < batch.size() && j - i < kBatchChunk &&
           batch[j].timestamp < schedule_.next_boundary()) {
      ++j;
    }
    mark_chunk(batch.subspan(i, j - i));
    i = j;
  }
}

void BitmapFilter::mark_chunk(PacketBatch chunk) {
  const std::size_t m = config_.hash_count;
  batch_scratch_.resize(chunk.size() * m);
  hash_scratch_.resize(chunk.size());
  key_scratch_.resize(chunk.size() * BloomHashFamily::kKeyStride);
  // Digest the whole chunk lane-parallel first, then expand probes.
  hashes_.outbound_hash_batch(chunk, config_.key_mode, key_scratch_,
                              hash_scratch_);
  // Stagger prefetches one vector ahead of the stores instead of issuing
  // chunk*m*k up front: hardware tracks a limited number of outstanding
  // prefetches, and over-issuing drops the late ones -- exactly the lines
  // the last vectors need.
  for (std::size_t p = 0; p < chunk.size(); ++p) {
    const std::span<std::size_t> slots{batch_scratch_.data() + p * m, m};
    hashes_.indexes_from_hash(hash_scratch_[p], slots);
    for (const std::size_t bit : slots) vectors_[0].prefetch_for_set(bit);
  }
  for (std::size_t v = 0; v < vectors_.size(); ++v) {
    BitVector& vector = vectors_[v];
    BitVector* next = v + 1 < vectors_.size() ? &vectors_[v + 1] : nullptr;
    for (const std::size_t bit : batch_scratch_) {
      if (next != nullptr) next->prefetch_for_set(bit);
      vector.set(bit);
    }
  }
}

void BitmapFilter::admits_inbound_batch(PacketBatch batch,
                                        std::span<bool> admits) {
  std::size_t i = 0;
  while (i < batch.size()) {
    advance_time(batch[i].timestamp);
    std::size_t j = i + 1;
    while (j < batch.size() && j - i < kBatchChunk &&
           batch[j].timestamp < schedule_.next_boundary()) {
      ++j;
    }
    test_chunk(batch.subspan(i, j - i), admits.subspan(i));
    i = j;
  }
}

void BitmapFilter::test_chunk(PacketBatch chunk, std::span<bool> admits) {
  const std::size_t m = config_.hash_count;
  batch_scratch_.resize(chunk.size() * m);
  hash_scratch_.resize(chunk.size());
  key_scratch_.resize(chunk.size() * BloomHashFamily::kKeyStride);
  hashes_.inbound_hash_batch(chunk, config_.key_mode, key_scratch_,
                             hash_scratch_);
  // Lookups touch the current vector only; no rotation happens inside the
  // chunk, so idx_ is stable and the lookups are pure.
  const BitVector& current = vectors_[idx_];
  for (std::size_t p = 0; p < chunk.size(); ++p) {
    const std::span<std::size_t> slots{batch_scratch_.data() + p * m, m};
    hashes_.indexes_from_hash(hash_scratch_[p], slots);
    for (const std::size_t bit : slots) current.prefetch_for_test(bit);
  }
  for (std::size_t p = 0; p < chunk.size(); ++p) {
    // Branchless all-bits-set: every word is prefetched, so testing all m
    // is cheaper than an early-exit branch that mispredicts half the time.
    bool admit = true;
    for (std::size_t h = 0; h < m; ++h) {
      admit &= current.test(batch_scratch_[p * m + h]);
    }
    admits[p] = admit;
  }
}

void BitmapFilter::restore_rotation_state(std::size_t idx,
                                          SimTime next_rotation,
                                          std::uint64_t rotations) {
  if (idx >= vectors_.size()) {
    throw std::invalid_argument("restore_rotation_state: bad index");
  }
  idx_ = idx;
  // The restored filter may live on a different clock than the one that
  // produced the snapshot; restore() drops the high-water mark with it.
  schedule_.restore(next_rotation);
  rotations_ = rotations;
}

std::size_t BitmapFilter::storage_bytes() const {
  std::size_t total = 0;
  for (const auto& vector : vectors_) total += vector.storage_bytes();
  return total;
}

std::vector<double> BitmapFilter::occupancy() const {
  std::vector<double> out;
  out.reserve(vectors_.size());
  for (const auto& vector : vectors_) out.push_back(vector.utilization());
  return out;
}

}  // namespace upbound
