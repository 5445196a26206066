#include "filter/blocked_bitmap.h"

#include <algorithm>

namespace upbound {

BlockedBitmapFilter::BlockedBitmapFilter(const BitmapFilterConfig& config)
    : config_(config),
      core_(config),
      bits_(core_.instance_blocks()),  // value-initialized: all zero
      rotation_(config.rotate_interval) {}

void BlockedBitmapFilter::rotate() {
  core_.rotate(bits_.data(), rotation_);
  ++rotations_;
}

void BlockedBitmapFilter::advance_time(SimTime now) {
  rotations_ += core_.advance(bits_.data(), rotation_, now);
}

bool BlockedBitmapFilter::set_rotate_interval(Duration dt) {
  rotation_.schedule.set_interval(dt);
  config_.rotate_interval = dt;
  return true;
}

void BlockedBitmapFilter::record_outbound(const PacketRecord& pkt) {
  core_.mark(bits_.data(), core_.outbound_hash(pkt.tuple));
}

bool BlockedBitmapFilter::admits_inbound(const PacketRecord& pkt) {
  return core_.test(bits_.data(), rotation_.column,
                    core_.inbound_hash(pkt.tuple));
}

void BlockedBitmapFilter::prefetch(const PacketRecord& pkt,
                                   Direction dir) const {
  if (dir == Direction::kOutbound) {
    core_.prefetch_mark(bits_.data(), core_.outbound_hash(pkt.tuple));
  } else if (dir == Direction::kInbound) {
    core_.prefetch_test(bits_.data(), rotation_.column,
                        core_.inbound_hash(pkt.tuple));
  }
}

void BlockedBitmapFilter::record_outbound_batch(PacketBatch batch) {
  std::size_t i = 0;
  while (i < batch.size()) {
    advance_time(batch[i].timestamp);
    // Marks commute between rotations (idempotent bit-ORs), so hashing and
    // touching in separate passes matches the scalar order observably.
    std::size_t j = i + 1;
    while (j < batch.size() && j - i < kBatchChunk &&
           batch[j].timestamp < rotation_.schedule.next_boundary()) {
      ++j;
    }
    mark_chunk(batch.subspan(i, j - i));
    i = j;
  }
}

void BlockedBitmapFilter::mark_chunk(PacketBatch chunk) {
  hash_scratch_.resize(chunk.size());
  key_scratch_.resize(chunk.size() * BloomHashFamily::kKeyStride);
  core_.hashes().outbound_hash_batch(chunk, config_.key_mode, key_scratch_,
                                     hash_scratch_);
  // Fixed-distance software pipeline: prefetch the whole adjacent-line
  // streak of key p+D while marking key p, so a bounded window of misses
  // is in flight instead of one up-front burst that outruns the prefetch
  // queue (and, for large chunks, the L1).
  BitBlock* bits = bits_.data();
  const std::size_t n = chunk.size();
  const std::size_t lead = std::min<std::size_t>(kPrefetchDistance, n);
  for (std::size_t p = 0; p < lead; ++p) {
    core_.prefetch_mark(bits, hash_scratch_[p]);
  }
  // Dense/sparse dispatch hoisted out of the loop so the per-key body
  // stays small enough to inline.
  const bool dense = core_.dense();
  for (std::size_t p = 0; p < n; ++p) {
    if (p + kPrefetchDistance < n) {
      core_.prefetch_mark(bits, hash_scratch_[p + kPrefetchDistance]);
    }
    if (dense) {
      core_.mark_dense(bits, hash_scratch_[p]);
    } else {
      core_.mark_sparse(bits, hash_scratch_[p]);
    }
  }
}

void BlockedBitmapFilter::admits_inbound_batch(PacketBatch batch,
                                               std::span<bool> admits) {
  std::size_t i = 0;
  while (i < batch.size()) {
    advance_time(batch[i].timestamp);
    std::size_t j = i + 1;
    while (j < batch.size() && j - i < kBatchChunk &&
           batch[j].timestamp < rotation_.schedule.next_boundary()) {
      ++j;
    }
    test_chunk(batch.subspan(i, j - i), admits.subspan(i));
    i = j;
  }
}

void BlockedBitmapFilter::test_chunk(PacketBatch chunk,
                                     std::span<bool> admits) {
  hash_scratch_.resize(chunk.size());
  key_scratch_.resize(chunk.size() * BloomHashFamily::kKeyStride);
  core_.hashes().inbound_hash_batch(chunk, config_.key_mode, key_scratch_,
                                    hash_scratch_);
  // No rotation inside the chunk, so the column is stable and lookups are
  // pure. Same fixed-distance pipeline as mark_chunk, one line per key.
  const BitBlock* bits = bits_.data();
  const std::size_t column = rotation_.column;
  const std::size_t n = chunk.size();
  const std::size_t lead = std::min<std::size_t>(kPrefetchDistance, n);
  for (std::size_t p = 0; p < lead; ++p) {
    core_.prefetch_test(bits, column, hash_scratch_[p]);
  }
  const bool dense = core_.dense();
  for (std::size_t p = 0; p < n; ++p) {
    if (p + kPrefetchDistance < n) {
      core_.prefetch_test(bits, column, hash_scratch_[p + kPrefetchDistance]);
    }
    admits[p] = dense ? core_.test_dense(bits, column, hash_scratch_[p])
                      : core_.test_sparse(bits, column, hash_scratch_[p]);
  }
}

std::size_t BlockedBitmapFilter::storage_bytes() const {
  return core_.instance_bytes();
}

}  // namespace upbound
