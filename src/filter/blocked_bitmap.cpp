#include "filter/blocked_bitmap.h"

#include <stdexcept>

namespace upbound {

namespace {
std::size_t checked_bits(const BitmapFilterConfig& config) {
  config.validate();
  if (config.log2_bits < 9) {
    throw std::invalid_argument(
        "BlockedBitmapFilter: log2_bits must be >= 9 (one 512-bit block "
        "per vector)");
  }
  return config.bits();
}
}  // namespace

BlockedBitmapFilter::BlockedBitmapFilter(const BitmapFilterConfig& config)
    : config_(config),
      hashes_(checked_bits(config), config.hash_count, config.hash_seed),
      bits_(config.bits(), config.vector_count),
      schedule_(SimTime::origin() + config.rotate_interval,
                config.rotate_interval) {
  block_mask_ = bits_.block_count() - 1;
}

void BlockedBitmapFilter::rotate() {
  const std::size_t last = idx_;
  idx_ = (idx_ + 1) % bits_.columns();
  bits_.clear(last);
  ++rotations_;
}

void BlockedBitmapFilter::advance_time(SimTime now) {
  const std::uint64_t due = schedule_.advance(now);
  if (due == 0) return;
  if (due < bits_.columns()) {
    for (std::uint64_t i = 0; i < due; ++i) rotate();
  } else {
    // k or more boundaries at once: every vector was cleared at least once
    // along the way, so catch up with a full wipe in O(k).
    bits_.clear_all();
    idx_ = (idx_ + due) % bits_.columns();
    rotations_ += due;
  }
}

bool BlockedBitmapFilter::set_rotate_interval(Duration dt) {
  schedule_.set_interval(dt);
  config_.rotate_interval = dt;
  return true;
}

// Builds the 512-bit probe mask of `h` in `line`: m bits starting at
// h.hi, stepping by an odd stride (odd => the m offsets are pairwise
// distinct mod 512; the config caps m at 64). Pure register ALU -- the
// memory side is a whole-line OR or compare, so its cost does not scale
// with m.
void BlockedBitmapFilter::line_mask_of(const Hash128& h,
                                       std::uint64_t line[8]) const {
  for (int w = 0; w < 8; ++w) line[w] = 0;
  const std::uint64_t step = (h.hi >> 32) | 1;
  std::uint64_t off = h.hi;
  for (unsigned i = 0; i < config_.hash_count; ++i) {
    line[(off & kOffsetMask) >> 6] |= std::uint64_t{1} << (off & 63);
    off += step;
  }
}

void BlockedBitmapFilter::mark_dense(const Hash128& h) {
  // Dense masks: whole-line OR per column, cost independent of m.
  std::uint64_t line[8];
  line_mask_of(h, line);
  bits_.or_line(block_of(h), line);
}

void BlockedBitmapFilter::mark_sparse(const Hash128& h) {
  // Sparse masks: m targeted sets per column beat 8 unconditional word
  // ORs while the working set is cache-resident.
  const std::size_t block = block_of(h);
  const std::uint64_t step = (h.hi >> 32) | 1;
  const std::size_t k = bits_.columns();
  std::uint64_t off = h.hi;
  for (unsigned i = 0; i < config_.hash_count; ++i) {
    const auto offset = static_cast<std::size_t>(off & kOffsetMask);
    for (std::size_t c = 0; c < k; ++c) {
      bits_.set_in(block, c, offset);
    }
    off += step;
  }
}

void BlockedBitmapFilter::mark_with(const Hash128& h) {
  if (config_.hash_count >= kDenseProbeThreshold) {
    mark_dense(h);
  } else {
    mark_sparse(h);
  }
}

bool BlockedBitmapFilter::test_dense(const Hash128& h) const {
  std::uint64_t line[8];
  line_mask_of(h, line);
  return bits_.contains_line(block_of(h), idx_, line);
}

bool BlockedBitmapFilter::test_sparse(const Hash128& h) const {
  const std::size_t block = block_of(h);
  const std::uint64_t step = (h.hi >> 32) | 1;
  std::uint64_t off = h.hi;
  // Branchless all-bits-set: the block is one cache line, so testing all
  // m probes is cheaper than an early-exit branch.
  bool admit = true;
  for (unsigned i = 0; i < config_.hash_count; ++i) {
    admit &= bits_.test_in(block, idx_,
                           static_cast<std::size_t>(off & kOffsetMask));
    off += step;
  }
  return admit;
}

bool BlockedBitmapFilter::test_with(const Hash128& h) const {
  return config_.hash_count >= kDenseProbeThreshold ? test_dense(h)
                                                    : test_sparse(h);
}

void BlockedBitmapFilter::record_outbound(const PacketRecord& pkt) {
  mark_with(hashes_.outbound_hash(pkt.tuple, config_.key_mode));
}

bool BlockedBitmapFilter::admits_inbound(const PacketRecord& pkt) {
  return test_with(hashes_.inbound_hash(pkt.tuple, config_.key_mode));
}

void BlockedBitmapFilter::prefetch(const PacketRecord& pkt,
                                   Direction dir) const {
  if (dir == Direction::kOutbound) {
    bits_.prefetch_block_for_set_all(
        block_of(hashes_.outbound_hash(pkt.tuple, config_.key_mode)));
  } else if (dir == Direction::kInbound) {
    bits_.prefetch_block_for_test(
        block_of(hashes_.inbound_hash(pkt.tuple, config_.key_mode)), idx_);
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
           batch[j].timestamp < schedule_.next_boundary()) {
      ++j;
    }
    mark_chunk(batch.subspan(i, j - i));
    i = j;
  }
}

void BlockedBitmapFilter::mark_chunk(PacketBatch chunk) {
  hash_scratch_.resize(chunk.size());
  key_scratch_.resize(chunk.size() * BloomHashFamily::kKeyStride);
  hashes_.outbound_hash_batch(chunk, config_.key_mode, key_scratch_,
                              hash_scratch_);
  // Fixed-distance software pipeline: prefetch the whole adjacent-line
  // streak of key p+D while marking key p, so a bounded window of misses
  // is in flight instead of one up-front burst that outruns the prefetch
  // queue (and, for large chunks, the L1).
  const std::size_t n = chunk.size();
  const std::size_t lead = std::min<std::size_t>(kPrefetchDistance, n);
  for (std::size_t p = 0; p < lead; ++p) {
    bits_.prefetch_block_for_set_all(block_of(hash_scratch_[p]));
  }
  // Dense/sparse dispatch hoisted out of the loop so the per-key body
  // stays small enough to inline.
  const bool dense = config_.hash_count >= kDenseProbeThreshold;
  for (std::size_t p = 0; p < n; ++p) {
    if (p + kPrefetchDistance < n) {
      bits_.prefetch_block_for_set_all(
          block_of(hash_scratch_[p + kPrefetchDistance]));
    }
    if (dense) {
      mark_dense(hash_scratch_[p]);
    } else {
      mark_sparse(hash_scratch_[p]);
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
           batch[j].timestamp < schedule_.next_boundary()) {
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
  hashes_.inbound_hash_batch(chunk, config_.key_mode, key_scratch_,
                             hash_scratch_);
  // No rotation inside the chunk, so idx_ is stable and lookups are pure.
  // Same fixed-distance pipeline as mark_chunk, one line per key.
  const std::size_t n = chunk.size();
  const std::size_t lead = std::min<std::size_t>(kPrefetchDistance, n);
  for (std::size_t p = 0; p < lead; ++p) {
    bits_.prefetch_block_for_test(block_of(hash_scratch_[p]), idx_);
  }
  const bool dense = config_.hash_count >= kDenseProbeThreshold;
  for (std::size_t p = 0; p < n; ++p) {
    if (p + kPrefetchDistance < n) {
      bits_.prefetch_block_for_test(
          block_of(hash_scratch_[p + kPrefetchDistance]), idx_);
    }
    admits[p] = dense ? test_dense(hash_scratch_[p])
                      : test_sparse(hash_scratch_[p]);
  }
}

std::size_t BlockedBitmapFilter::storage_bytes() const {
  return bits_.storage_bytes();
}

}  // namespace upbound
