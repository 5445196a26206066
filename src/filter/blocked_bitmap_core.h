// The blocked bitmap's arithmetic, written once for every holder of
// blocked columns: BlockedBitmapFilter runs it on its own block array,
// BlockedBitmapPool (filter/filter_pool.h) on each tenant slot's blocks
// inside a shared chunk. The core holds the geometry and hash family an
// instance shares with every other instance of its config; the caller
// passes the instance's blocks and rotation state.
//
// Layout (Putze et al.'s blocked Bloom layout): each of the k columns is
// N/512 blocks of one 64-byte cache line, and all m probes of a key land
// inside the single block its low hash half selects, stepping by an odd
// stride derived from the high half (odd => the m offsets are distinct
// mod 512). A mark or lookup costs one line per column instead of m
// scattered ones; the price is a slightly higher false-positive rate at
// equal memory (the blocked-layout FP bound test pins it). The columns
// are stored block-major interleaved -- block b of column c is
// bits[b * k + c] -- so a key marked into every column touches k ADJACENT
// lines: one prefetch stream and one TLB page. Clearing a column walks a
// strided slice; that cost lands on rotation (rare), not on the
// per-packet path.
#pragma once

#include <cstddef>
#include <cstdint>

#include "filter/bitmap_filter.h"  // BitmapFilterConfig
#include "filter/hash_family.h"
#include "filter/rotation_schedule.h"
#include "util/prefetch.h"

namespace upbound {

/// One 512-bit block: a cache line.
struct alignas(64) BitBlock {
  std::uint64_t w[8];
};

/// Rotation state of one blocked bitmap (Algorithm 1): when the next
/// column clear is due, and the column inbound lookups consult.
struct BlockedRotation {
  /// A fresh bitmap's: first boundary at origin + dt, column 0. Every
  /// instance anchors on the absolute origin, so a late catch-up lands
  /// the same phase as per-packet advances would.
  explicit BlockedRotation(Duration dt)
      : schedule(SimTime::origin() + dt, dt) {}

  RotationSchedule schedule;
  std::size_t column = 0;
};

class BlockedBitmapCore {
 public:
  /// Bits per block: one 64-byte cache line.
  static constexpr std::size_t kBlockBits = 512;

  /// Validates `config`; requires log2_bits >= 9 so each column holds at
  /// least one whole block.
  explicit BlockedBitmapCore(const BitmapFilterConfig& config);

  /// Blocks per instance: every column.
  std::size_t instance_blocks() const { return block_count() * columns_; }
  std::size_t instance_bytes() const {
    return instance_blocks() * sizeof(BitBlock);
  }
  const BloomHashFamily& hashes() const { return hashes_; }

  Hash128 outbound_hash(const FiveTuple& tuple) const {
    return hashes_.outbound_hash(tuple, key_mode_);
  }
  Hash128 inbound_hash(const FiveTuple& tuple) const {
    return hashes_.inbound_hash(tuple, key_mode_);
  }

  // Per-key operations on one instance's blocks (instance_blocks() of
  // them, 64-byte aligned). At kDenseProbeThreshold probes and above the
  // key's 512-bit mask is built once and whole lines are ORed/compared
  // (cost independent of m); below it, targeted per-bit ops are cheaper.
  // Batch loops hoist the dense() dispatch and call one arm directly.
  bool dense() const { return hash_count_ >= kDenseProbeThreshold; }

  /// Marks all m probes of `h` in every column (the outbound arm).
  void mark(BitBlock* bits, const Hash128& h) const {
    if (dense()) {
      mark_dense(bits, h);
    } else {
      mark_sparse(bits, h);
    }
  }
  void mark_dense(BitBlock* bits, const Hash128& h) const {
    // Eight unconditional word ORs per column (the compiler vectorizes
    // them); the interleaving keeps all columns in one streak.
    std::uint64_t line[8];
    line_mask_of(h, line);
    BitBlock* b = bits + block_of(h) * columns_;
    for (std::size_t c = 0; c < columns_; ++c) {
      for (int w = 0; w < 8; ++w) b[c].w[w] |= line[w];
    }
  }
  void mark_sparse(BitBlock* bits, const Hash128& h) const {
    // m targeted sets per column beat 8 unconditional word ORs while the
    // working set is cache-resident.
    BitBlock* b = bits + block_of(h) * columns_;
    const std::uint64_t step = (h.hi >> 32) | 1;
    std::uint64_t off = h.hi;
    for (unsigned i = 0; i < hash_count_; ++i) {
      const std::uint64_t word = (off & kOffsetMask) >> 6;
      const std::uint64_t bit = std::uint64_t{1} << (off & 63);
      for (std::size_t c = 0; c < columns_; ++c) b[c].w[word] |= bit;
      off += step;
    }
  }

  /// True when all m probes of `h` are set in `column` (the inbound arm).
  bool test(const BitBlock* bits, std::size_t column,
            const Hash128& h) const {
    return dense() ? test_dense(bits, column, h)
                   : test_sparse(bits, column, h);
  }
  bool test_dense(const BitBlock* bits, std::size_t column,
                  const Hash128& h) const {
    // Branch-free: empty mask words compare trivially equal.
    std::uint64_t line[8];
    line_mask_of(h, line);
    const BitBlock& b = bits[block_of(h) * columns_ + column];
    bool ok = true;
    for (int w = 0; w < 8; ++w) ok &= (b.w[w] & line[w]) == line[w];
    return ok;
  }
  bool test_sparse(const BitBlock* bits, std::size_t column,
                   const Hash128& h) const {
    // Branchless all-bits-set: the block is one cache line, so testing
    // all m probes is cheaper than an early-exit branch.
    const BitBlock& b = bits[block_of(h) * columns_ + column];
    const std::uint64_t step = (h.hi >> 32) | 1;
    std::uint64_t off = h.hi;
    bool admit = true;
    for (unsigned i = 0; i < hash_count_; ++i) {
      admit &= (b.w[(off & kOffsetMask) >> 6] >> (off & 63)) & 1;
      off += step;
    }
    return admit;
  }

  /// Cache hints: the all-columns streak a mark of `h` writes, and the
  /// one line a lookup of `h` in `column` reads. always_inline for the
  /// reason util/prefetch.h gives.
  [[gnu::always_inline]] void prefetch_mark(const BitBlock* bits,
                                            const Hash128& h) const {
    const BitBlock* b = bits + block_of(h) * columns_;
    for (std::size_t c = 0; c < columns_; ++c) prefetch_write(&b[c]);
  }
  [[gnu::always_inline]] void prefetch_test(const BitBlock* bits,
                                            std::size_t column,
                                            const Hash128& h) const {
    prefetch_read(&bits[block_of(h) * columns_ + column]);
  }

  /// Catches `rotation` up to `now`: Algorithm 1's b.rotate once per
  /// elapsed boundary, or -- at k or more boundaries at once, when every
  /// column was cleared at least once along the way -- one full wipe in
  /// O(k). Returns the number of boundaries crossed.
  std::uint64_t advance(BitBlock* bits, BlockedRotation& rotation,
                        SimTime now) const;
  /// Algorithm 1 (b.rotate): the next column becomes current and the
  /// previous one is cleared.
  void rotate(BitBlock* bits, BlockedRotation& rotation) const;
  /// Zeroes every column; one contiguous wipe.
  void clear_all(BitBlock* bits) const;

  /// Fraction of set bits in one column: U = b/N, b its popcount.
  double utilization(const BitBlock* bits, std::size_t column) const;

 private:
  static constexpr unsigned kDenseProbeThreshold = 6;
  static constexpr std::uint64_t kOffsetMask = kBlockBits - 1;

  /// Blocks per column.
  std::size_t block_count() const { return block_mask_ + 1; }
  std::size_t block_of(const Hash128& h) const {
    return static_cast<std::size_t>(h.lo & block_mask_);
  }
  /// Builds the 512-bit probe mask of `h` (all m probes as a line image).
  void line_mask_of(const Hash128& h, std::uint64_t line[8]) const {
    // m bits starting at h.hi, stepping by an odd stride (odd => the m
    // offsets are pairwise distinct mod 512; the config caps m at 64).
    // Pure register ALU.
    for (int w = 0; w < 8; ++w) line[w] = 0;
    const std::uint64_t step = (h.hi >> 32) | 1;
    std::uint64_t off = h.hi;
    for (unsigned i = 0; i < hash_count_; ++i) {
      line[(off & kOffsetMask) >> 6] |= std::uint64_t{1} << (off & 63);
      off += step;
    }
  }
  /// Zeroes one column: a strided slice of the interleaving.
  void clear_column(BitBlock* bits, std::size_t column) const;
  /// Set bits in one column.
  std::size_t popcount(const BitBlock* bits, std::size_t column) const;

  BloomHashFamily hashes_;
  KeyMode key_mode_;
  unsigned hash_count_;
  std::size_t columns_;
  std::uint64_t block_mask_;  // blocks per column - 1 (a power of two)
  std::size_t bits_per_column_;
};

}  // namespace upbound
