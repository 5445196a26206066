// Cache-resident variant of the paper's {k x N} rotating bitmap.
//
// Same Algorithm 1/2 semantics as BitmapFilter -- outbound marks all k
// vectors, inbound looks up the current one, rotation clears the oldest --
// but the k vectors are the columns of one BlockedBitVector: a key's low
// hash half selects one 512-bit block and all m probes stay inside it,
// stepping by an odd stride derived from the high half (odd => the m
// offsets are distinct mod 512). Per packet that is one cache line per
// vector (k lines marked, 1 line looked up) instead of m*k / m scattered
// lines -- and the block-major column interleaving makes the k marked
// lines ADJACENT, so an outbound packet costs one 256-byte streak instead
// of k scattered misses. That is what pushes the datapath from
// memory-latency-bound toward the roofline. Bits land at different
// positions than BitmapFilter's, so the two are not snapshot-compatible;
// verdict distributions differ only through the block-local
// false-positive rate.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "filter/bitmap_filter.h"  // BitmapFilterConfig
#include "filter/blocked_bitvector.h"
#include "filter/hash_family.h"
#include "filter/rotation_schedule.h"
#include "filter/state_filter.h"

namespace upbound {

/// Shares BitmapFilterConfig (same N, k, m, dt knobs); requires
/// log2_bits >= 9 so each vector holds at least one whole block.
class BlockedBitmapFilter final : public StateFilter {
 public:
  explicit BlockedBitmapFilter(const BitmapFilterConfig& config);

  // StateFilter:
  void advance_time(SimTime now) override;
  void record_outbound(const PacketRecord& pkt) override;
  bool admits_inbound(const PacketRecord& pkt) override;
  // Same chunk-at-rotation-boundaries scheme as BitmapFilter: batch-digest
  // the chunk's keys (lane-parallel when the SIMD kernel is enabled),
  // prefetch one block per packet per vector, then mark/test.
  void record_outbound_batch(PacketBatch batch) override;
  void admits_inbound_batch(PacketBatch batch,
                            std::span<bool> admits) override;
  /// Prefetches the packet's block: its all-columns streak for an
  /// outbound mark, the current column's line for an inbound lookup.
  void prefetch(const PacketRecord& pkt, Direction dir) const override;
  bool inbound_lookup_is_pure() const override { return true; }
  std::optional<double> occupancy_fraction() const override {
    return bits_.utilization(idx_);
  }
  std::uint64_t expiry_generations() const override { return rotations_; }
  bool set_rotate_interval(Duration dt) override;
  std::size_t storage_bytes() const override;
  std::string name() const override { return "bitmap-blocked"; }

  /// Algorithm 1 (b.rotate); advance_time() invokes it on schedule.
  void rotate();

  const BitmapFilterConfig& config() const { return config_; }
  std::size_t current_index() const { return idx_; }
  std::uint64_t rotations() const { return rotations_; }

 private:
  static constexpr std::size_t kBatchChunk = 256;
  /// Keys of lookahead in the chunk pipelines: far enough to cover L3
  /// latency at line rate, small enough to stay within the prefetch
  /// queue's reach.
  static constexpr std::size_t kPrefetchDistance = 16;
  /// At this many probes and above, build the key's 512-bit mask once and
  /// OR/compare whole lines (cost independent of m); below it, targeted
  /// per-bit ops are cheaper.
  static constexpr unsigned kDenseProbeThreshold = 6;
  static constexpr std::uint64_t kOffsetMask =
      BlockedBitVector::kBlockBits - 1;

  std::size_t block_of(const Hash128& h) const {
    return static_cast<std::size_t>(h.lo & block_mask_);
  }
  /// Builds the 512-bit probe mask of `h` (all m probes as a line image).
  void line_mask_of(const Hash128& h, std::uint64_t line[8]) const;
  /// Marks all m probes of `h` in every vector (outbound arm); mark_with
  /// dispatches on kDenseProbeThreshold.
  void mark_dense(const Hash128& h);
  void mark_sparse(const Hash128& h);
  void mark_with(const Hash128& h);
  /// Tests all m probes of `h` in the current vector (inbound arm).
  bool test_dense(const Hash128& h) const;
  bool test_sparse(const Hash128& h) const;
  bool test_with(const Hash128& h) const;

  void mark_chunk(PacketBatch chunk);
  void test_chunk(PacketBatch chunk, std::span<bool> admits);

  BitmapFilterConfig config_;
  BloomHashFamily hashes_;
  BlockedBitVector bits_;  // k columns, block-major interleaved
  std::size_t idx_ = 0;
  RotationSchedule schedule_;
  std::uint64_t rotations_ = 0;
  std::uint64_t block_mask_ = 0;           // block_count - 1 (power of two)
  std::vector<Hash128> hash_scratch_;      // per-chunk key digests
  std::vector<std::uint8_t> key_scratch_;  // per-chunk serialized keys
};

}  // namespace upbound
