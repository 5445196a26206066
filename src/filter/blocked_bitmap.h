// Cache-resident variant of the paper's {k x N} rotating bitmap.
//
// Same Algorithm 1/2 semantics as BitmapFilter -- outbound marks all k
// vectors, inbound looks up the current one, rotation clears the oldest --
// but the k vectors are block-major interleaved columns of 512-bit blocks
// (filter/blocked_bitmap_core.h): a key's low hash half selects one block
// and all m probes stay inside it. Per packet that is one cache line per
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
#include "filter/blocked_bitmap_core.h"
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
    return core_.utilization(bits_.data(), rotation_.column);
  }
  std::uint64_t expiry_generations() const override { return rotations_; }
  bool set_rotate_interval(Duration dt) override;
  std::size_t storage_bytes() const override;
  std::string name() const override { return "bitmap-blocked"; }

  /// Algorithm 1 (b.rotate); advance_time() invokes it on schedule.
  void rotate();

  const BitmapFilterConfig& config() const { return config_; }
  std::size_t current_index() const { return rotation_.column; }
  std::uint64_t rotations() const { return rotations_; }

 private:
  static constexpr std::size_t kBatchChunk = 256;
  /// Keys of lookahead in the chunk pipelines: far enough to cover L3
  /// latency at line rate, small enough to stay within the prefetch
  /// queue's reach.
  static constexpr std::size_t kPrefetchDistance = 16;

  void mark_chunk(PacketBatch chunk);
  void test_chunk(PacketBatch chunk, std::span<bool> admits);

  BitmapFilterConfig config_;
  BlockedBitmapCore core_;
  std::vector<BitBlock> bits_;  // k columns, block-major interleaved
  BlockedRotation rotation_;
  std::uint64_t rotations_ = 0;
  std::vector<Hash128> hash_scratch_;      // per-chunk key digests
  std::vector<std::uint8_t> key_scratch_;  // per-chunk serialized keys
};

}  // namespace upbound
