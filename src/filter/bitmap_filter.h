// The bitmap filter -- the paper's core contribution (Section 4).
//
// A {k x N}-bitmap is k Bloom-filter bit vectors of N = 2^n bits sharing m
// hash functions. Outbound packets mark their m bits in ALL k vectors
// (Algorithm 2, lines 1-5); inbound packets are looked up in the CURRENT
// vector only (lines 6-15); every time unit dt the b.rotate step
// (Algorithm 1) advances the current index and zeroes the vector it lands
// on. A connection's marks therefore survive for at least (k-1)*dt and at
// most k*dt after its last outbound packet: the implicit expiry timer
// T_e = k*dt, in constant space and constant per-packet time.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "filter/bitvector.h"
#include "filter/hash_family.h"
#include "filter/rotation_schedule.h"
#include "filter/state_filter.h"

namespace upbound {

struct BitmapFilterConfig {
  unsigned log2_bits = 20;     // n: each vector holds N = 2^n bits
  unsigned vector_count = 4;   // k
  unsigned hash_count = 3;     // m
  Duration rotate_interval = Duration::sec(5.0);  // dt
  KeyMode key_mode = KeyMode::kFullTuple;
  std::uint64_t hash_seed = 0x7570626f756e6421ULL;

  /// N, the per-vector size in bits.
  std::size_t bits() const { return std::size_t{1} << log2_bits; }
  /// T_e = k * dt, the implicit state expiry timer.
  Duration expiry_timer() const {
    return rotate_interval * static_cast<double>(vector_count);
  }
  /// Total bitmap memory (k * N / 8), the paper's "512K bytes" figure for
  /// the default {4 x 2^20} configuration.
  std::size_t memory_bytes() const { return vector_count * bits() / 8; }

  /// Throws std::invalid_argument when parameters are out of range.
  void validate() const;
};

class BitmapFilter final : public StateFilter {
 public:
  explicit BitmapFilter(const BitmapFilterConfig& config);

  // StateFilter:
  void advance_time(SimTime now) override;
  void record_outbound(const PacketRecord& pkt) override;
  bool admits_inbound(const PacketRecord& pkt) override;
  // Real batch path: chunk the batch at rotation boundaries, compute all
  // Kirsch-Mitzenmacher indexes for a chunk first, prefetch the touched
  // bit-vector words, then mark/test in a second pass -- identical
  // decisions to the scalar path, with the dependent cache misses
  // overlapped instead of serialized.
  void record_outbound_batch(PacketBatch batch) override;
  void admits_inbound_batch(PacketBatch batch,
                            std::span<bool> admits) override;
  /// Prefetches the words the packet's probes touch: every vector for
  /// an outbound mark, the current one for an inbound lookup.
  void prefetch(const PacketRecord& pkt, Direction dir) const override;
  bool inbound_lookup_is_pure() const override { return true; }
  std::optional<double> occupancy_fraction() const override {
    return current_utilization();
  }
  std::uint64_t expiry_generations() const override { return rotations_; }
  /// Runtime dt retune: re-anchors next_rotation_ to the last completed
  /// boundary plus the new interval, so shrinking dt takes effect at the
  /// next advance_time (one rotation per new-schedule boundary, catch-up
  /// included) and growing dt stretches the current generation.
  bool set_rotate_interval(Duration dt) override;
  std::size_t storage_bytes() const override;
  std::string name() const override { return "bitmap"; }

  /// Algorithm 1 (b.rotate): advance idx and clear the vector it reaches.
  /// Exposed for direct driving in tests and microbenchmarks;
  /// advance_time() invokes it on schedule.
  void rotate();

  const BitmapFilterConfig& config() const { return config_; }
  std::size_t current_index() const { return idx_; }

  // --- Snapshot support (filter/snapshot.h) ---
  std::span<const std::uint64_t> vector_words(std::size_t v) const {
    return vectors_.at(v).words();
  }
  void load_vector_words(std::size_t v,
                         std::span<const std::uint64_t> words) {
    vectors_.at(v).load_words(words);
  }
  /// Restores rotation phase; used when deserializing a snapshot.
  void restore_rotation_state(std::size_t idx, SimTime next_rotation,
                              std::uint64_t rotations);
  SimTime next_rotation() const { return schedule_.next_boundary(); }
  /// Utilization U = b/N of the current bit vector (paper Eq. 2 input).
  double current_utilization() const { return vectors_[idx_].utilization(); }
  /// Set-bit fraction of every vector, indexed by vector position; the
  /// entry at current_index() equals current_utilization(). Capacity
  /// planning and the saturation-attack evaluation read this.
  std::vector<double> occupancy() const;
  std::uint64_t rotations() const { return rotations_; }

 private:
  /// Packets per prefetch window. 64 packets x m=3 hashes keeps the
  /// outstanding lines within L1 reach while giving the memory system a
  /// deep enough queue to overlap the misses.
  static constexpr std::size_t kBatchChunk = 64;

  /// Marks/tests one rotation-free chunk (all timestamps strictly before
  /// next_rotation_) with the two-pass hash+prefetch-then-touch scheme.
  void mark_chunk(PacketBatch chunk);
  void test_chunk(PacketBatch chunk, std::span<bool> admits);

  BitmapFilterConfig config_;
  BloomHashFamily hashes_;
  std::vector<BitVector> vectors_;
  std::size_t idx_ = 0;
  RotationSchedule schedule_;
  std::uint64_t rotations_ = 0;
  std::vector<std::size_t> scratch_;        // per-packet hash indexes
  std::vector<std::size_t> batch_scratch_;  // per-chunk hash indexes
  std::vector<Hash128> hash_scratch_;       // per-chunk key digests
  std::vector<std::uint8_t> key_scratch_;   // per-chunk serialized keys
};

}  // namespace upbound
