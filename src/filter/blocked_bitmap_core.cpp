#include "filter/blocked_bitmap_core.h"

#include <bit>
#include <cstring>
#include <stdexcept>

namespace upbound {

namespace {
std::size_t checked_bits(const BitmapFilterConfig& config) {
  config.validate();
  if (config.log2_bits < 9) {
    throw std::invalid_argument(
        "blocked bitmap: log2_bits must be >= 9 (one 512-bit block per "
        "vector)");
  }
  return config.bits();
}
}  // namespace

BlockedBitmapCore::BlockedBitmapCore(const BitmapFilterConfig& config)
    : hashes_(checked_bits(config), config.hash_count, config.hash_seed),
      key_mode_(config.key_mode),
      hash_count_(config.hash_count),
      columns_(config.vector_count),
      block_mask_(config.bits() / kBlockBits - 1),
      bits_per_column_(config.bits()) {}

std::uint64_t BlockedBitmapCore::advance(BitBlock* bits,
                                         BlockedRotation& rotation,
                                         SimTime now) const {
  const std::uint64_t due = rotation.schedule.advance(now);
  if (due == 0) return 0;
  if (due < columns_) {
    for (std::uint64_t i = 0; i < due; ++i) rotate(bits, rotation);
  } else {
    clear_all(bits);
    rotation.column = (rotation.column + due) % columns_;
  }
  return due;
}

void BlockedBitmapCore::rotate(BitBlock* bits,
                               BlockedRotation& rotation) const {
  const std::size_t last = rotation.column;
  rotation.column = (rotation.column + 1) % columns_;
  clear_column(bits, last);
}

void BlockedBitmapCore::clear_column(BitBlock* bits,
                                     std::size_t column) const {
  const std::size_t count = block_count();
  for (std::size_t b = 0; b < count; ++b) {
    std::memset(&bits[b * columns_ + column], 0, sizeof(BitBlock));
  }
}

void BlockedBitmapCore::clear_all(BitBlock* bits) const {
  std::memset(bits, 0, instance_bytes());
}

std::size_t BlockedBitmapCore::popcount(const BitBlock* bits,
                                        std::size_t column) const {
  std::size_t total = 0;
  const std::size_t count = block_count();
  for (std::size_t b = 0; b < count; ++b) {
    for (const std::uint64_t w : bits[b * columns_ + column].w) {
      total += std::popcount(w);
    }
  }
  return total;
}

double BlockedBitmapCore::utilization(const BitBlock* bits,
                                      std::size_t column) const {
  return static_cast<double>(popcount(bits, column)) /
         static_cast<double>(bits_per_column_);
}

}  // namespace upbound
