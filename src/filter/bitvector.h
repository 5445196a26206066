// Fixed-size bit vector backing one Bloom filter column of the bitmap.
// Sized in whole 64-bit words; clear() is a single memset-like pass, which
// is what makes the paper's b.rotate cheap (Section 5.2).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "util/prefetch.h"

namespace upbound {

class BitVector {
 public:
  /// Creates a vector of `size` bits, all zero. Requires size > 0.
  explicit BitVector(std::size_t size);

  std::size_t size() const { return size_; }

  void set(std::size_t i) {
    words_[i >> 6] |= std::uint64_t{1} << (i & 63);
  }

  bool test(std::size_t i) const {
    return (words_[i >> 6] >> (i & 63)) & 1;
  }

  /// Cache hints for the word holding bit `i`; the batched datapath
  /// issues these for a whole chunk before touching any word.
  /// always_inline for the reason util/prefetch.h gives.
  [[gnu::always_inline]] void prefetch_for_test(std::size_t i) const {
    prefetch_read(words_.data() + (i >> 6));
  }
  [[gnu::always_inline]] void prefetch_for_set(std::size_t i) const {
    prefetch_write(words_.data() + (i >> 6));
  }

  /// Zeroes every bit; O(size/64) sequential word stores.
  void clear();

  /// Number of set bits (the `b` in the paper's utilization U = b/N).
  std::size_t popcount() const;

  /// Fraction of set bits.
  double utilization() const {
    return static_cast<double>(popcount()) / static_cast<double>(size_);
  }

  /// Heap footprint in bytes.
  std::size_t storage_bytes() const { return words_.size() * 8; }

  /// Raw word access for snapshot serialization.
  std::span<const std::uint64_t> words() const { return words_; }
  /// Restores raw words; `words` must match the vector's word count.
  void load_words(std::span<const std::uint64_t> words);

 private:
  std::size_t size_;
  std::vector<std::uint64_t> words_;
};

}  // namespace upbound
