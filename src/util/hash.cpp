#include "util/hash.h"

#include <atomic>
#include <bit>
#include <cstring>

#include "util/byte_io.h"

namespace upbound {

std::uint64_t fnv1a64(std::span<const std::uint8_t> data, std::uint64_t seed) {
  std::uint64_t h = seed;
  for (std::uint8_t byte : data) {
    h ^= byte;
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::uint64_t mix64(std::uint64_t x) {
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdULL;
  x ^= x >> 33;
  x *= 0xc4ceb9fe1a85ec53ULL;
  x ^= x >> 33;
  return x;
}

namespace {

/// Nibble-sliced CRC-32 table (16 entries): small enough to stay resident,
/// two lookups per byte. Built once at static-init from the reflected
/// IEEE polynomial 0xedb88320.
struct Crc32Table {
  std::uint32_t entries[16];
  constexpr Crc32Table() : entries{} {
    for (std::uint32_t i = 0; i < 16; ++i) {
      std::uint32_t c = i;
      for (int bit = 0; bit < 4; ++bit) {
        c = (c & 1) ? 0xedb88320u ^ (c >> 1) : c >> 1;
      }
      entries[i] = c;
    }
  }
};
constexpr Crc32Table kCrc32Table;

std::uint64_t load_u64le(const std::uint8_t* p) {
  std::uint64_t v;
  std::memcpy(&v, p, sizeof(v));
  if constexpr (std::endian::native == std::endian::big) {
    v = bswap64(v);
  }
  return v;
}

}  // namespace

std::uint32_t crc32(std::span<const std::uint8_t> data, std::uint32_t seed) {
  std::uint32_t c = ~seed;
  for (const std::uint8_t byte : data) {
    c = kCrc32Table.entries[(c ^ byte) & 0x0f] ^ (c >> 4);
    c = kCrc32Table.entries[(c ^ (byte >> 4)) & 0x0f] ^ (c >> 4);
  }
  return ~c;
}

Hash128 murmur3_x64_128(std::span<const std::uint8_t> data,
                        std::uint64_t seed) {
  const std::size_t len = data.size();
  const std::size_t nblocks = len / 16;
  const std::uint8_t* base = data.data();

  std::uint64_t h1 = seed;
  std::uint64_t h2 = seed;
  const std::uint64_t c1 = 0x87c37b91114253d5ULL;
  const std::uint64_t c2 = 0x4cf5ad432745937fULL;

  for (std::size_t i = 0; i < nblocks; ++i) {
    std::uint64_t k1 = load_u64le(base + i * 16);
    std::uint64_t k2 = load_u64le(base + i * 16 + 8);

    k1 *= c1;
    k1 = std::rotl(k1, 31);
    k1 *= c2;
    h1 ^= k1;
    h1 = std::rotl(h1, 27);
    h1 += h2;
    h1 = h1 * 5 + 0x52dce729;

    k2 *= c2;
    k2 = std::rotl(k2, 33);
    k2 *= c1;
    h2 ^= k2;
    h2 = std::rotl(h2, 31);
    h2 += h1;
    h2 = h2 * 5 + 0x38495ab5;
  }

  const std::uint8_t* tail = base + nblocks * 16;
  std::uint64_t k1 = 0;
  std::uint64_t k2 = 0;
  switch (len & 15) {
    case 15: k2 ^= static_cast<std::uint64_t>(tail[14]) << 48; [[fallthrough]];
    case 14: k2 ^= static_cast<std::uint64_t>(tail[13]) << 40; [[fallthrough]];
    case 13: k2 ^= static_cast<std::uint64_t>(tail[12]) << 32; [[fallthrough]];
    case 12: k2 ^= static_cast<std::uint64_t>(tail[11]) << 24; [[fallthrough]];
    case 11: k2 ^= static_cast<std::uint64_t>(tail[10]) << 16; [[fallthrough]];
    case 10: k2 ^= static_cast<std::uint64_t>(tail[9]) << 8; [[fallthrough]];
    case 9:
      k2 ^= static_cast<std::uint64_t>(tail[8]);
      k2 *= c2;
      k2 = std::rotl(k2, 33);
      k2 *= c1;
      h2 ^= k2;
      [[fallthrough]];
    case 8: k1 ^= static_cast<std::uint64_t>(tail[7]) << 56; [[fallthrough]];
    case 7: k1 ^= static_cast<std::uint64_t>(tail[6]) << 48; [[fallthrough]];
    case 6: k1 ^= static_cast<std::uint64_t>(tail[5]) << 40; [[fallthrough]];
    case 5: k1 ^= static_cast<std::uint64_t>(tail[4]) << 32; [[fallthrough]];
    case 4: k1 ^= static_cast<std::uint64_t>(tail[3]) << 24; [[fallthrough]];
    case 3: k1 ^= static_cast<std::uint64_t>(tail[2]) << 16; [[fallthrough]];
    case 2: k1 ^= static_cast<std::uint64_t>(tail[1]) << 8; [[fallthrough]];
    case 1:
      k1 ^= static_cast<std::uint64_t>(tail[0]);
      k1 *= c1;
      k1 = std::rotl(k1, 31);
      k1 *= c2;
      h1 ^= k1;
      break;
    case 0:
      break;
  }

  h1 ^= static_cast<std::uint64_t>(len);
  h2 ^= static_cast<std::uint64_t>(len);
  h1 += h2;
  h2 += h1;
  h1 = mix64(h1);
  h2 = mix64(h2);
  h1 += h2;
  h2 += h1;
  return Hash128{h1, h2};
}

namespace detail {
#if defined(UPBOUND_AVX2_KERNEL)
// Defined in hash_simd.cpp (the only TU compiled with -mavx2); processes a
// multiple of four 16-byte slots.
void murmur3_avx2_short_batch(const std::uint8_t* keys, std::size_t count,
                              std::uint64_t len, std::uint64_t seed,
                              Hash128* out);
#endif
}  // namespace detail

namespace {

/// One short key (<= 15 bytes, zero-padded to a 16-byte slot). The tail
/// path of murmur3_x64_128 collapses to this branch-free form because a
/// zero k1/k2 contributes exactly nothing to its half: for len < 9 the
/// switch never touches k2, and here k2 == 0 transforms to 0, leaving
/// h2 == seed either way (same argument for k1 at len == 0).
Hash128 murmur3_short(const std::uint8_t* slot, std::uint64_t len,
                      std::uint64_t seed) {
  const std::uint64_t c1 = 0x87c37b91114253d5ULL;
  const std::uint64_t c2 = 0x4cf5ad432745937fULL;
  std::uint64_t h1 = seed ^ (std::rotl(load_u64le(slot) * c1, 31) * c2);
  std::uint64_t h2 = seed ^ (std::rotl(load_u64le(slot + 8) * c2, 33) * c1);
  h1 ^= len;
  h2 ^= len;
  h1 += h2;
  h2 += h1;
  h1 = mix64(h1);
  h2 = mix64(h2);
  h1 += h2;
  h2 += h1;
  return Hash128{h1, h2};
}

std::atomic<bool>& simd_hash_flag() {
  static std::atomic<bool> flag{simd_hash_available()};
  return flag;
}

}  // namespace

bool simd_hash_available() {
#if defined(UPBOUND_AVX2_KERNEL)
  return __builtin_cpu_supports("avx2") != 0;
#else
  return false;
#endif
}

bool simd_hash_enabled() {
  return simd_hash_flag().load(std::memory_order_relaxed);
}

bool set_simd_hash_enabled(bool enabled) {
  if (enabled && !simd_hash_available()) enabled = false;
  return simd_hash_flag().exchange(enabled, std::memory_order_relaxed);
}

void murmur3_x64_128_short_batch(const std::uint8_t* keys, std::size_t len,
                                 std::size_t count, std::uint64_t seed,
                                 Hash128* out) {
  std::size_t i = 0;
#if defined(UPBOUND_AVX2_KERNEL)
  if (count >= 4 && simd_hash_enabled()) {
    const std::size_t groups = count & ~std::size_t{3};
    detail::murmur3_avx2_short_batch(keys, groups, len, seed, out);
    i = groups;
  }
#endif
  for (; i < count; ++i) {
    out[i] = murmur3_short(keys + i * kHashKeyStride, len, seed);
  }
}

}  // namespace upbound
