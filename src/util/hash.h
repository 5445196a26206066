// Hashing primitives.
//
// The bitmap filter needs a family of m independent hash functions over
// socket-pair keys (paper Section 4.2); everything here is implemented from
// scratch so hash values are stable across platforms and standard library
// versions -- test vectors and experiment results must not change when the
// toolchain does.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

namespace upbound {

/// 64-bit FNV-1a. Cheap; used for hash-table bucketing.
std::uint64_t fnv1a64(std::span<const std::uint8_t> data,
                      std::uint64_t seed = 0xcbf29ce484222325ULL);

/// 128-bit MurmurHash3 (x64 variant), the workhorse behind the Bloom hash
/// family. Returns the two 64-bit halves.
struct Hash128 {
  std::uint64_t lo = 0;
  std::uint64_t hi = 0;

  bool operator==(const Hash128&) const = default;
};

Hash128 murmur3_x64_128(std::span<const std::uint8_t> data,
                        std::uint64_t seed = 0);

/// Key slot stride for the batch hasher: each key occupies one 16-byte
/// slot, zero-padded past its length so the kernel can load whole words.
inline constexpr std::size_t kHashKeyStride = 16;

/// Hashes `count` short keys (len <= 15, i.e. no 16-byte body blocks --
/// covers the 13-byte five-tuple and 11-byte hole-punch keys) laid out at
/// kHashKeyStride-byte slots. Bit-identical to murmur3_x64_128 over each
/// slot's first `len` bytes; bytes past `len` in every slot MUST be zero.
/// Dispatches to the AVX2 kernel (part of every x86-64 build) when the CPU
/// supports it and it has not been disabled via set_simd_hash_enabled().
void murmur3_x64_128_short_batch(const std::uint8_t* keys, std::size_t len,
                                 std::size_t count, std::uint64_t seed,
                                 Hash128* out);

/// True when this is an x86-64 build and the running CPU reports AVX2.
bool simd_hash_available();

/// Process-global switch consulted by murmur3_x64_128_short_batch; starts
/// at simd_hash_available(). Forcing `true` where the kernel is absent is
/// a no-op (the switch stays false). Returns the previous value so tests
/// can save/restore around a differential run.
bool set_simd_hash_enabled(bool enabled);
bool simd_hash_enabled();

/// Final avalanche mixer from MurmurHash3; good for combining small ints.
std::uint64_t mix64(std::uint64_t x);

/// CRC-32 (IEEE 802.3 polynomial, reflected), for detecting bit rot in
/// at-rest artifacts like filter snapshots. Software table-driven so the
/// value is identical on every platform. `seed` is the running CRC for
/// incremental use (pass the previous return value to continue).
std::uint32_t crc32(std::span<const std::uint8_t> data,
                    std::uint32_t seed = 0);

/// Combines two hashes order-dependently.
inline std::uint64_t hash_combine(std::uint64_t a, std::uint64_t b) {
  return mix64(a ^ (b + 0x9e3779b97f4a7c15ULL + (a << 6) + (a >> 2)));
}

}  // namespace upbound
