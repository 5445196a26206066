// Compact per-tenant state digest for inter-router exchange, in the style
// of in-packet Bloom filters (Rothenberg et al.): a small Bloom bitmap of
// the socket-pair keys a tenant marked during the current digest epoch.
// Edge routers serialize digests, ship them to peers, and merge/apply
// received ones so a roaming client's state converges on every router
// that serves it. The wire format is versioned, CRC-checked, and parses
// with typed errors (never throws on malformed input; fuzz-tested).
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "filter/hash_family.h"
#include "tenant/tenant_table.h"
#include "util/time.h"

namespace upbound {

struct StateDigestConfig {
  /// Digest size: 2^log2_bits Bloom bits. Must be in [6, 24]; the default
  /// 2^12 bits = 512 bytes per tenant digest.
  unsigned log2_bits = 12;
  /// Probes per key. Must be in [1, 16].
  unsigned hash_count = 4;
  /// Must match the fine tier's key mode so inbound lookups land on the
  /// bits outbound marks set.
  KeyMode key_mode = KeyMode::kFullTuple;
  std::uint64_t hash_seed = 0x7464696765737421ULL;

  std::size_t bits() const { return std::size_t{1} << log2_bits; }
  std::size_t words() const { return (bits() + 63) / 64; }

  /// Throws std::invalid_argument on out-of-range geometry.
  void validate() const;

  bool operator==(const StateDigestConfig&) const = default;
};

/// Parse/merge failure reasons. Stable names (digest_error_name) surface
/// in CLI and control-socket errors.
enum class DigestError {
  kNone,
  kTruncated,        // shorter than the declared layout
  kBadMagic,
  kBadVersion,
  kBadConfig,        // geometry outside StateDigestConfig bounds
  kBadCrc,
  kTrailingBytes,    // well-formed digest followed by garbage
  kConfigMismatch,   // merge/apply: geometry or key mode differs
  kTenantMismatch,   // merge: digests describe different tenants
  kEpochMismatch,    // merge: digests cover different epochs
};

const char* digest_error_name(DigestError error);

class StateDigest {
 public:
  StateDigest(TenantId tenant, std::uint64_t epoch,
              const StateDigestConfig& config);

  TenantId tenant() const { return tenant_; }
  std::uint64_t epoch() const { return epoch_; }
  const StateDigestConfig& config() const { return config_; }

  /// Marks the key of an outbound packet's tuple (source = internal
  /// client).
  void insert_outbound(const FiveTuple& sigma_out);
  /// Cache hint for an upcoming insert_outbound of the same tuple:
  /// prefetches the words its probes set. No state change.
  void prefetch_outbound(const FiveTuple& sigma_out) const;
  /// Tests the key of an inbound packet's tuple (destination = internal
  /// client); hashes the inverse so it lands on the outbound-marked bits.
  bool contains_inbound(const FiveTuple& sigma_in) const;

  /// Number of set bits (diagnostics; drives the density report).
  std::size_t set_bits() const;

  /// Clears all bits and adopts a new epoch.
  void clear(std::uint64_t epoch);

  /// Unions `other` into this digest. Returns kNone on success; the
  /// digests must agree on tenant, epoch, and configuration.
  DigestError try_merge(const StateDigest& other);
  /// try_merge, throwing std::invalid_argument on mismatch.
  void merge(const StateDigest& other);

  /// Canonical wire encoding (magic, version, config, tenant, epoch,
  /// bit words, CRC-32). Byte-identical for equal digests.
  std::vector<std::uint8_t> serialize() const;

  /// Decodes a serialized digest. Never throws on malformed input; the
  /// result's error field names the first defect found.
  static struct DigestParseResult parse(std::span<const std::uint8_t> data);

  /// Value equality: config, tenant, epoch, and bit contents.
  bool operator==(const StateDigest& other) const {
    return config_ == other.config_ && tenant_ == other.tenant_ &&
           epoch_ == other.epoch_ && words_ == other.words_;
  }

 private:
  StateDigestConfig config_;
  TenantId tenant_ = 0;
  std::uint64_t epoch_ = 0;
  BloomHashFamily hashes_;
  std::vector<std::uint64_t> words_;
};

struct DigestParseResult {
  std::optional<StateDigest> digest;
  DigestError error = DigestError::kNone;
};

}  // namespace upbound
