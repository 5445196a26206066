#include "tenant/state_digest.h"

#include <array>
#include <bit>
#include <stdexcept>

#include "util/byte_io.h"
#include "util/hash.h"
#include "util/prefetch.h"

namespace upbound {

namespace {

constexpr std::uint32_t kMagic = 0x55505444;  // "UPTD"
constexpr std::uint16_t kVersion = 1;

void write_u64(ByteWriter& w, std::uint64_t v) {
  w.u32le(static_cast<std::uint32_t>(v));
  w.u32le(static_cast<std::uint32_t>(v >> 32));
}

std::uint64_t read_u64(ByteReader& r) {
  const std::uint64_t lo = r.u32le();
  const std::uint64_t hi = r.u32le();
  return lo | (hi << 32);
}

}  // namespace

void StateDigestConfig::validate() const {
  if (log2_bits < 6 || log2_bits > 24) {
    throw std::invalid_argument(
        "StateDigestConfig: log2_bits must be in [6, 24]");
  }
  if (hash_count < 1 || hash_count > 16) {
    throw std::invalid_argument(
        "StateDigestConfig: hash_count must be in [1, 16]");
  }
}

const char* digest_error_name(DigestError error) {
  switch (error) {
    case DigestError::kNone:
      return "none";
    case DigestError::kTruncated:
      return "truncated";
    case DigestError::kBadMagic:
      return "bad-magic";
    case DigestError::kBadVersion:
      return "bad-version";
    case DigestError::kBadConfig:
      return "bad-config";
    case DigestError::kBadCrc:
      return "bad-crc";
    case DigestError::kTrailingBytes:
      return "trailing-bytes";
    case DigestError::kConfigMismatch:
      return "config-mismatch";
    case DigestError::kTenantMismatch:
      return "tenant-mismatch";
    case DigestError::kEpochMismatch:
      return "epoch-mismatch";
  }
  return "?";
}

StateDigest::StateDigest(TenantId tenant, std::uint64_t epoch,
                         const StateDigestConfig& config)
    : config_(config),
      tenant_(tenant),
      epoch_(epoch),
      hashes_(config.bits(), config.hash_count, config.hash_seed),
      words_(config.words(), 0) {
  config.validate();
}

void StateDigest::insert_outbound(const FiveTuple& sigma_out) {
  std::array<std::size_t, 16> idx;
  const std::span<std::size_t> probes{idx.data(), config_.hash_count};
  hashes_.outbound_indexes(sigma_out, config_.key_mode, probes);
  for (const std::size_t bit : probes) {
    words_[bit >> 6] |= std::uint64_t{1} << (bit & 63);
  }
}

void StateDigest::prefetch_outbound(const FiveTuple& sigma_out) const {
  std::array<std::size_t, 16> idx;
  const std::span<std::size_t> probes{idx.data(), config_.hash_count};
  hashes_.outbound_indexes(sigma_out, config_.key_mode, probes);
  for (const std::size_t bit : probes) prefetch_write(&words_[bit >> 6]);
}

bool StateDigest::contains_inbound(const FiveTuple& sigma_in) const {
  std::array<std::size_t, 16> idx;
  const std::span<std::size_t> probes{idx.data(), config_.hash_count};
  hashes_.inbound_indexes(sigma_in, config_.key_mode, probes);
  for (const std::size_t bit : probes) {
    if ((words_[bit >> 6] & (std::uint64_t{1} << (bit & 63))) == 0) {
      return false;
    }
  }
  return true;
}

std::size_t StateDigest::set_bits() const {
  std::size_t count = 0;
  for (const std::uint64_t word : words_) count += std::popcount(word);
  return count;
}

void StateDigest::clear(std::uint64_t epoch) {
  epoch_ = epoch;
  words_.assign(words_.size(), 0);
}

DigestError StateDigest::try_merge(const StateDigest& other) {
  if (config_ != other.config_) return DigestError::kConfigMismatch;
  if (tenant_ != other.tenant_) return DigestError::kTenantMismatch;
  if (epoch_ != other.epoch_) return DigestError::kEpochMismatch;
  for (std::size_t i = 0; i < words_.size(); ++i) {
    words_[i] |= other.words_[i];
  }
  return DigestError::kNone;
}

void StateDigest::merge(const StateDigest& other) {
  const DigestError error = try_merge(other);
  if (error != DigestError::kNone) {
    throw std::invalid_argument(std::string("StateDigest::merge: ") +
                                digest_error_name(error));
  }
}

std::vector<std::uint8_t> StateDigest::serialize() const {
  std::vector<std::uint8_t> out;
  out.reserve(32 + words_.size() * 8);
  ByteWriter w(out);
  w.u32le(kMagic);
  w.u16le(kVersion);
  w.u8(static_cast<std::uint8_t>(config_.log2_bits));
  w.u8(static_cast<std::uint8_t>(config_.hash_count));
  w.u8(config_.key_mode == KeyMode::kHolePunching ? 1 : 0);
  w.u8(0);  // reserved
  write_u64(w, config_.hash_seed);
  w.u32le(tenant_);
  write_u64(w, epoch_);
  for (const std::uint64_t word : words_) write_u64(w, word);
  const std::uint32_t crc =
      crc32(std::span<const std::uint8_t>{out.data(), out.size()});
  w.u32le(crc);
  return out;
}

DigestParseResult StateDigest::parse(
    std::span<const std::uint8_t> data) {
  DigestParseResult result;
  ByteReader r(data);
  try {
    if (r.u32le() != kMagic) {
      result.error = DigestError::kBadMagic;
      return result;
    }
    if (r.u16le() != kVersion) {
      result.error = DigestError::kBadVersion;
      return result;
    }
    StateDigestConfig config;
    config.log2_bits = r.u8();
    config.hash_count = r.u8();
    const std::uint8_t mode = r.u8();
    r.skip(1);  // reserved
    if (config.log2_bits < 6 || config.log2_bits > 24 ||
        config.hash_count < 1 || config.hash_count > 16 || mode > 1) {
      result.error = DigestError::kBadConfig;
      return result;
    }
    config.key_mode =
        mode == 1 ? KeyMode::kHolePunching : KeyMode::kFullTuple;
    config.hash_seed = read_u64(r);
    const TenantId tenant = r.u32le();
    const std::uint64_t epoch = read_u64(r);
    // Geometry is validated above, so the allocation is bounded (2 MiB at
    // log2_bits = 24) before any word is read.
    StateDigest digest(tenant, epoch, config);
    for (std::uint64_t& word : digest.words_) word = read_u64(r);
    // CRC covers everything before it; check after the full layout is
    // consumed so a truncated body reports kTruncated, not kBadCrc.
    const std::size_t payload_end = r.position();
    const std::uint32_t crc = r.u32le();
    if (crc != crc32(data.subspan(0, payload_end))) {
      result.error = DigestError::kBadCrc;
      return result;
    }
    if (!r.empty()) {
      result.error = DigestError::kTrailingBytes;
      return result;
    }
    result.digest = std::move(digest);
    return result;
  } catch (const ByteUnderflow&) {
    result.error = DigestError::kTruncated;
    return result;
  }
}

}  // namespace upbound
