#include "filter/snapshot.h"

#include <unistd.h>

#include <cstdio>
#include <stdexcept>

#include "util/byte_io.h"
#include "util/hash.h"

namespace upbound {

namespace {

constexpr std::uint32_t kSnapshotMagic = 0x55424d46;  // "UBMF"
// v2 appends a CRC-32 to the v1 header (offset 68; all field offsets
// before it are unchanged), covering every byte except the CRC itself.
constexpr std::uint32_t kSnapshotVersion = 2;
constexpr std::size_t kCrcOffset = 68;

/// CRC over the whole image minus the 4 CRC bytes at kCrcOffset.
std::uint32_t image_crc(std::span<const std::uint8_t> image) {
  const std::uint32_t head = crc32(image.subspan(0, kCrcOffset));
  return crc32(image.subspan(kCrcOffset + 4), head);
}

void write_u64le(ByteWriter& w, std::uint64_t v) {
  w.u32le(static_cast<std::uint32_t>(v));
  w.u32le(static_cast<std::uint32_t>(v >> 32));
}

std::uint64_t read_u64le(ByteReader& r) {
  const std::uint64_t lo = r.u32le();
  const std::uint64_t hi = r.u32le();
  return lo | (hi << 32);
}

/// |a - b| in microseconds. Stamps read from a damaged snapshot may hold
/// any int64, where a signed difference would overflow.
std::uint64_t usec_apart(SimTime a, SimTime b) {
  const auto ua = static_cast<std::uint64_t>(a.usec());
  const auto ub = static_cast<std::uint64_t>(b.usec());
  return a < b ? ub - ua : ua - ub;
}

}  // namespace

std::vector<std::uint8_t> snapshot_bitmap_filter(const BitmapFilter& filter,
                                                 SimTime now) {
  const BitmapFilterConfig& config = filter.config();
  std::vector<std::uint8_t> out;
  const std::size_t words_per_vector = (config.bits() + 63) / 64;
  out.reserve(64 + config.vector_count * words_per_vector * 8);
  ByteWriter w{out};

  w.u32le(kSnapshotMagic);
  w.u32le(kSnapshotVersion);
  w.u32le(config.log2_bits);
  w.u32le(config.vector_count);
  w.u32le(config.hash_count);
  write_u64le(w, static_cast<std::uint64_t>(
                     config.rotate_interval.count_usec()));
  w.u32le(config.key_mode == KeyMode::kHolePunching ? 1 : 0);
  write_u64le(w, config.hash_seed);
  w.u32le(static_cast<std::uint32_t>(filter.current_index()));
  write_u64le(w, static_cast<std::uint64_t>(filter.next_rotation().usec()));
  write_u64le(w, filter.rotations());
  write_u64le(w, static_cast<std::uint64_t>(now.usec()));
  w.u32le(0);  // CRC placeholder, patched below

  for (unsigned v = 0; v < config.vector_count; ++v) {
    for (const std::uint64_t word : filter.vector_words(v)) {
      write_u64le(w, word);
    }
  }

  const std::uint32_t crc = image_crc(out);
  out[kCrcOffset + 0] = static_cast<std::uint8_t>(crc);
  out[kCrcOffset + 1] = static_cast<std::uint8_t>(crc >> 8);
  out[kCrcOffset + 2] = static_cast<std::uint8_t>(crc >> 16);
  out[kCrcOffset + 3] = static_cast<std::uint8_t>(crc >> 24);
  return out;
}

const char* snapshot_restore_error_name(SnapshotRestoreError error) {
  switch (error) {
    case SnapshotRestoreError::kNone:
      return "none";
    case SnapshotRestoreError::kTruncated:
      return "truncated";
    case SnapshotRestoreError::kBadMagic:
      return "bad magic";
    case SnapshotRestoreError::kBadVersion:
      return "unsupported version";
    case SnapshotRestoreError::kBadConfig:
      return "invalid embedded configuration";
    case SnapshotRestoreError::kBadRotationIndex:
      return "rotation index out of range";
    case SnapshotRestoreError::kBadRotationTime:
      return "rotation schedule out of range";
    case SnapshotRestoreError::kTrailingBytes:
      return "trailing bytes";
    case SnapshotRestoreError::kStale:
      return "stale (older than T_e)";
    case SnapshotRestoreError::kCorruptCrc:
      return "corrupt-crc";
    case SnapshotRestoreError::kGeometryMismatch:
      return "geometry-mismatch";
  }
  return "unknown";
}

BitmapRestoreResult restore_bitmap_filter_checked(
    std::span<const std::uint8_t> snapshot, std::optional<SimTime> now) {
  BitmapRestoreResult result;
  const auto fail = [&result](SnapshotRestoreError error) {
    result.error = error;
    return result;
  };
  try {
    ByteReader r{snapshot};
    if (r.u32le() != kSnapshotMagic) {
      return fail(SnapshotRestoreError::kBadMagic);
    }
    if (r.u32le() != kSnapshotVersion) {
      return fail(SnapshotRestoreError::kBadVersion);
    }

    BitmapFilterConfig config;
    config.log2_bits = r.u32le();
    config.vector_count = r.u32le();
    config.hash_count = r.u32le();
    config.rotate_interval =
        Duration::usec(static_cast<std::int64_t>(read_u64le(r)));
    config.key_mode =
        r.u32le() == 1 ? KeyMode::kHolePunching : KeyMode::kFullTuple;
    config.hash_seed = read_u64le(r);
    try {
      config.validate();
    } catch (const std::invalid_argument&) {
      return fail(SnapshotRestoreError::kBadConfig);
    }

    const std::uint32_t idx = r.u32le();
    if (idx >= config.vector_count) {
      return fail(SnapshotRestoreError::kBadRotationIndex);
    }
    const SimTime next_rotation =
        SimTime::from_usec(static_cast<std::int64_t>(read_u64le(r)));
    const std::uint64_t rotations = read_u64le(r);
    const SimTime snapshot_time =
        SimTime::from_usec(static_cast<std::int64_t>(read_u64le(r)));
    const std::uint32_t stored_crc = r.u32le();
    // A healthy snapshot has its next rotation within one expiry cycle of
    // the snapshot time; anything further off is corruption, and a value
    // far in the past would wedge the first advance_time() in a
    // one-rotate-per-dt loop across the whole gap.
    if (usec_apart(next_rotation, snapshot_time) >
        static_cast<std::uint64_t>(config.expiry_timer().count_usec())) {
      return fail(SnapshotRestoreError::kBadRotationTime);
    }
    if (now.has_value() && *now - snapshot_time > config.expiry_timer()) {
      // Restoring would only fake a warm start: every mark the snapshot
      // holds has already rotated out of its survival window.
      result.staleness = *now - snapshot_time;
      return fail(SnapshotRestoreError::kStale);
    }

    // Size-check the payload before touching the allocator: a bit-flipped
    // log2_bits must not make us reserve gigabytes only to underflow.
    const std::size_t words_per_vector = (config.bits() + 63) / 64;
    const std::size_t payload_bytes =
        config.vector_count * words_per_vector * 8;
    if (r.remaining() < payload_bytes) {
      return fail(SnapshotRestoreError::kTruncated);
    }
    if (r.remaining() > payload_bytes) {
      return fail(SnapshotRestoreError::kTrailingBytes);
    }
    // CRC last, once the structure is known sound: semantically invalid
    // fields keep their pointed reasons above; the CRC catches the rest
    // (payload bit rot, damage the field checks cannot see).
    if (stored_crc != image_crc(snapshot)) {
      return fail(SnapshotRestoreError::kCorruptCrc);
    }

    BitmapFilter filter{config};
    std::vector<std::uint64_t> words(words_per_vector);
    for (unsigned v = 0; v < config.vector_count; ++v) {
      for (auto& word : words) word = read_u64le(r);
      filter.load_vector_words(v, words);
    }
    filter.restore_rotation_state(idx, next_rotation, rotations);
    result.restored = RestoredBitmapFilter{std::move(filter), snapshot_time};
    return result;
  } catch (const ByteUnderflow&) {
    return fail(SnapshotRestoreError::kTruncated);
  }
}

void save_snapshot_file(const std::string& path,
                        std::span<const std::uint8_t> bytes) {
  const std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (f == nullptr) {
    throw std::runtime_error("save_snapshot_file: cannot open " + tmp);
  }
  const bool wrote =
      std::fwrite(bytes.data(), 1, bytes.size(), f) == bytes.size() &&
      std::fflush(f) == 0 && ::fsync(::fileno(f)) == 0;
  if (std::fclose(f) != 0 || !wrote) {
    std::remove(tmp.c_str());
    throw std::runtime_error("save_snapshot_file: write failed for " + tmp);
  }
  // rename(2) is atomic within a filesystem: readers see the old file or
  // the new one, never a prefix.
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    throw std::runtime_error("save_snapshot_file: cannot rename " + tmp +
                             " to " + path);
  }
}

std::optional<std::vector<std::uint8_t>> load_snapshot_file(
    const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return std::nullopt;
  std::vector<std::uint8_t> bytes;
  std::uint8_t buf[1 << 16];
  std::size_t got = 0;
  while ((got = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    bytes.insert(bytes.end(), buf, buf + got);
  }
  const bool failed = std::ferror(f) != 0;
  std::fclose(f);
  if (failed) return std::nullopt;
  return bytes;
}

}  // namespace upbound
