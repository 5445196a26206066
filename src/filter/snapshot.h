// Bitmap filter state snapshots: serialize the full {k x N} state (bits,
// current index, rotation phase) so an edge device can restart without a
// cold-start window in which every inbound packet of established
// connections would be dropped. Format (v2): versioned little-endian
// header ending in a CRC-32 over every other byte, then raw vector words;
// a few hundred KB writes in microseconds. The CRC turns silent bit rot
// into a typed corrupt-crc rejection, and save_snapshot_file() makes the
// on-disk write crash-consistent (temp file + fsync + atomic rename), so
// a restart mid-save finds either the old snapshot or the new one, never
// a torn hybrid. Callers outside src/filter/ reach the format only
// through the `bitmap` backend's save/restore hooks (filter_registry.h).
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "filter/bitmap_filter.h"

namespace upbound {

/// Serializes the filter's complete state. The snapshot embeds the
/// configuration, so restore validates compatibility by construction.
std::vector<std::uint8_t> snapshot_bitmap_filter(const BitmapFilter& filter,
                                                 SimTime now);

struct RestoredBitmapFilter {
  BitmapFilter filter;
  /// The time the snapshot was taken; the caller decides whether the gap
  /// since then exceeds Te (in which case restoring is pointless).
  SimTime snapshot_time;
};

/// Why a snapshot could not be restored. Snapshots cross a trust
/// boundary (files on disk survive truncation, bit rot, and tampering),
/// so every failure is a typed reason, never UB or a crash.
enum class SnapshotRestoreError {
  kNone,              // restored successfully
  kTruncated,         // ran out of bytes mid-header or mid-vector
  kBadMagic,          // not a UBMF snapshot
  kBadVersion,        // format version this build does not read
  kBadConfig,         // embedded configuration fails validate()
  kBadRotationIndex,  // current index >= vector count
  kBadRotationTime,   // next-rotation stamp implausibly far from the
                      // snapshot time (a forged value would make the
                      // first advance_time() spin one rotate per dt
                      // across the whole gap)
  kTrailingBytes,     // extra bytes after the last vector word
  kStale,             // gap since snapshot_time exceeds T_e: every mark
                      // would have rotated out, restoring is pointless
  kCorruptCrc,        // structurally sound but the CRC-32 over header and
                      // payload mismatches: bit rot or tampering
  kGeometryMismatch,  // sound image, but its configuration differs from
                      // the expected one in more than dt
};

const char* snapshot_restore_error_name(SnapshotRestoreError error);

struct BitmapRestoreResult {
  /// Populated iff error == kNone.
  std::optional<RestoredBitmapFilter> restored;
  SnapshotRestoreError error = SnapshotRestoreError::kNone;
  /// For kStale: how far `now` lies past the snapshot time (> T_e).
  Duration staleness{};

  bool ok() const { return error == SnapshotRestoreError::kNone; }
};

/// Rebuilds a filter from a snapshot with a typed failure reason. When
/// `now` is provided, a snapshot older than the configuration's T_e is
/// rejected as kStale -- all its marks would have expired anyway, so
/// restoring would only fake a warm start.
BitmapRestoreResult restore_bitmap_filter_checked(
    std::span<const std::uint8_t> snapshot,
    std::optional<SimTime> now = std::nullopt);

/// Crash-consistent snapshot write: the bytes go to `path` + ".tmp",
/// are flushed and fsync'd, then atomically renamed over `path`. A crash
/// at any point leaves either the previous snapshot or the complete new
/// one -- never a torn file. Throws std::runtime_error on I/O failure
/// (the temp file is removed best-effort).
void save_snapshot_file(const std::string& path,
                        std::span<const std::uint8_t> bytes);

/// Reads a whole image file; nullopt when it cannot be opened or read.
std::optional<std::vector<std::uint8_t>> load_snapshot_file(
    const std::string& path);

}  // namespace upbound
