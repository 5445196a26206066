// Periodic crash-consistent checkpointing for the live daemon.
//
// A checkpoint is a UBCK envelope wrapping one filter state image (the
// backend's BackendDescriptor::save output) plus the datapath state a
// restart cannot rederive from traffic: the drop-policy thresholds, the
// rotation cadence, the tenant digest epoch, and the meter window. The
// envelope is little-endian with its own CRC-32 over every other byte,
// and every write goes through save_snapshot_file's temp + fsync + atomic
// rename, so a SIGKILL at any instant leaves the directory holding only
// complete generations.
//
// Envelope (v1), all little-endian:
//
//   offset  size  field
//        0     4  magic 0x5542434B ("UBCK")
//        4     4  version (1)
//        8     8  generation (monotone per directory, survives restart)
//       16     8  checkpoint sim-time, microseconds
//       24     8  drop-policy low watermark, f64 bits
//       32     8  drop-policy high watermark, f64 bits
//       40     8  rotation interval dt, microseconds
//       48     8  tenant digest epoch (0 = single-tenant)
//       56     8  meter window, microseconds (0 = no meter)
//       64     8  snapshot payload length
//       72     4  CRC-32 over bytes [0,72) + payload
//       76     -  snapshot payload (the backend's state image)
//
// Generations are kept as checkpoint-<generation>.ubck; the writer prunes
// to the newest `keep` so disk use is bounded. Restore walks generations
// newest-first and falls back across corrupt, stale, or truncated files
// with a typed reason for each skip -- one bad generation never costs the
// warm start, only its own staleness delta.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "fault/fault_injector.h"
#include "filter/filter_registry.h"
#include "util/time.h"

namespace upbound::live {

/// Datapath state carried alongside the filter snapshot.
struct CheckpointMeta {
  SimTime time;  // sim time the checkpoint represents
  double policy_low = 0.0;
  double policy_high = 0.0;
  Duration rotate_interval{};
  std::uint64_t tenant_epoch = 0;
  Duration meter_window{};
};

/// Why a checkpoint envelope could not be decoded. Snapshot-payload
/// failures are reported separately via SnapshotRestoreError.
enum class CheckpointError {
  kNone,
  kUnreadable,   // file missing or read failed
  kTruncated,    // shorter than header + declared payload
  kBadMagic,     // not a UBCK file
  kBadVersion,   // envelope version this build does not read
  kBadLength,    // declared payload length disagrees with the file size
  kCorruptCrc,   // envelope CRC-32 mismatch: bit rot or tampering
};

const char* checkpoint_error_name(CheckpointError error);

struct DecodedCheckpoint {
  std::uint64_t generation = 0;
  CheckpointMeta meta;
  std::vector<std::uint8_t> snapshot;  // state image, not yet restored
};

struct CheckpointDecodeResult {
  std::optional<DecodedCheckpoint> decoded;  // set iff error == kNone
  CheckpointError error = CheckpointError::kNone;

  bool ok() const { return error == CheckpointError::kNone; }
};

/// Builds the UBCK envelope around a snapshot payload.
std::vector<std::uint8_t> encode_checkpoint(
    std::uint64_t generation, const CheckpointMeta& meta,
    std::span<const std::uint8_t> snapshot);

/// Decodes an envelope with a typed failure reason; never throws on bad
/// input (checkpoints cross the same trust boundary snapshots do).
CheckpointDecodeResult decode_checkpoint(
    std::span<const std::uint8_t> bytes);

/// The checkpoint filename for a generation ("checkpoint-00000012.ubck";
/// zero-padded so lexicographic order is generation order).
std::string checkpoint_filename(std::uint64_t generation);

class Checkpointer {
 public:
  struct Config {
    std::string dir;  // must exist and be writable
    /// Cadence the datapath drives write_checkpoint() at; also the bound
    /// on state lost to a crash (the "staleness window").
    Duration interval = Duration::sec(5.0);
    /// Generations retained on disk; older files are pruned after each
    /// successful write. Minimum 1.
    std::size_t keep = 4;
  };

  /// Fills `meta` and returns the filter snapshot payload. Runs at a
  /// batch boundary (the datapath quiesces before calling), so the image
  /// is internally consistent by construction.
  using StateProvider = std::function<std::vector<std::uint8_t>(
      CheckpointMeta& meta)>;

  /// Scans `config.dir` for existing generations and continues numbering
  /// after the newest, so a restarted daemon never reuses (and silently
  /// overwrites) a generation the previous incarnation wrote. `faults`
  /// may arm checkpoint.corrupt:<generation>, which flips a payload byte
  /// after the CRC is sealed -- the deterministic bit-rot used by the
  /// fallback tests.
  Checkpointer(Config config, StateProvider provider,
               FaultInjector* faults = nullptr);

  /// Writes one generation crash-consistently and prunes to `keep`.
  /// Returns the path written. Throws std::runtime_error on I/O failure
  /// (the caller counts it and keeps running; checkpointing is an
  /// availability aid, not a correctness dependency).
  std::string write_checkpoint();

  std::uint64_t generations_written() const { return written_; }
  std::uint64_t next_generation() const { return next_gen_; }
  /// Sim time of the newest successful checkpoint, if any.
  std::optional<SimTime> last_checkpoint_time() const { return last_time_; }
  /// How far `now` has run past the newest checkpoint: the state a crash
  /// right now would lose. Maximum Duration when nothing has been
  /// written yet (everything would be lost).
  Duration staleness(SimTime now) const;

  const Config& config() const { return config_; }

 private:
  void prune() const;

  Config config_;
  StateProvider provider_;
  FaultInjector* faults_;
  std::uint64_t next_gen_ = 1;
  std::uint64_t written_ = 0;
  std::optional<SimTime> last_time_;
};

/// One directory restore: the newest valid generation wins; every older
/// or invalid file that was considered and passed over is recorded with
/// its typed reason.
struct CheckpointRestore {
  /// The restored filter and the spec its image embeds, the winner's
  /// metadata, generation and path; set iff a generation restored.
  std::unique_ptr<StateFilter> filter;
  FilterSpec spec;
  CheckpointMeta meta;
  std::uint64_t generation = 0;
  std::string path;
  /// "checkpoint-00000007.ubck: corrupt-crc" -- newest first, every
  /// generation tried before the winner (or all of them on failure).
  std::vector<std::string> skipped;

  bool ok() const { return !path.empty(); }
  /// Human-readable one-paragraph summary for logs / CLI output.
  std::string report() const;
};

/// Walks `dir` newest-generation-first and restores the first checkpoint
/// that decodes, CRC-checks, and whose image restores through `spec`'s
/// backend with `spec` expected (an image of another geometry is a
/// geometry-mismatch skip). When `now` is provided, images older than
/// their own T_e are skipped as stale. A live restart across process
/// boundaries passes nullopt: MonotonicClock epochs are not comparable
/// between runs, so wall-gap staleness is meaningless there and the
/// rotation schedule re-anchors on the first packet. Throws
/// std::invalid_argument when the backend has no state image.
CheckpointRestore restore_newest_checkpoint(
    const std::string& dir, const FilterSpec& spec,
    std::optional<SimTime> now = std::nullopt);

}  // namespace upbound::live
