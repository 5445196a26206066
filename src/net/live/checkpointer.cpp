#include "net/live/checkpointer.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <limits>
#include <stdexcept>
#include <utility>

#include "filter/snapshot.h"
#include "util/hash.h"

namespace upbound::live {

namespace {

constexpr std::uint32_t kMagic = 0x5542434B;  // "UBCK"
constexpr std::uint32_t kVersion = 1;
constexpr std::size_t kCrcOffset = 72;
constexpr std::size_t kPayloadOffset = 76;

void put_u32(std::uint32_t v, std::vector<std::uint8_t>& out) {
  for (int i = 0; i < 4; ++i) {
    out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
}

void put_u64(std::uint64_t v, std::vector<std::uint8_t>& out) {
  for (int i = 0; i < 8; ++i) {
    out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
}

std::uint32_t get_u32(const std::uint8_t* p) {
  std::uint32_t v = 0;
  for (int i = 3; i >= 0; --i) v = (v << 8) | p[i];
  return v;
}

std::uint64_t get_u64(const std::uint8_t* p) {
  std::uint64_t v = 0;
  for (int i = 7; i >= 0; --i) v = (v << 8) | p[i];
  return v;
}

std::uint64_t f64_bits(double d) {
  std::uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(d));
  std::memcpy(&bits, &d, sizeof(bits));
  return bits;
}

double f64_from_bits(std::uint64_t bits) {
  double d = 0.0;
  std::memcpy(&d, &bits, sizeof(d));
  return d;
}

/// CRC over header-before-CRC plus payload (skipping the CRC word), same
/// split the UBMF snapshot format uses.
std::uint32_t envelope_crc(std::span<const std::uint8_t> image) {
  const std::uint32_t head = crc32(image.subspan(0, kCrcOffset));
  return crc32(image.subspan(kPayloadOffset), head);
}

/// Parses "checkpoint-<digits>.ubck"; nullopt for anything else.
std::optional<std::uint64_t> generation_from_name(const std::string& name) {
  constexpr const char* kPrefix = "checkpoint-";
  constexpr const char* kSuffix = ".ubck";
  const std::size_t prefix_len = 11;
  const std::size_t suffix_len = 5;
  if (name.size() <= prefix_len + suffix_len) return std::nullopt;
  if (name.compare(0, prefix_len, kPrefix) != 0) return std::nullopt;
  if (name.compare(name.size() - suffix_len, suffix_len, kSuffix) != 0) {
    return std::nullopt;
  }
  std::uint64_t gen = 0;
  for (std::size_t i = prefix_len; i < name.size() - suffix_len; ++i) {
    if (name[i] < '0' || name[i] > '9') return std::nullopt;
    gen = gen * 10 + static_cast<std::uint64_t>(name[i] - '0');
  }
  return gen;
}

}  // namespace

const char* checkpoint_error_name(CheckpointError error) {
  switch (error) {
    case CheckpointError::kNone: return "none";
    case CheckpointError::kUnreadable: return "unreadable";
    case CheckpointError::kTruncated: return "truncated";
    case CheckpointError::kBadMagic: return "bad-magic";
    case CheckpointError::kBadVersion: return "bad-version";
    case CheckpointError::kBadLength: return "bad-length";
    case CheckpointError::kCorruptCrc: return "corrupt-crc";
  }
  return "unknown";
}

std::vector<std::uint8_t> encode_checkpoint(
    std::uint64_t generation, const CheckpointMeta& meta,
    std::span<const std::uint8_t> snapshot) {
  std::vector<std::uint8_t> out;
  out.reserve(kPayloadOffset + snapshot.size());
  put_u32(kMagic, out);
  put_u32(kVersion, out);
  put_u64(generation, out);
  put_u64(static_cast<std::uint64_t>(meta.time.usec()), out);
  put_u64(f64_bits(meta.policy_low), out);
  put_u64(f64_bits(meta.policy_high), out);
  put_u64(static_cast<std::uint64_t>(meta.rotate_interval.count_usec()),
          out);
  put_u64(meta.tenant_epoch, out);
  put_u64(static_cast<std::uint64_t>(meta.meter_window.count_usec()), out);
  put_u64(snapshot.size(), out);
  put_u32(0, out);  // CRC placeholder
  out.insert(out.end(), snapshot.begin(), snapshot.end());

  const std::uint32_t crc = envelope_crc(out);
  out[kCrcOffset + 0] = static_cast<std::uint8_t>(crc);
  out[kCrcOffset + 1] = static_cast<std::uint8_t>(crc >> 8);
  out[kCrcOffset + 2] = static_cast<std::uint8_t>(crc >> 16);
  out[kCrcOffset + 3] = static_cast<std::uint8_t>(crc >> 24);
  return out;
}

CheckpointDecodeResult decode_checkpoint(
    std::span<const std::uint8_t> bytes) {
  CheckpointDecodeResult result;
  auto fail = [&result](CheckpointError error) {
    result.error = error;
    return result;
  };
  if (bytes.size() < kPayloadOffset) return fail(CheckpointError::kTruncated);
  if (get_u32(bytes.data()) != kMagic) {
    return fail(CheckpointError::kBadMagic);
  }
  if (get_u32(bytes.data() + 4) != kVersion) {
    return fail(CheckpointError::kBadVersion);
  }
  const std::uint64_t payload_len = get_u64(bytes.data() + 64);
  if (payload_len != bytes.size() - kPayloadOffset) {
    return fail(payload_len > bytes.size() - kPayloadOffset
                    ? CheckpointError::kTruncated
                    : CheckpointError::kBadLength);
  }
  // CRC last: a mismatch on a structurally sound envelope is bit rot or
  // tampering, not a framing bug.
  if (get_u32(bytes.data() + kCrcOffset) != envelope_crc(bytes)) {
    return fail(CheckpointError::kCorruptCrc);
  }

  DecodedCheckpoint decoded;
  decoded.generation = get_u64(bytes.data() + 8);
  decoded.meta.time =
      SimTime::from_usec(static_cast<std::int64_t>(get_u64(bytes.data() + 16)));
  decoded.meta.policy_low = f64_from_bits(get_u64(bytes.data() + 24));
  decoded.meta.policy_high = f64_from_bits(get_u64(bytes.data() + 32));
  decoded.meta.rotate_interval = Duration::usec(
      static_cast<std::int64_t>(get_u64(bytes.data() + 40)));
  decoded.meta.tenant_epoch = get_u64(bytes.data() + 48);
  decoded.meta.meter_window = Duration::usec(
      static_cast<std::int64_t>(get_u64(bytes.data() + 56)));
  decoded.snapshot.assign(bytes.begin() + kPayloadOffset, bytes.end());
  result.decoded = std::move(decoded);
  return result;
}

std::string checkpoint_filename(std::uint64_t generation) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "checkpoint-%08llu.ubck",
                static_cast<unsigned long long>(generation));
  return buf;
}

Checkpointer::Checkpointer(Config config, StateProvider provider,
                           FaultInjector* faults)
    : config_(std::move(config)),
      provider_(std::move(provider)),
      faults_(faults) {
  if (config_.dir.empty()) {
    throw std::invalid_argument("Checkpointer: directory required");
  }
  if (!provider_) {
    throw std::invalid_argument("Checkpointer: state provider required");
  }
  if (config_.interval <= Duration{}) {
    throw std::invalid_argument("Checkpointer: interval must be positive");
  }
  if (config_.keep == 0) config_.keep = 1;
  std::error_code ec;
  if (!std::filesystem::is_directory(config_.dir, ec)) {
    throw std::runtime_error("Checkpointer: '" + config_.dir +
                             "' is not a directory");
  }
  // Continue numbering after whatever a previous incarnation left, so a
  // restart never overwrites the generation it is about to restore from.
  for (const auto& entry :
       std::filesystem::directory_iterator(config_.dir, ec)) {
    const auto gen = generation_from_name(entry.path().filename().string());
    if (gen.has_value() && *gen >= next_gen_) next_gen_ = *gen + 1;
  }
}

std::string Checkpointer::write_checkpoint() {
  CheckpointMeta meta;
  const std::vector<std::uint8_t> snapshot = provider_(meta);
  const std::uint64_t gen = next_gen_;
  std::vector<std::uint8_t> image = encode_checkpoint(gen, meta, snapshot);
  if (faults_ != nullptr &&
      faults_->corrupt_checkpoint(gen) && image.size() > kPayloadOffset) {
    // After the CRC is sealed: the write is crash-consistent but the
    // payload carries one flipped byte, the deterministic stand-in for
    // at-rest bit rot the restore fallback tests drill.
    image.back() ^= 0xFF;
  }
  const std::string path =
      (std::filesystem::path(config_.dir) / checkpoint_filename(gen))
          .string();
  save_snapshot_file(path, image);
  next_gen_ = gen + 1;
  ++written_;
  last_time_ = meta.time;
  prune();
  return path;
}

Duration Checkpointer::staleness(SimTime now) const {
  if (!last_time_.has_value()) {
    return Duration::usec(std::numeric_limits<std::int64_t>::max());
  }
  const Duration gap = now - *last_time_;
  return gap.is_negative() ? Duration{} : gap;
}

void Checkpointer::prune() const {
  std::error_code ec;
  std::vector<std::pair<std::uint64_t, std::filesystem::path>> gens;
  for (const auto& entry :
       std::filesystem::directory_iterator(config_.dir, ec)) {
    const auto gen = generation_from_name(entry.path().filename().string());
    if (gen.has_value()) gens.emplace_back(*gen, entry.path());
  }
  if (gens.size() <= config_.keep) return;
  std::sort(gens.begin(), gens.end(),
            [](const auto& a, const auto& b) { return a.first > b.first; });
  for (std::size_t i = config_.keep; i < gens.size(); ++i) {
    std::filesystem::remove(gens[i].second, ec);  // best-effort
  }
}

CheckpointRestore restore_newest_checkpoint(const std::string& dir,
                                            const FilterSpec& spec,
                                            std::optional<SimTime> now) {
  if (!spec.backend->has(kCapSnapshot)) {
    throw std::invalid_argument(
        "restoring a checkpoint requires a snapshot-capable filter backend "
        "(supported: " +
        FilterRegistry::instance().names_with(kCapSnapshot) + ")");
  }
  CheckpointRestore result;
  std::error_code ec;
  std::vector<std::pair<std::uint64_t, std::string>> gens;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    const std::string name = entry.path().filename().string();
    const auto gen = generation_from_name(name);
    if (gen.has_value()) gens.emplace_back(*gen, entry.path().string());
  }
  std::sort(gens.begin(), gens.end(),
            [](const auto& a, const auto& b) { return a.first > b.first; });

  for (const auto& [gen, path] : gens) {
    const std::string name =
        std::filesystem::path(path).filename().string();
    const auto bytes = load_snapshot_file(path);
    if (!bytes.has_value()) {
      result.skipped.push_back(name + ": unreadable");
      continue;
    }
    CheckpointDecodeResult decoded = decode_checkpoint(*bytes);
    if (!decoded.ok()) {
      result.skipped.push_back(
          name + ": " + checkpoint_error_name(decoded.error));
      continue;
    }
    if (decoded.decoded->generation != gen) {
      // Filename and embedded generation disagree: a renamed or spliced
      // file. The embedded value is CRC-protected, the filename is not,
      // but a mismatch means someone rearranged the directory -- skip.
      result.skipped.push_back(name + ": generation-mismatch");
      continue;
    }
    FilterRestoreResult restored =
        spec.backend->restore(decoded.decoded->snapshot, now, &spec);
    if (!restored.ok()) {
      result.skipped.push_back(
          name + ": " + snapshot_restore_error_name(restored.error));
      continue;
    }
    result.filter = std::move(restored.filter);
    result.spec = std::move(restored.spec);
    result.meta = decoded.decoded->meta;
    result.generation = gen;
    result.path = path;
    break;
  }
  return result;
}

std::string CheckpointRestore::report() const {
  std::string out;
  if (ok()) {
    out = "restored " + path + " (generation " +
          std::to_string(generation) + ", checkpointed at " +
          meta.time.to_string() + ")";
  } else {
    out = "no restorable checkpoint";
  }
  if (!skipped.empty()) {
    out += "; skipped:";
    for (const std::string& s : skipped) out += " [" + s + "]";
  }
  return out;
}

}  // namespace upbound::live
