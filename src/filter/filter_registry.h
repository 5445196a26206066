// The single seam between "a filter backend exists" and everything that
// constructs or interrogates one. Each backend registers ONE
// BackendDescriptor -- name, capability bits, argument parser, factory,
// geometry and expiry-window reporters, state-image hooks -- and the CLI,
// the filter bank, parallel replay shard factories, the attack
// evaluator, the live daemon's snapshot/checkpoint/reload paths, the
// health monitor's occupancy signal, and the registry-driven test/bench
// enumerations all consume that descriptor instead of hard-coding
// concrete types. Adding a backend (or giving one a state image) is one
// registration in filter_registry.cpp; nothing outside src/filter/
// names a concrete filter class to build, save, or restore one.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <span>
#include <string>
#include <typeinfo>
#include <vector>

#include "filter/adaptive_tuner.h"  // FilterGeometry
#include "filter/aging_bloom.h"
#include "filter/bitmap_filter.h"
#include "filter/blocked_bitmap.h"
#include "filter/concurrent_bitmap.h"
#include "filter/counting_filter.h"
#include "filter/naive_filter.h"
#include "filter/retouched_bitmap.h"
#include "filter/snapshot.h"  // SnapshotRestoreError
#include "filter/spi_filter.h"
#include "filter/state_filter.h"

namespace upbound {

/// What a backend can do, beyond the base StateFilter contract. Callers
/// branch on these bits instead of dynamic_cast'ing to concrete types.
enum FilterCapability : std::uint32_t {
  /// occupancy_fraction() returns a value (health monitor, tuner,
  /// state.occupancy gauge, attack occupancy trajectories).
  kCapOccupancy = 1u << 0,
  /// Registers both state-image hooks (BackendDescriptor::save and
  /// ::restore). Derived by the registry, never declared by hand.
  kCapSnapshot = 1u << 2,
  /// Safe to share one instance across parallel replay shards
  /// (--shard-mode shared).
  kCapSharedView = 1u << 3,
  /// inbound_lookup_is_pure() is true: the router may batch lookups
  /// speculatively.
  kCapPureLookup = 1u << 4,
  /// No false negatives within the backend's guaranteed window (the
  /// paper's core property; deliberately absent for retouched).
  kCapNoFalseNegative = 1u << 5,
  /// set_rotate_interval() retunes dt at runtime (live `set dt`
  /// reconfiguration over the control socket).
  kCapRotateInterval = 1u << 6,
  /// Batch paths digest keys through the lane-parallel murmur3 kernel
  /// when it is enabled (util/hash.h set_simd_hash_enabled); verdicts are
  /// bit-identical with the kernel on or off.
  kCapSimdBatch = 1u << 7,
  /// Multi-tenant backend: per-subscriber fine state behind a shared
  /// front tier, per-tenant telemetry/introspection, and the
  /// inter-router digest exchange path (gates the control socket's
  /// `stats tenants` and the per-tenant attack report).
  kCapTenancy = 1u << 8,
};

/// Abstract key-value view of backend arguments. Decouples the parsers
/// in this library from cli::Args (the filter library cannot link the
/// cli layer); adapters exist for the CLI and for plain maps.
class FilterArgs {
 public:
  virtual ~FilterArgs() = default;

  /// The raw value of `key`, or nullopt when absent.
  virtual std::optional<std::string> value(const std::string& key) const = 0;
  /// True when the boolean flag `key` is set.
  virtual bool flag(const std::string& key) const = 0;

  // Typed accessors; throw std::invalid_argument on unparsable values.
  double get_double(const std::string& key, double fallback) const;
  std::uint64_t get_u64(const std::string& key, std::uint64_t fallback) const;
  unsigned get_unsigned(const std::string& key, unsigned fallback) const;
};

/// FilterArgs over an explicit map -- for the attack evaluator, tests,
/// and anywhere arguments are assembled programmatically.
class MapFilterArgs final : public FilterArgs {
 public:
  MapFilterArgs() = default;

  MapFilterArgs& set(const std::string& key, const std::string& value) {
    values_[key] = value;
    return *this;
  }
  MapFilterArgs& set_flag(const std::string& key) {
    flags_.insert(key);
    return *this;
  }

  std::optional<std::string> value(const std::string& key) const override {
    const auto it = values_.find(key);
    if (it == values_.end()) return std::nullopt;
    return it->second;
  }
  bool flag(const std::string& key) const override {
    return flags_.count(key) != 0;
  }

 private:
  std::map<std::string, std::string> values_;
  std::set<std::string> flags_;
};

struct BackendDescriptor;
class FilterPool;

/// A parsed, validated backend configuration: the descriptor it belongs
/// to plus its type-erased config struct. Cheap to copy; the factory
/// turns it into fresh filter instances (one per replay shard).
struct FilterSpec {
  const BackendDescriptor* backend = nullptr;
  std::shared_ptr<const void> config;
  const std::type_info* config_type = nullptr;

  const std::string& kind() const;

  /// Checked downcast to the backend's config struct.
  template <typename Config>
  const Config& config_as() const {
    if (config_type == nullptr || *config_type != typeid(Config)) {
      throw std::logic_error("FilterSpec: config type mismatch");
    }
    return *static_cast<const Config*>(config.get());
  }
};

/// What BackendDescriptor::restore returns, for every backend.
struct FilterRestoreResult {
  std::unique_ptr<StateFilter> filter;  // set iff ok()
  /// The configuration the image embeds, and when the image was taken;
  /// set iff ok() or error == kGeometryMismatch.
  FilterSpec spec;
  SimTime snapshot_time;
  Duration staleness{};  // kStale: how far `now` lies past snapshot_time
  SnapshotRestoreError error = SnapshotRestoreError::kNone;

  bool ok() const { return error == SnapshotRestoreError::kNone; }
};

/// Everything the rest of the system needs to know about one backend.
struct BackendDescriptor {
  std::string name;
  std::string summary;  // one line for --help and the compare table
  std::uint32_t capabilities = 0;

  /// Parses backend arguments into a validated FilterSpec. Throws
  /// std::invalid_argument on bad values.
  std::function<FilterSpec(const FilterArgs&)> parse;
  /// Builds a fresh filter from a spec parsed by this backend.
  std::function<std::unique_ptr<StateFilter>(const FilterSpec&)> make;
  /// Bloom-side geometry {N, m, k, dt} when the backend has one (tuner
  /// input), else nullopt.
  std::function<std::optional<FilterGeometry>(const FilterSpec&)> geometry;
  /// Conservative no-false-negative window: a tuple marked at tm is
  /// admitted at any t with t - tm < window (exact-state backends: the
  /// configured timeout; generational backends: (k-1)*dt). Meaningful
  /// only with kCapNoFalseNegative.
  std::function<Duration(const FilterSpec&)> guaranteed_window;

  // State-image hooks; both empty for backends without an image.
  /// Serializes a filter built by this backend, as of sim time `now`.
  /// Throws std::bad_cast for a filter of another type.
  std::function<std::vector<std::uint8_t>(const StateFilter&, SimTime now)>
      save;
  /// Rebuilds a filter from an image `save` wrote, with a typed failure
  /// reason. `now` enables the T_e staleness check (kStale). When
  /// `expect` is given, an image whose configuration differs from it in
  /// anything but dt fails with kGeometryMismatch.
  std::function<FilterRestoreResult(std::span<const std::uint8_t> image,
                                    std::optional<SimTime> now,
                                    const FilterSpec* expect)>
      restore;

  bool has(FilterCapability cap) const {
    return (capabilities & cap) != 0;
  }
};

/// Process-wide registry of filter backends, populated once at static
/// init in filter_registry.cpp (registration order is the presentation
/// order used by --help, compare tables, and test enumeration).
class FilterRegistry {
 public:
  static const FilterRegistry& instance();

  /// The descriptor for `name`, or nullptr when unknown.
  const BackendDescriptor* find(const std::string& name) const;
  /// The descriptor for `name`; throws std::invalid_argument listing the
  /// registered names when unknown.
  const BackendDescriptor& at(const std::string& name) const;

  /// Registered backend names, in registration order.
  std::vector<std::string> names() const;
  /// The names joined with `sep` -- usage strings and error messages.
  std::string names_joined(const std::string& sep) const;
  /// The names of the backends holding `cap`, pipe-joined, in
  /// registration order -- for "(supported: ...)" error text.
  std::string names_with(FilterCapability cap) const;

  /// Convenience: at(name).parse(args).
  FilterSpec parse(const std::string& name, const FilterArgs& args) const;

  const std::vector<BackendDescriptor>& descriptors() const {
    return backends_;
  }

 private:
  FilterRegistry();
  std::vector<BackendDescriptor> backends_;
};

/// spec.backend->make(spec), with a clear error on an empty spec.
std::unique_ptr<StateFilter> make_state_filter(const FilterSpec& spec);

/// A pool of instances of `spec` (filter/filter_pool.h): the native
/// BlockedBitmapPool when spec.backend IS the registry's own
/// bitmap-blocked descriptor, else a BoxedFilterPool that builds every
/// instance through spec.backend->make. The test is identity, not name,
/// so a caller's copy of a descriptor with its own make (a tracing
/// decorator, say) keeps having its instances built by that make.
std::unique_ptr<FilterPool> make_filter_pool(const FilterSpec& spec);

// Typed spec builders for callers that already hold a config struct
// (tests, benches, examples, the filter bank). Each is exactly
// registry.parse() would produce for the same parameters.
FilterSpec bitmap_filter_spec(const BitmapFilterConfig& config = {});
FilterSpec concurrent_bitmap_filter_spec(
    const BitmapFilterConfig& config = {});
FilterSpec blocked_bitmap_filter_spec(const BitmapFilterConfig& config = {});
FilterSpec aging_filter_spec(const AgingBloomConfig& config = {});
FilterSpec spi_filter_spec(const SpiFilterConfig& config = {});
FilterSpec naive_filter_spec(const NaiveFilterConfig& config = {});
FilterSpec retouched_filter_spec(const RetouchedBitmapConfig& config = {});
FilterSpec counting_filter_spec(const CountingFilterConfig& config = {});

}  // namespace upbound
