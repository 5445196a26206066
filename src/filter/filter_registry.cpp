#include "filter/filter_registry.h"

#include <algorithm>
#include <sstream>
#include <stdexcept>

#include "filter/filter_pool.h"
#include "tenant/hierarchical_filter.h"

namespace upbound {

namespace {

double parse_double(const std::string& key, const std::string& raw) {
  try {
    std::size_t used = 0;
    const double value = std::stod(raw, &used);
    if (used != raw.size()) throw std::invalid_argument(raw);
    return value;
  } catch (const std::exception&) {
    throw std::invalid_argument("--" + key + ": not a number: '" + raw +
                                "'");
  }
}

std::uint64_t parse_u64(const std::string& key, const std::string& raw) {
  try {
    std::size_t used = 0;
    const std::uint64_t value = std::stoull(raw, &used, 0);
    if (used != raw.size()) throw std::invalid_argument(raw);
    return value;
  } catch (const std::exception&) {
    throw std::invalid_argument("--" + key + ": not an integer: '" + raw +
                                "'");
  }
}

}  // namespace

double FilterArgs::get_double(const std::string& key, double fallback) const {
  const std::optional<std::string> raw = value(key);
  return raw.has_value() ? parse_double(key, *raw) : fallback;
}

std::uint64_t FilterArgs::get_u64(const std::string& key,
                                  std::uint64_t fallback) const {
  const std::optional<std::string> raw = value(key);
  return raw.has_value() ? parse_u64(key, *raw) : fallback;
}

unsigned FilterArgs::get_unsigned(const std::string& key,
                                  unsigned fallback) const {
  return static_cast<unsigned>(get_u64(key, fallback));
}

const std::string& FilterSpec::kind() const {
  if (backend == nullptr) {
    throw std::logic_error("FilterSpec: empty spec has no kind");
  }
  return backend->name;
}

namespace {

template <typename Config>
FilterSpec spec_of(const std::string& backend_name, Config config) {
  FilterSpec spec;
  spec.backend = &FilterRegistry::instance().at(backend_name);
  spec.config = std::make_shared<const Config>(std::move(config));
  spec.config_type = &typeid(Config);
  return spec;
}

/// Shared {bits, k, m, dt, hole-punching} block of the bitmap-geometry
/// backends; the paper's Section 5.1 defaults.
BitmapFilterConfig bitmap_config_from(const FilterArgs& args) {
  BitmapFilterConfig config;
  config.log2_bits = args.get_unsigned("bits", 20);
  config.vector_count = args.get_unsigned("k", 4);
  config.hash_count = args.get_unsigned("m", 3);
  config.rotate_interval = Duration::sec(args.get_double("dt", 5.0));
  if (args.flag("hole-punching")) config.key_mode = KeyMode::kHolePunching;
  config.validate();
  return config;
}

/// True when two bitmap configurations differ in nothing but dt.
bool same_but_dt(const BitmapFilterConfig& a, const BitmapFilterConfig& b) {
  return a.log2_bits == b.log2_bits && a.vector_count == b.vector_count &&
         a.hash_count == b.hash_count && a.hash_seed == b.hash_seed &&
         a.key_mode == b.key_mode;
}

/// The `bitmap` backend's state-image hooks: thin wrappers over the UBMF
/// v2 format in filter/snapshot.cpp.
std::vector<std::uint8_t> save_bitmap(const StateFilter& filter, SimTime now) {
  return snapshot_bitmap_filter(dynamic_cast<const BitmapFilter&>(filter), now);
}

FilterRestoreResult restore_bitmap(std::span<const std::uint8_t> image,
                                   std::optional<SimTime> now,
                                   const FilterSpec* expect) {
  BitmapRestoreResult restored = restore_bitmap_filter_checked(image, now);
  FilterRestoreResult out;
  out.staleness = restored.staleness;
  out.error = restored.error;
  if (!restored.ok()) return out;
  const BitmapFilterConfig& got = restored.restored->filter.config();
  out.spec = spec_of("bitmap", got);
  out.snapshot_time = restored.restored->snapshot_time;
  // An image of one geometry has no lossless embedding into another; dt
  // alone may differ (the rotation schedule carries over).
  if (expect != nullptr &&
      (expect->kind() != "bitmap" ||
       !same_but_dt(got, expect->config_as<BitmapFilterConfig>()))) {
    out.error = SnapshotRestoreError::kGeometryMismatch;
    return out;
  }
  out.filter =
      std::make_unique<BitmapFilter>(std::move(restored.restored->filter));
  return out;
}

Duration generational_window(unsigned generations, Duration interval) {
  return interval * static_cast<double>(generations - 1);
}

unsigned ceil_log2(std::uint64_t n) {
  unsigned bits = 0;
  while ((std::uint64_t{1} << bits) < n) ++bits;
  return bits;
}

/// The `hierarchical` backend's argument block. The fine tier reuses the
/// chosen backend's own argument names (bits/k/m/dt/timeout/...); the
/// front tier is derived so its no-false-negative window covers the fine
/// tier's maximum admission window exactly -- the condition that makes
/// the front short-circuit verdict-exact.
HierarchicalFilterConfig hierarchical_config_from(const FilterArgs& args) {
  HierarchicalFilterConfig config;

  const std::string mode_text =
      args.value("tenant-mode").value_or("subscriber");
  const std::optional<TenantMode> mode = parse_tenant_mode(mode_text);
  if (!mode.has_value()) {
    throw std::invalid_argument(
        "--tenant-mode: expected 'subscriber' or 'prefix24', got '" +
        mode_text + "'");
  }
  config.table.mode = *mode;

  const std::string fine_name = args.value("fine").value_or("bitmap");
  if (fine_name == "hierarchical") {
    throw std::invalid_argument("--fine: hierarchical filters cannot nest");
  }
  config.fine = FilterRegistry::instance().at(fine_name).parse(args);
  config.fine_window = filter_spec_max_window(config.fine);

  // --tenants is a sizing hint: it widens the default front filter and
  // LRU cap so the shared tier absorbs the aggregate without saturating.
  const std::uint64_t tenants_hint = args.get_u64("tenants", 0);
  config.fine_cap = args.get_u64(
      "tenant-cap",
      tenants_hint > 0 ? std::max<std::uint64_t>(1, 2 * tenants_hint)
                       : 1024);

  const std::string front_name =
      args.value("front").value_or("bitmap-blocked");
  BitmapFilterConfig front;
  const unsigned fine_bits = args.get_unsigned("bits", 20);
  front.log2_bits = args.get_unsigned(
      "front-bits",
      std::clamp(fine_bits + (tenants_hint > 0 ? ceil_log2(tenants_hint)
                                               : 2u),
                 9u, 26u));
  front.vector_count = args.get_unsigned("front-k", 5);
  front.hash_count = args.get_unsigned("front-m", 3);
  if (front.vector_count < 2) {
    throw std::invalid_argument("--front-k: must be >= 2");
  }
  if (const std::optional<std::string> dt = args.value("front-dt")) {
    front.rotate_interval = Duration::sec(args.get_double("front-dt", 0.0));
  } else {
    // Ceiling division in microseconds: (front-k - 1) * dt >= fine
    // window with no floating-point rounding shortfall.
    const std::int64_t per =
        (config.fine_window.count_usec() + front.vector_count - 2) /
        (front.vector_count - 1);
    front.rotate_interval = Duration::usec(per);
  }
  if (args.flag("hole-punching")) front.key_mode = KeyMode::kHolePunching;
  if (front_name == "bitmap") {
    config.front = bitmap_filter_spec(front);
  } else if (front_name == "bitmap-blocked") {
    config.front = blocked_bitmap_filter_spec(front);
  } else if (front_name == "bitmap-mt") {
    config.front = concurrent_bitmap_filter_spec(front);
  } else {
    throw std::invalid_argument(
        "--front: expected bitmap|bitmap-blocked|bitmap-mt, got '" +
        front_name + "'");
  }

  if (!args.flag("no-digest")) {
    StateDigestConfig digest;
    digest.log2_bits = args.get_unsigned("digest-bits", 12);
    digest.hash_count = args.get_unsigned("digest-m", 4);
    if (args.flag("hole-punching")) {
      digest.key_mode = KeyMode::kHolePunching;
    }
    digest.validate();
    config.digest = digest;
  }

  config.validate();
  return config;
}

std::vector<BackendDescriptor> build_backends() {
  std::vector<BackendDescriptor> backends;

  {
    BackendDescriptor d;
    d.name = "bitmap";
    d.summary = "the paper's {k x N} rotating bitmap (Section 4)";
    d.capabilities = kCapOccupancy | kCapSharedView | kCapPureLookup |
                     kCapNoFalseNegative | kCapRotateInterval |
                     kCapSimdBatch;
    d.parse = [](const FilterArgs& args) {
      return spec_of("bitmap", bitmap_config_from(args));
    };
    d.make = [](const FilterSpec& spec) -> std::unique_ptr<StateFilter> {
      return std::make_unique<BitmapFilter>(
          spec.config_as<BitmapFilterConfig>());
    };
    d.geometry = [](const FilterSpec& spec) -> std::optional<FilterGeometry> {
      const auto& c = spec.config_as<BitmapFilterConfig>();
      return FilterGeometry{c.bits(), c.hash_count, c.vector_count,
                            c.rotate_interval};
    };
    d.guaranteed_window = [](const FilterSpec& spec) {
      const auto& c = spec.config_as<BitmapFilterConfig>();
      return generational_window(c.vector_count, c.rotate_interval);
    };
    d.save = save_bitmap;
    d.restore = restore_bitmap;
    backends.push_back(std::move(d));
  }

  {
    BackendDescriptor d;
    d.name = "bitmap-mt";
    d.summary = "lock-free concurrent bitmap for multi-queue datapaths";
    d.capabilities = kCapOccupancy | kCapSharedView | kCapPureLookup |
                     kCapNoFalseNegative;
    d.parse = [](const FilterArgs& args) {
      return spec_of("bitmap-mt", bitmap_config_from(args));
    };
    d.make = [](const FilterSpec& spec) -> std::unique_ptr<StateFilter> {
      return std::make_unique<ConcurrentBitmapFilter>(
          spec.config_as<BitmapFilterConfig>());
    };
    d.geometry = [](const FilterSpec& spec) -> std::optional<FilterGeometry> {
      const auto& c = spec.config_as<BitmapFilterConfig>();
      return FilterGeometry{c.bits(), c.hash_count, c.vector_count,
                            c.rotate_interval};
    };
    d.guaranteed_window = [](const FilterSpec& spec) {
      const auto& c = spec.config_as<BitmapFilterConfig>();
      return generational_window(c.vector_count, c.rotate_interval);
    };
    backends.push_back(std::move(d));
  }

  {
    BackendDescriptor d;
    d.name = "bitmap-blocked";
    d.summary =
        "cache-resident bitmap: all m probes of a key in one 512-bit block";
    // Same semantics and knobs as bitmap, different bit placement: no
    // state image yet (the bitmap image's layout does not fit the
    // block-major columns) and no shared-view (plain, unsynchronized
    // stores).
    d.capabilities = kCapOccupancy | kCapPureLookup | kCapNoFalseNegative |
                     kCapRotateInterval | kCapSimdBatch;
    d.parse = [](const FilterArgs& args) {
      const BitmapFilterConfig config = bitmap_config_from(args);
      if (config.log2_bits < 9) {
        throw std::invalid_argument(
            "--bits: bitmap-blocked needs >= 9 (one 512-bit block per "
            "vector)");
      }
      return spec_of("bitmap-blocked", config);
    };
    d.make = [](const FilterSpec& spec) -> std::unique_ptr<StateFilter> {
      return std::make_unique<BlockedBitmapFilter>(
          spec.config_as<BitmapFilterConfig>());
    };
    d.geometry = [](const FilterSpec& spec) -> std::optional<FilterGeometry> {
      const auto& c = spec.config_as<BitmapFilterConfig>();
      return FilterGeometry{c.bits(), c.hash_count, c.vector_count,
                            c.rotate_interval};
    };
    d.guaranteed_window = [](const FilterSpec& spec) {
      const auto& c = spec.config_as<BitmapFilterConfig>();
      return generational_window(c.vector_count, c.rotate_interval);
    };
    backends.push_back(std::move(d));
  }

  {
    BackendDescriptor d;
    d.name = "aging";
    d.summary = "4-bit age-stamp cells, programmable expiry at fixed memory";
    // No kCapOccupancy: a set-cell fraction over 13 ring values is not
    // the Eq. 2 utilization input (the health monitor reports occupancy
    // as unsupported for this backend).
    d.capabilities = kCapPureLookup | kCapNoFalseNegative;
    d.parse = [](const FilterArgs& args) {
      AgingBloomConfig config;
      config.cells = std::size_t{1} << args.get_unsigned("bits", 20);
      config.hash_count = args.get_unsigned("m", 3);
      config.epoch = Duration::sec(args.get_double("dt", 5.0));
      config.valid_epochs = args.get_unsigned("k", 4);
      if (args.flag("hole-punching")) {
        config.key_mode = KeyMode::kHolePunching;
      }
      config.validate();
      return spec_of("aging", config);
    };
    d.make = [](const FilterSpec& spec) -> std::unique_ptr<StateFilter> {
      return std::make_unique<AgingBloomFilter>(
          spec.config_as<AgingBloomConfig>());
    };
    d.geometry = [](const FilterSpec& spec) -> std::optional<FilterGeometry> {
      const auto& c = spec.config_as<AgingBloomConfig>();
      return FilterGeometry{c.cells, c.hash_count, c.valid_epochs, c.epoch};
    };
    d.guaranteed_window = [](const FilterSpec& spec) {
      const auto& c = spec.config_as<AgingBloomConfig>();
      return generational_window(c.valid_epochs, c.epoch);
    };
    backends.push_back(std::move(d));
  }

  {
    BackendDescriptor d;
    d.name = "spi";
    d.summary = "exact per-flow conntrack baseline (Section 5.3)";
    // Lookups refresh flow timers (not pure); exact state has no Bloom
    // occupancy; no snapshot format.
    d.capabilities = kCapNoFalseNegative;
    d.parse = [](const FilterArgs& args) {
      SpiFilterConfig config;
      config.idle_timeout =
          Duration::sec(args.get_double("timeout", 240.0));
      return spec_of("spi", config);
    };
    d.make = [](const FilterSpec& spec) -> std::unique_ptr<StateFilter> {
      return std::make_unique<SpiFilter>(spec.config_as<SpiFilterConfig>());
    };
    d.geometry = [](const FilterSpec&) -> std::optional<FilterGeometry> {
      return std::nullopt;
    };
    d.guaranteed_window = [](const FilterSpec& spec) {
      // Conservative: refreshes (including inbound ones) only extend the
      // window past the idle timeout.
      return spec.config_as<SpiFilterConfig>().idle_timeout;
    };
    backends.push_back(std::move(d));
  }

  {
    BackendDescriptor d;
    d.name = "naive";
    d.summary = "exact per-pair timers, the Section 4.2 strawman";
    d.capabilities = kCapPureLookup | kCapNoFalseNegative;
    d.parse = [](const FilterArgs& args) {
      NaiveFilterConfig config;
      config.state_timeout =
          Duration::sec(args.get_double("timeout", 20.0));
      if (args.flag("hole-punching")) {
        config.key_mode = KeyMode::kHolePunching;
      }
      return spec_of("naive", config);
    };
    d.make = [](const FilterSpec& spec) -> std::unique_ptr<StateFilter> {
      return std::make_unique<NaiveFilter>(
          spec.config_as<NaiveFilterConfig>());
    };
    d.geometry = [](const FilterSpec&) -> std::optional<FilterGeometry> {
      return std::nullopt;
    };
    d.guaranteed_window = [](const FilterSpec& spec) {
      return spec.config_as<NaiveFilterConfig>().state_timeout;
    };
    backends.push_back(std::move(d));
  }

  {
    BackendDescriptor d;
    d.name = "retouched";
    d.summary =
        "bitmap with a per-epoch retouch mask: trades selected false "
        "positives for false negatives (Donnet et al.)";
    // Deliberately NOT kCapNoFalseNegative (that is the whole trade) and
    // no state image (the mask is epoch-local; restoring the inner bitmap
    // alone would change verdicts silently).
    d.capabilities = kCapOccupancy | kCapPureLookup;
    d.parse = [](const FilterArgs& args) {
      RetouchedBitmapConfig config;
      config.bitmap = bitmap_config_from(args);
      config.retouch_fraction = args.get_double("retouch-fraction", 0.01);
      config.retouch_seed =
          args.get_u64("retouch-seed", config.retouch_seed);
      config.validate();
      return spec_of("retouched", config);
    };
    d.make = [](const FilterSpec& spec) -> std::unique_ptr<StateFilter> {
      return std::make_unique<RetouchedBitmapFilter>(
          spec.config_as<RetouchedBitmapConfig>());
    };
    d.geometry = [](const FilterSpec& spec) -> std::optional<FilterGeometry> {
      const auto& c = spec.config_as<RetouchedBitmapConfig>().bitmap;
      return FilterGeometry{c.bits(), c.hash_count, c.vector_count,
                            c.rotate_interval};
    };
    d.guaranteed_window = [](const FilterSpec& spec) {
      const auto& c = spec.config_as<RetouchedBitmapConfig>().bitmap;
      return generational_window(c.vector_count, c.rotate_interval);
    };
    backends.push_back(std::move(d));
  }

  {
    BackendDescriptor d;
    d.name = "counting";
    d.summary =
        "4-bit counting generations with per-tuple deletion on TCP close";
    d.capabilities = kCapOccupancy | kCapPureLookup | kCapNoFalseNegative;
    d.parse = [](const FilterArgs& args) {
      CountingFilterConfig config;
      config.log2_cells = args.get_unsigned("bits", 20);
      config.generation_count = args.get_unsigned("k", 4);
      config.hash_count = args.get_unsigned("m", 3);
      config.rotate_interval = Duration::sec(args.get_double("dt", 5.0));
      if (args.flag("hole-punching")) {
        config.key_mode = KeyMode::kHolePunching;
      }
      if (args.flag("no-close-delete")) config.delete_on_close = false;
      config.validate();
      return spec_of("counting", config);
    };
    d.make = [](const FilterSpec& spec) -> std::unique_ptr<StateFilter> {
      return std::make_unique<CountingFilter>(
          spec.config_as<CountingFilterConfig>());
    };
    d.geometry = [](const FilterSpec& spec) -> std::optional<FilterGeometry> {
      const auto& c = spec.config_as<CountingFilterConfig>();
      return FilterGeometry{c.cells(), c.hash_count, c.generation_count,
                            c.rotate_interval};
    };
    d.guaranteed_window = [](const FilterSpec& spec) {
      const auto& c = spec.config_as<CountingFilterConfig>();
      return generational_window(c.generation_count, c.rotate_interval);
    };
    backends.push_back(std::move(d));
  }

  {
    BackendDescriptor d;
    d.name = "hierarchical";
    d.summary =
        "two-level multi-tenant: shared front tier + per-subscriber fine "
        "filters (any backend) with digest exchange";
    // kCapNoFalseNegative describes the default configuration (bitmap
    // fine tier, front window covering it, LRU cap unsaturated); a
    // retouched fine tier or cap pressure carries that tier's trade
    // through, exactly as the flat deployment would. Lookups touch LRU
    // recency, so no kCapPureLookup.
    d.capabilities = kCapOccupancy | kCapNoFalseNegative | kCapTenancy;
    d.parse = [](const FilterArgs& args) {
      return spec_of("hierarchical", hierarchical_config_from(args));
    };
    d.make = [](const FilterSpec& spec) -> std::unique_ptr<StateFilter> {
      return std::make_unique<HierarchicalFilter>(
          spec.config_as<HierarchicalFilterConfig>());
    };
    d.geometry = [](const FilterSpec& spec) -> std::optional<FilterGeometry> {
      // The shared front tier's geometry: the occupancy signal the tuner
      // folds comes from there.
      const auto& c = spec.config_as<HierarchicalFilterConfig>();
      return c.front.backend->geometry(c.front);
    };
    d.guaranteed_window = [](const FilterSpec& spec) {
      // The fine tier decides admissions, so its window is the binding
      // one (the front is constructed to cover it).
      const auto& c = spec.config_as<HierarchicalFilterConfig>();
      return c.fine.backend->guaranteed_window(c.fine);
    };
    backends.push_back(std::move(d));
  }

  return backends;
}

}  // namespace

FilterRegistry::FilterRegistry() : backends_(build_backends()) {
  // kCapSnapshot is derived, never declared: exactly the backends that
  // register both image hooks hold it.
  for (BackendDescriptor& backend : backends_) {
    if (backend.save && backend.restore) backend.capabilities |= kCapSnapshot;
  }
}

const FilterRegistry& FilterRegistry::instance() {
  static const FilterRegistry registry;
  return registry;
}

const BackendDescriptor* FilterRegistry::find(const std::string& name) const {
  for (const BackendDescriptor& backend : backends_) {
    if (backend.name == name) return &backend;
  }
  return nullptr;
}

const BackendDescriptor& FilterRegistry::at(const std::string& name) const {
  const BackendDescriptor* backend = find(name);
  if (backend == nullptr) {
    throw std::invalid_argument("unknown filter backend '" + name + "' (" +
                                names_joined("|") + ")");
  }
  return *backend;
}

std::vector<std::string> FilterRegistry::names() const {
  std::vector<std::string> out;
  out.reserve(backends_.size());
  for (const BackendDescriptor& backend : backends_) {
    out.push_back(backend.name);
  }
  return out;
}

std::string FilterRegistry::names_joined(const std::string& sep) const {
  std::ostringstream out;
  for (std::size_t i = 0; i < backends_.size(); ++i) {
    if (i != 0) out << sep;
    out << backends_[i].name;
  }
  return out.str();
}

std::string FilterRegistry::names_with(FilterCapability cap) const {
  std::string out;
  for (const BackendDescriptor& backend : backends_) {
    if (!backend.has(cap)) continue;
    if (!out.empty()) out += '|';
    out += backend.name;
  }
  return out;
}

FilterSpec FilterRegistry::parse(const std::string& name,
                                 const FilterArgs& args) const {
  return at(name).parse(args);
}

std::unique_ptr<StateFilter> make_state_filter(const FilterSpec& spec) {
  if (spec.backend == nullptr) {
    throw std::logic_error("make_state_filter: empty spec");
  }
  return spec.backend->make(spec);
}

std::unique_ptr<FilterPool> make_filter_pool(const FilterSpec& spec) {
  if (spec.backend == nullptr) {
    throw std::logic_error("make_filter_pool: empty spec");
  }
  if (spec.backend == FilterRegistry::instance().find("bitmap-blocked")) {
    return std::make_unique<BlockedBitmapPool>(
        spec.config_as<BitmapFilterConfig>());
  }
  return std::make_unique<BoxedFilterPool>(spec);
}

FilterSpec bitmap_filter_spec(const BitmapFilterConfig& config) {
  config.validate();
  return spec_of("bitmap", config);
}

FilterSpec concurrent_bitmap_filter_spec(const BitmapFilterConfig& config) {
  config.validate();
  return spec_of("bitmap-mt", config);
}

FilterSpec blocked_bitmap_filter_spec(const BitmapFilterConfig& config) {
  config.validate();
  if (config.log2_bits < 9) {
    throw std::invalid_argument(
        "blocked_bitmap_filter_spec: log2_bits must be >= 9");
  }
  return spec_of("bitmap-blocked", config);
}

FilterSpec aging_filter_spec(const AgingBloomConfig& config) {
  config.validate();
  return spec_of("aging", config);
}

FilterSpec spi_filter_spec(const SpiFilterConfig& config) {
  return spec_of("spi", config);
}

FilterSpec naive_filter_spec(const NaiveFilterConfig& config) {
  return spec_of("naive", config);
}

FilterSpec retouched_filter_spec(const RetouchedBitmapConfig& config) {
  config.validate();
  return spec_of("retouched", config);
}

FilterSpec counting_filter_spec(const CountingFilterConfig& config) {
  config.validate();
  return spec_of("counting", config);
}

}  // namespace upbound
