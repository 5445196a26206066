// FilterRegistry: the single seam between backend existence and backend
// construction. These tests pin the registry contract every consumer
// (CLI, filter bank, parallel replay, attack evaluator, state-image
// users, test enumeration) relies on: stable names and registration
// order, capability bits that match each backend's actual behavior,
// argument parsing with typed errors, factories that build working
// filters, and the save/restore image hooks.
#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <stdexcept>
#include <typeinfo>

#include "filter/filter_registry.h"

namespace upbound {
namespace {

TEST(FilterRegistry, RegistersTheFullBackendZoo) {
  const std::vector<std::string> names = FilterRegistry::instance().names();
  const std::vector<std::string> expected{
      "bitmap",    "bitmap-mt", "bitmap-blocked", "aging",     "spi",
      "naive",     "retouched", "counting",       "hierarchical"};
  EXPECT_EQ(names, expected);
  EXPECT_EQ(FilterRegistry::instance().names_joined("|"),
            "bitmap|bitmap-mt|bitmap-blocked|aging|spi|naive|retouched|"
            "counting|hierarchical");
}

TEST(FilterRegistry, FindAndAtAgreeAndUnknownNamesAreTypedErrors) {
  const FilterRegistry& registry = FilterRegistry::instance();
  EXPECT_NE(registry.find("bitmap"), nullptr);
  EXPECT_EQ(registry.find("quantum"), nullptr);
  EXPECT_EQ(&registry.at("counting"), registry.find("counting"));
  try {
    registry.at("quantum");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    // The error names the alternatives so CLI messages stay current.
    EXPECT_NE(std::string{e.what()}.find("bitmap"), std::string::npos);
    EXPECT_NE(std::string{e.what()}.find("counting"), std::string::npos);
  }
}

TEST(FilterRegistry, CapabilityBitsMatchBackendBehavior) {
  const FilterRegistry& registry = FilterRegistry::instance();
  const BackendDescriptor& bitmap = registry.at("bitmap");
  EXPECT_TRUE(bitmap.has(kCapOccupancy));
  EXPECT_TRUE(bitmap.has(kCapSnapshot));
  EXPECT_TRUE(bitmap.has(kCapSharedView));
  EXPECT_TRUE(bitmap.has(kCapPureLookup));
  EXPECT_TRUE(bitmap.has(kCapNoFalseNegative));

  // Only the plain bitmap has a state image, and kCapSnapshot is exactly
  // "registers both image hooks".
  for (const BackendDescriptor& backend : registry.descriptors()) {
    EXPECT_EQ(backend.has(kCapSnapshot), backend.name == "bitmap")
        << backend.name;
    EXPECT_EQ(backend.has(kCapSnapshot), backend.save && backend.restore)
        << backend.name;
  }
  // Only the concurrent-capable bitmaps may be shared across shards.
  for (const BackendDescriptor& backend : registry.descriptors()) {
    EXPECT_EQ(backend.has(kCapSharedView),
              backend.name == "bitmap" || backend.name == "bitmap-mt")
        << backend.name;
  }

  // Retouching deliberately trades the paper's core guarantee away.
  EXPECT_FALSE(registry.at("retouched").has(kCapNoFalseNegative));
  EXPECT_TRUE(registry.at("retouched").has(kCapOccupancy));

  // Only the word-addressed bitmaps digest keys through the batch hash
  // kernel; their verdicts must be identical with SIMD on or off (pinned
  // by the differential tests in filter_blocked_simd_test).
  for (const BackendDescriptor& backend : registry.descriptors()) {
    EXPECT_EQ(backend.has(kCapSimdBatch),
              backend.name == "bitmap" || backend.name == "bitmap-blocked")
        << backend.name;
  }

  // The aging ring has no Eq. 2 occupancy signal; SPI refreshes state on
  // lookup so its lookups are not pure.
  EXPECT_FALSE(registry.at("aging").has(kCapOccupancy));
  EXPECT_FALSE(registry.at("spi").has(kCapPureLookup));
}

TEST(FilterRegistry, NamesWithListsCapableBackendsInOrder) {
  const FilterRegistry& registry = FilterRegistry::instance();
  EXPECT_EQ(registry.names_with(kCapSnapshot), "bitmap");
  EXPECT_EQ(registry.names_with(kCapSharedView), "bitmap|bitmap-mt");
  EXPECT_EQ(registry.names_with(kCapTenancy), "hierarchical");
}

PacketRecord probe_at(double sec, bool inbound) {
  PacketRecord pkt;
  pkt.timestamp = SimTime::from_sec(sec);
  pkt.tuple = FiveTuple{Protocol::kUdp, Ipv4Addr{10, 0, 0, 9}, 6000,
                        Ipv4Addr{93, 184, 216, 34}, 6881};
  if (inbound) pkt.tuple = pkt.tuple.inverse();
  return pkt;
}

FilterSpec bitmap_spec(const std::string& bits, const std::string& dt) {
  MapFilterArgs args;
  args.set("bits", bits).set("dt", dt);
  return FilterRegistry::instance().parse("bitmap", args);
}

TEST(FilterRegistry, ImageHooksRoundTripThroughTheDescriptor) {
  const FilterSpec spec = bitmap_spec("12", "2");
  const std::unique_ptr<StateFilter> filter = make_state_filter(spec);
  filter->advance_time(SimTime::from_sec(3.0));
  filter->record_outbound(probe_at(3.0, false));

  const BackendDescriptor& bitmap = *spec.backend;
  const std::vector<std::uint8_t> image =
      bitmap.save(*filter, SimTime::from_sec(3.5));
  // The hook writes the bitmap format's bytes, unchanged.
  EXPECT_EQ(image, snapshot_bitmap_filter(
                       dynamic_cast<const BitmapFilter&>(*filter),
                       SimTime::from_sec(3.5)));

  FilterRestoreResult restored = bitmap.restore(image, std::nullopt, &spec);
  ASSERT_TRUE(restored.ok()) << snapshot_restore_error_name(restored.error);
  ASSERT_NE(restored.filter, nullptr);
  EXPECT_EQ(restored.snapshot_time, SimTime::from_sec(3.5));
  EXPECT_EQ(restored.spec.kind(), "bitmap");
  EXPECT_EQ(restored.spec.config_as<BitmapFilterConfig>().log2_bits, 12u);
  EXPECT_TRUE(restored.filter->admits_inbound(probe_at(3.6, true)));
}

TEST(FilterRegistry, ImageRestoreChecksTheExpectedGeometry) {
  const FilterSpec spec = bitmap_spec("12", "2");
  const BackendDescriptor& bitmap = *spec.backend;
  const std::vector<std::uint8_t> image =
      bitmap.save(*make_state_filter(spec), SimTime::origin());

  // dt alone may differ: the image keeps its own dt.
  const FilterSpec other_dt = bitmap_spec("12", "7");
  const FilterRestoreResult same = bitmap.restore(image, std::nullopt,
                                                  &other_dt);
  ASSERT_TRUE(same.ok());
  EXPECT_EQ(same.spec.config_as<BitmapFilterConfig>().rotate_interval,
            Duration::sec(2.0));

  // Any other difference is a typed geometry mismatch that still reports
  // what the image holds.
  const FilterSpec other_bits = bitmap_spec("14", "2");
  const FilterRestoreResult wider =
      bitmap.restore(image, std::nullopt, &other_bits);
  EXPECT_EQ(wider.error, SnapshotRestoreError::kGeometryMismatch);
  EXPECT_EQ(wider.filter, nullptr);
  EXPECT_EQ(wider.spec.config_as<BitmapFilterConfig>().log2_bits, 12u);
  EXPECT_STREQ(snapshot_restore_error_name(wider.error), "geometry-mismatch");

  // So is another backend's spec, even one with the same knobs.
  MapFilterArgs args;
  args.set("bits", "12").set("dt", "2");
  const FilterSpec blocked =
      FilterRegistry::instance().parse("bitmap-blocked", args);
  EXPECT_EQ(bitmap.restore(image, std::nullopt, &blocked).error,
            SnapshotRestoreError::kGeometryMismatch);

  // Damaged images keep their own typed reasons.
  std::vector<std::uint8_t> rotted = image;
  rotted.back() ^= 0x01;
  EXPECT_EQ(bitmap.restore(rotted, std::nullopt, &spec).error,
            SnapshotRestoreError::kCorruptCrc);
}

TEST(FilterRegistry, ImageSaveRejectsAForeignFilter) {
  const BackendDescriptor& bitmap = FilterRegistry::instance().at("bitmap");
  const std::unique_ptr<StateFilter> naive =
      make_state_filter(naive_filter_spec());
  EXPECT_THROW(bitmap.save(*naive, SimTime::origin()), std::bad_cast);
}

TEST(FilterRegistry, EveryFactoryBuildsAWorkingFilter) {
  for (const BackendDescriptor& backend :
       FilterRegistry::instance().descriptors()) {
    const FilterSpec spec = backend.parse(MapFilterArgs{});
    EXPECT_EQ(spec.backend, &backend);
    const std::unique_ptr<StateFilter> filter = make_state_filter(spec);
    ASSERT_NE(filter, nullptr) << backend.name;
    // The occupancy capability bit is exactly "occupancy_fraction()
    // returns a value".
    EXPECT_EQ(filter->occupancy_fraction().has_value(),
              backend.has(kCapOccupancy))
        << backend.name;
    // Pure-lookup capability mirrors the filter's own declaration.
    EXPECT_EQ(filter->inbound_lookup_is_pure(), backend.has(kCapPureLookup))
        << backend.name;
  }
}

TEST(FilterRegistry, ParseMapsArgumentsIntoValidatedConfigs) {
  MapFilterArgs args;
  args.set("bits", "12").set("k", "3").set("m", "2").set("dt", "2.5");
  args.set_flag("hole-punching");
  const FilterSpec spec = FilterRegistry::instance().parse("bitmap", args);
  const BitmapFilterConfig& config = spec.config_as<BitmapFilterConfig>();
  EXPECT_EQ(config.log2_bits, 12u);
  EXPECT_EQ(config.vector_count, 3u);
  EXPECT_EQ(config.hash_count, 2u);
  EXPECT_EQ(config.rotate_interval, Duration::sec(2.5));
  EXPECT_EQ(config.key_mode, KeyMode::kHolePunching);
}

TEST(FilterRegistry, BadArgumentsAreInvalidArgument) {
  MapFilterArgs garbage;
  garbage.set("bits", "not-a-number");
  EXPECT_THROW(FilterRegistry::instance().parse("bitmap", garbage),
               std::invalid_argument);

  MapFilterArgs invalid;
  invalid.set("k", "1");  // fewer than 2 vectors cannot rotate safely
  EXPECT_THROW(FilterRegistry::instance().parse("bitmap", invalid),
               std::invalid_argument);

  MapFilterArgs fraction;
  fraction.set("retouch-fraction", "0.9");  // >= 0.5 rejected
  EXPECT_THROW(FilterRegistry::instance().parse("retouched", fraction),
               std::invalid_argument);
}

TEST(FilterRegistry, ConfigAsIsTypeChecked) {
  const FilterSpec spec =
      FilterRegistry::instance().parse("counting", MapFilterArgs{});
  EXPECT_NO_THROW(spec.config_as<CountingFilterConfig>());
  EXPECT_THROW(spec.config_as<BitmapFilterConfig>(), std::logic_error);
}

TEST(FilterRegistry, GeometryAndWindowHooks) {
  const FilterRegistry& registry = FilterRegistry::instance();

  MapFilterArgs args;
  args.set("bits", "14").set("k", "4").set("m", "3").set("dt", "5");
  const FilterSpec bitmap = registry.parse("bitmap", args);
  const std::optional<FilterGeometry> geometry =
      registry.at("bitmap").geometry(bitmap);
  ASSERT_TRUE(geometry.has_value());
  EXPECT_EQ(geometry->bits, std::size_t{1} << 14);
  EXPECT_EQ(geometry->hash_count, 3u);
  EXPECT_EQ(geometry->vector_count, 4u);
  EXPECT_EQ(geometry->rotate_interval, Duration::sec(5.0));
  // Guaranteed no-FN window of a generational backend: (k-1)*dt.
  EXPECT_EQ(registry.at("bitmap").guaranteed_window(bitmap),
            Duration::sec(15.0));

  const FilterSpec counting = registry.parse("counting", args);
  EXPECT_TRUE(registry.at("counting").geometry(counting).has_value());
  EXPECT_EQ(registry.at("counting").guaranteed_window(counting),
            Duration::sec(15.0));

  // Exact-state backends have no Bloom geometry; their window is the
  // configured timeout.
  MapFilterArgs timeout;
  timeout.set("timeout", "30");
  const FilterSpec naive = registry.parse("naive", timeout);
  EXPECT_FALSE(registry.at("naive").geometry(naive).has_value());
  EXPECT_EQ(registry.at("naive").guaranteed_window(naive),
            Duration::sec(30.0));
}

TEST(FilterRegistry, TypedSpecBuildersMatchParse) {
  BitmapFilterConfig config;
  config.log2_bits = 12;
  const FilterSpec spec = bitmap_filter_spec(config);
  EXPECT_EQ(spec.kind(), "bitmap");
  EXPECT_EQ(spec.config_as<BitmapFilterConfig>().log2_bits, 12u);

  CountingFilterConfig counting;
  counting.log2_cells = 10;
  const FilterSpec counting_spec = counting_filter_spec(counting);
  EXPECT_EQ(counting_spec.kind(), "counting");
  EXPECT_EQ(counting_spec.config_as<CountingFilterConfig>().log2_cells, 10u);

  RetouchedBitmapConfig retouched;
  retouched.retouch_fraction = 0.05;
  const FilterSpec retouched_spec = retouched_filter_spec(retouched);
  EXPECT_EQ(retouched_spec.kind(), "retouched");
  EXPECT_DOUBLE_EQ(
      retouched_spec.config_as<RetouchedBitmapConfig>().retouch_fraction,
      0.05);
}

TEST(FilterArgs, TypedAccessorsFallBackAndRejectGarbage) {
  MapFilterArgs args;
  args.set("good", "2.5").set("bad", "2.5x").set("count", "7");
  EXPECT_DOUBLE_EQ(args.get_double("good", 1.0), 2.5);
  EXPECT_DOUBLE_EQ(args.get_double("absent", 1.0), 1.0);
  EXPECT_EQ(args.get_u64("count", 0), 7u);
  EXPECT_EQ(args.get_unsigned("count", 0), 7u);
  EXPECT_THROW(args.get_double("bad", 1.0), std::invalid_argument);
  EXPECT_THROW(args.get_u64("good", 0), std::invalid_argument);
}

TEST(FilterRegistry, DistinctFilterInstancesPerMakeCall) {
  // Parallel replay builds one filter per shard from the same spec; the
  // factory must never hand out shared state.
  const FilterSpec spec =
      FilterRegistry::instance().parse("counting", MapFilterArgs{});
  const auto a = make_state_filter(spec);
  const auto b = make_state_filter(spec);
  PacketRecord pkt;
  pkt.timestamp = SimTime::from_sec(1.0);
  pkt.tuple = FiveTuple{Protocol::kUdp, Ipv4Addr{140, 112, 30, 5}, 1111,
                        Ipv4Addr{8, 8, 8, 8}, 53};
  a->advance_time(pkt.timestamp);
  a->record_outbound(pkt);
  PacketRecord probe = pkt;
  probe.tuple = pkt.tuple.inverse();
  a->advance_time(probe.timestamp);
  b->advance_time(probe.timestamp);
  EXPECT_TRUE(a->admits_inbound(probe));
  EXPECT_FALSE(b->admits_inbound(probe));
}

}  // namespace
}  // namespace upbound
