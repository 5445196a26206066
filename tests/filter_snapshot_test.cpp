#include "filter/snapshot.h"

#include <gtest/gtest.h>

#include "net/live/checkpointer.h"
#include "util/hash.h"
#include "util/rng.h"

namespace upbound {
namespace {

BitmapFilterConfig small_config() {
  BitmapFilterConfig config;
  config.log2_bits = 14;
  config.vector_count = 4;
  config.hash_count = 3;
  config.rotate_interval = Duration::sec(5.0);
  return config;
}

FiveTuple tuple_n(std::uint32_t n) {
  return FiveTuple{Protocol::kTcp, Ipv4Addr{0x0a000000u + n},
                   static_cast<std::uint16_t>(1024 + n % 60000),
                   Ipv4Addr{0x3d000000u + n * 7919u},
                   static_cast<std::uint16_t>(80 + n % 40000)};
}

PacketRecord pkt_of(const FiveTuple& t, double t_sec = 0.0) {
  PacketRecord pkt;
  pkt.timestamp = SimTime::from_sec(t_sec);
  pkt.tuple = t;
  return pkt;
}

TEST(Snapshot, RoundTripPreservesEveryDecision) {
  BitmapFilter original{small_config()};
  Rng rng{1};
  double t = 0.0;
  for (int i = 0; i < 3000; ++i) {
    t += rng.exponential(0.01);
    original.advance_time(SimTime::from_sec(t));
    original.record_outbound(
        pkt_of(tuple_n(static_cast<std::uint32_t>(rng.next_below(800))), t));
  }

  const auto snapshot = snapshot_bitmap_filter(original, SimTime::from_sec(t));
  auto restored = restore_bitmap_filter_checked(snapshot).restored;
  ASSERT_TRUE(restored.has_value());
  EXPECT_EQ(restored->snapshot_time, SimTime::from_sec(t));
  EXPECT_EQ(restored->filter.current_index(), original.current_index());
  EXPECT_EQ(restored->filter.rotations(), original.rotations());
  EXPECT_DOUBLE_EQ(restored->filter.current_utilization(),
                   original.current_utilization());

  // Every lookup agrees, hits and misses alike.
  for (std::uint32_t n = 0; n < 2000; ++n) {
    PacketRecord probe = pkt_of(tuple_n(n), t);
    probe.tuple = probe.tuple.inverse();
    ASSERT_EQ(original.admits_inbound(probe),
              restored->filter.admits_inbound(probe))
        << "divergence at tuple " << n;
  }
}

TEST(Snapshot, RestoredFilterContinuesRotating) {
  BitmapFilter original{small_config()};
  original.advance_time(SimTime::from_sec(7.0));  // one rotation done
  original.record_outbound(pkt_of(tuple_n(1), 7.0));

  const auto snapshot =
      snapshot_bitmap_filter(original, SimTime::from_sec(7.0));
  auto restored = restore_bitmap_filter_checked(snapshot).restored;
  ASSERT_TRUE(restored.has_value());

  // Both filters, advanced identically, expire the mark at the same time.
  for (double t = 8.0; t <= 30.0; t += 1.0) {
    original.advance_time(SimTime::from_sec(t));
    restored->filter.advance_time(SimTime::from_sec(t));
    PacketRecord probe = pkt_of(tuple_n(1), t);
    probe.tuple = probe.tuple.inverse();
    ASSERT_EQ(original.admits_inbound(probe),
              restored->filter.admits_inbound(probe))
        << "divergence at t=" << t;
  }
}

TEST(Snapshot, ConfigEmbedded) {
  BitmapFilterConfig config = small_config();
  config.key_mode = KeyMode::kHolePunching;
  config.hash_seed = 12345;
  BitmapFilter filter{config};
  const auto snapshot = snapshot_bitmap_filter(filter, SimTime::origin());
  auto restored = restore_bitmap_filter_checked(snapshot).restored;
  ASSERT_TRUE(restored.has_value());
  EXPECT_EQ(restored->filter.config().key_mode, KeyMode::kHolePunching);
  EXPECT_EQ(restored->filter.config().hash_seed, 12345u);
  EXPECT_EQ(restored->filter.config().log2_bits, 14u);
}

TEST(Snapshot, SizeIsHeaderPlusBits) {
  BitmapFilter filter{small_config()};
  const auto snapshot = snapshot_bitmap_filter(filter, SimTime::origin());
  EXPECT_EQ(snapshot.size(), 72u + 4u * (1u << 14) / 8u);  // 72-byte header
}

TEST(Snapshot, MalformedRejected) {
  BitmapFilter filter{small_config()};
  auto snapshot = snapshot_bitmap_filter(filter, SimTime::origin());

  auto bad_magic = snapshot;
  bad_magic[0] ^= 0xff;
  EXPECT_FALSE(restore_bitmap_filter_checked(bad_magic).ok());

  auto bad_version = snapshot;
  bad_version[4] = 99;
  EXPECT_FALSE(restore_bitmap_filter_checked(bad_version).ok());

  auto truncated = snapshot;
  truncated.resize(truncated.size() / 2);
  EXPECT_FALSE(restore_bitmap_filter_checked(truncated).ok());

  auto trailing = snapshot;
  trailing.push_back(0);
  EXPECT_FALSE(restore_bitmap_filter_checked(trailing).ok());

  EXPECT_FALSE(restore_bitmap_filter_checked({}).ok());
}

TEST(Snapshot, InsaneConfigRejected) {
  BitmapFilter filter{small_config()};
  auto snapshot = snapshot_bitmap_filter(filter, SimTime::origin());
  snapshot[8] = 200;  // log2_bits = 200: config validation must refuse
  EXPECT_FALSE(restore_bitmap_filter_checked(snapshot).ok());
}

TEST(Snapshot, CheckedRestoreNamesTheFailure) {
  BitmapFilter filter{small_config()};
  const auto snapshot = snapshot_bitmap_filter(filter, SimTime::origin());

  auto bad_magic = snapshot;
  bad_magic[0] ^= 0xff;
  EXPECT_EQ(restore_bitmap_filter_checked(bad_magic).error,
            SnapshotRestoreError::kBadMagic);

  auto bad_version = snapshot;
  bad_version[4] = 99;
  EXPECT_EQ(restore_bitmap_filter_checked(bad_version).error,
            SnapshotRestoreError::kBadVersion);

  auto bad_config = snapshot;
  bad_config[8] = 200;
  EXPECT_EQ(restore_bitmap_filter_checked(bad_config).error,
            SnapshotRestoreError::kBadConfig);

  auto bad_index = snapshot;
  bad_index[40] = 7;  // current index byte; vector_count is 4
  EXPECT_EQ(restore_bitmap_filter_checked(bad_index).error,
            SnapshotRestoreError::kBadRotationIndex);

  // next_rotation forged to INT64_MIN usec: restoring would wedge the
  // first advance_time() in a rotate-per-dt loop across the gap.
  auto bad_schedule = snapshot;
  for (std::size_t i = 44; i < 52; ++i) bad_schedule[i] = 0;
  bad_schedule[51] = 0x80;
  EXPECT_EQ(restore_bitmap_filter_checked(bad_schedule).error,
            SnapshotRestoreError::kBadRotationTime);

  auto truncated = snapshot;
  truncated.resize(truncated.size() / 2);
  EXPECT_EQ(restore_bitmap_filter_checked(truncated).error,
            SnapshotRestoreError::kTruncated);
  EXPECT_EQ(restore_bitmap_filter_checked({}).error,
            SnapshotRestoreError::kTruncated);

  auto trailing = snapshot;
  trailing.push_back(0);
  EXPECT_EQ(restore_bitmap_filter_checked(trailing).error,
            SnapshotRestoreError::kTrailingBytes);

  const auto good = restore_bitmap_filter_checked(snapshot);
  EXPECT_TRUE(good.ok());
  EXPECT_EQ(good.error, SnapshotRestoreError::kNone);
  ASSERT_TRUE(good.restored.has_value());
}

TEST(Snapshot, StaleSnapshotRejectedWithGap) {
  BitmapFilter filter{small_config()};
  const SimTime taken = SimTime::from_sec(100.0);
  filter.advance_time(taken);  // clock caught up, as after a real replay
  const auto snapshot = snapshot_bitmap_filter(filter, taken);
  const Duration te = small_config().expiry_timer();  // 4 * 5s

  // Inside T_e the restore succeeds, even right at the edge.
  EXPECT_TRUE(restore_bitmap_filter_checked(snapshot, taken).ok());
  EXPECT_TRUE(restore_bitmap_filter_checked(snapshot, taken + te).ok());

  // Past T_e every mark has expired: typed rejection with the gap size.
  const auto stale =
      restore_bitmap_filter_checked(snapshot, taken + te + Duration::sec(1.0));
  EXPECT_FALSE(stale.ok());
  EXPECT_EQ(stale.error, SnapshotRestoreError::kStale);
  EXPECT_EQ(stale.staleness, te + Duration::sec(1.0));
  EXPECT_STREQ(snapshot_restore_error_name(stale.error),
               "stale (older than T_e)");

  // Without a `now` the staleness check is skipped (legacy behaviour).
  EXPECT_TRUE(restore_bitmap_filter_checked(snapshot).ok());
}

/// A seeded bitmap filter on a non-default geometry (bits, k, m, dt,
/// hash seed, hole-punching keys) after several rotations.
BitmapFilter golden_filter() {
  BitmapFilterConfig config;
  config.log2_bits = 12;
  config.vector_count = 5;
  config.hash_count = 4;
  config.rotate_interval = Duration::sec(2.5);
  config.hash_seed = 0x5eedf00dULL;
  config.key_mode = KeyMode::kHolePunching;
  BitmapFilter filter{config};
  Rng rng{7};
  double t = 0.0;
  for (int i = 0; i < 1500; ++i) {
    t += rng.exponential(0.01);
    filter.advance_time(SimTime::from_sec(t));
    filter.record_outbound(
        pkt_of(tuple_n(static_cast<std::uint32_t>(rng.next_below(600))), t));
  }
  return filter;
}

// The image bytes are a compatibility contract: files written by older
// builds must restore in newer ones. These goldens lock the UBMF v2
// image and the UBCK v1 envelope byte for byte (length + CRC-32).
TEST(Snapshot, BitmapImageBytesAreLocked) {
  const BitmapFilter filter = golden_filter();
  ASSERT_GT(filter.rotations(), 3u);
  const auto image = snapshot_bitmap_filter(filter, SimTime::from_sec(15.0));
  EXPECT_EQ(image.size(), 72u + 5u * (1u << 12) / 8u);
  EXPECT_EQ(crc32(image), 0xaa7492e8u);
}

TEST(Snapshot, CheckpointEnvelopeBytesAreLocked) {
  const auto image =
      snapshot_bitmap_filter(golden_filter(), SimTime::from_sec(15.0));
  live::CheckpointMeta meta;
  meta.time = SimTime::from_sec(15.0);
  meta.policy_low = 1.5e6;
  meta.policy_high = 6e6;
  meta.rotate_interval = Duration::sec(2.5);
  meta.tenant_epoch = 3;
  meta.meter_window = Duration::sec(1.0);
  const auto envelope = live::encode_checkpoint(42, meta, image);
  EXPECT_EQ(envelope.size(), 76u + image.size());
  EXPECT_EQ(crc32(envelope), 0x06a0dfadu);
}

}  // namespace
}  // namespace upbound
