// The zero-loss daemon robustness layer: UBCK checkpoint envelope
// round-trips with typed decode errors, crash-consistent generation
// management with newest-valid fallback, hot reload (byte-identical when
// the config is unchanged, typed refusal when geometry would change),
// supervised capture reattach with loss conservation, and a real
// SIGKILL -> restart -> restore recovery pass.
#include "live_harness.h"

#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <thread>

#include "fault/fault_injector.h"
#include "filter/bitmap_filter.h"
#include "filter/filter_registry.h"
#include "filter/snapshot.h"
#include "net/live/checkpointer.h"
#include "net/live/reload.h"

namespace upbound::live::testing {
namespace {

std::string temp_dir(const std::string& tag) {
  const std::string dir = ::testing::TempDir() + "upbound_" + tag + "_" +
                          std::to_string(::getpid());
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

std::string write_text(const std::string& path, const std::string& text) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  EXPECT_NE(f, nullptr);
  EXPECT_EQ(std::fwrite(text.data(), 1, text.size(), f), text.size());
  std::fclose(f);
  return path;
}

PacketRecord outbound_at(double sec, std::uint16_t src_port = 6000) {
  PacketRecord pkt;
  pkt.timestamp = SimTime::from_sec(sec);
  pkt.tuple = FiveTuple{Protocol::kUdp, Ipv4Addr{10, 0, 0, 9}, src_port,
                        Ipv4Addr{93, 184, 216, 34}, 6881};
  return pkt;
}

PacketRecord inbound_probe(double sec, std::uint16_t src_port = 6000) {
  PacketRecord pkt = outbound_at(sec, src_port);
  pkt.tuple = pkt.tuple.inverse();
  return pkt;
}

CheckpointMeta sample_meta() {
  CheckpointMeta meta;
  meta.time = SimTime::from_sec(12.5);
  meta.policy_low = 3.5e6;
  meta.policy_high = 9e6;
  meta.rotate_interval = Duration::sec(2.0);
  meta.tenant_epoch = 42;
  meta.meter_window = Duration::sec(1.0);
  return meta;
}

// ---------------------------------------------------------------------
// UBCK envelope

TEST(CheckpointEnvelope, RoundTrips) {
  BitmapFilterConfig config;
  config.log2_bits = 12;
  BitmapFilter filter{config};
  filter.advance_time(SimTime::from_sec(12.0));
  filter.record_outbound(outbound_at(12.0));
  const std::vector<std::uint8_t> snapshot =
      snapshot_bitmap_filter(filter, SimTime::from_sec(12.5));

  const CheckpointMeta meta = sample_meta();
  const std::vector<std::uint8_t> image =
      encode_checkpoint(7, meta, snapshot);
  const CheckpointDecodeResult decoded = decode_checkpoint(image);
  ASSERT_TRUE(decoded.ok()) << checkpoint_error_name(decoded.error);
  EXPECT_EQ(decoded.decoded->generation, 7u);
  EXPECT_EQ(decoded.decoded->meta.time, meta.time);
  EXPECT_DOUBLE_EQ(decoded.decoded->meta.policy_low, meta.policy_low);
  EXPECT_DOUBLE_EQ(decoded.decoded->meta.policy_high, meta.policy_high);
  EXPECT_EQ(decoded.decoded->meta.rotate_interval, meta.rotate_interval);
  EXPECT_EQ(decoded.decoded->meta.tenant_epoch, 42u);
  EXPECT_EQ(decoded.decoded->meta.meter_window, meta.meter_window);
  EXPECT_EQ(decoded.decoded->snapshot, snapshot);

  // The payload restores, and the restored filter still admits the
  // connection marked before the checkpoint.
  const BitmapRestoreResult restored =
      restore_bitmap_filter_checked(decoded.decoded->snapshot, std::nullopt);
  ASSERT_TRUE(restored.ok());
  BitmapFilter thawed = std::move(restored.restored->filter);
  EXPECT_TRUE(thawed.admits_inbound(inbound_probe(12.6)));
}

TEST(CheckpointEnvelope, TypedDecodeErrors) {
  const std::vector<std::uint8_t> snapshot(32, 0xAB);
  const std::vector<std::uint8_t> image =
      encode_checkpoint(3, sample_meta(), snapshot);

  EXPECT_EQ(decode_checkpoint({}).error, CheckpointError::kTruncated);
  EXPECT_EQ(decode_checkpoint(std::span(image).first(40)).error,
            CheckpointError::kTruncated);
  // Structurally sound header, but the payload is shorter than declared.
  EXPECT_EQ(decode_checkpoint(std::span(image).first(image.size() - 8)).error,
            CheckpointError::kTruncated);

  std::vector<std::uint8_t> magic = image;
  magic[0] ^= 0xFF;
  EXPECT_EQ(decode_checkpoint(magic).error, CheckpointError::kBadMagic);

  std::vector<std::uint8_t> version = image;
  version[4] = 0x7F;
  EXPECT_EQ(decode_checkpoint(version).error, CheckpointError::kBadVersion);

  std::vector<std::uint8_t> trailing = image;
  trailing.push_back(0);
  EXPECT_EQ(decode_checkpoint(trailing).error, CheckpointError::kBadLength);

  std::vector<std::uint8_t> rot = image;
  rot.back() ^= 0x01;  // payload bit rot
  EXPECT_EQ(decode_checkpoint(rot).error, CheckpointError::kCorruptCrc);
  std::vector<std::uint8_t> header_rot = image;
  header_rot[16] ^= 0x01;  // sim-time field bit rot
  EXPECT_EQ(decode_checkpoint(header_rot).error,
            CheckpointError::kCorruptCrc);
}

// ---------------------------------------------------------------------
// Checkpointer generations

Checkpointer::StateProvider provider_for(BitmapFilter& filter,
                                         const double* time_sec = nullptr) {
  return [&filter, time_sec](CheckpointMeta& meta) {
    const SimTime at =
        SimTime::from_sec(time_sec != nullptr ? *time_sec : 1.0);
    meta.time = at;
    meta.policy_low = 3e6;
    meta.policy_high = 6e6;
    meta.rotate_interval = filter.config().rotate_interval;
    return snapshot_bitmap_filter(filter, at);
  };
}

TEST(Checkpointer, WritesPrunesAndContinuesGenerations) {
  const std::string dir = temp_dir("ckpt_gen");
  BitmapFilterConfig config;
  config.log2_bits = 10;
  BitmapFilter filter{config};

  {
    Checkpointer ck{{dir, Duration::sec(1.0), /*keep=*/3},
                    provider_for(filter)};
    for (int i = 0; i < 5; ++i) ck.write_checkpoint();
    EXPECT_EQ(ck.generations_written(), 5u);
    EXPECT_EQ(ck.next_generation(), 6u);
  }
  // Pruned to the newest 3 generations.
  std::vector<std::string> names;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    names.push_back(entry.path().filename().string());
  }
  std::sort(names.begin(), names.end());
  ASSERT_EQ(names.size(), 3u);
  EXPECT_EQ(names[0], "checkpoint-00000003.ubck");
  EXPECT_EQ(names[2], "checkpoint-00000005.ubck");

  // A restarted checkpointer continues numbering: it never reuses (and
  // silently overwrites) a generation the previous incarnation wrote.
  Checkpointer again{{dir, Duration::sec(1.0), 3}, provider_for(filter)};
  EXPECT_EQ(again.next_generation(), 6u);
  again.write_checkpoint();
  EXPECT_TRUE(std::filesystem::exists(
      std::filesystem::path(dir) / "checkpoint-00000006.ubck"));
  std::filesystem::remove_all(dir);
}

TEST(Checkpointer, StalenessTracksNewestWrite) {
  const std::string dir = temp_dir("ckpt_stale");
  BitmapFilterConfig config;
  config.log2_bits = 10;
  BitmapFilter filter{config};
  const double at_sec = 10.0;
  Checkpointer ck{{dir, Duration::sec(1.0), 2},
                  provider_for(filter, &at_sec)};

  // Nothing written yet: a crash right now loses everything.
  EXPECT_GT(ck.staleness(SimTime::from_sec(1.0)), Duration::hours(24));
  ck.write_checkpoint();
  EXPECT_EQ(ck.staleness(SimTime::from_sec(12.5)), Duration::sec(2.5));
  EXPECT_EQ(ck.staleness(SimTime::from_sec(9.0)), Duration{});  // clamped
  std::filesystem::remove_all(dir);
}

TEST(CheckpointRestore, NewestWinsAndBadGenerationsFallBack) {
  const std::string dir = temp_dir("ckpt_fallback");
  BitmapFilterConfig config;
  config.log2_bits = 10;
  BitmapFilter filter{config};
  filter.advance_time(SimTime::from_sec(0.5));
  filter.record_outbound(outbound_at(0.5));
  Checkpointer ck{{dir, Duration::sec(1.0), 8}, provider_for(filter)};
  const std::string gen1 = ck.write_checkpoint();
  const std::string gen2 = ck.write_checkpoint();
  const std::string gen3 = ck.write_checkpoint();

  // Rot the newest generation on disk; flip one payload byte.
  {
    std::FILE* f = std::fopen(gen3.c_str(), "r+b");
    ASSERT_NE(f, nullptr);
    std::fseek(f, -1, SEEK_END);
    const int c = std::fgetc(f);
    std::fseek(f, -1, SEEK_END);
    std::fputc(c ^ 0xFF, f);
    std::fclose(f);
  }
  // Truncate generation 2 mid-payload.
  std::filesystem::resize_file(gen2, 80);

  const CheckpointRestore restore =
      restore_newest_checkpoint(dir, bitmap_filter_spec(config));
  ASSERT_TRUE(restore.ok()) << restore.report();
  EXPECT_EQ(restore.generation, 1u);
  EXPECT_EQ(restore.path, gen1);
  ASSERT_EQ(restore.skipped.size(), 2u);
  EXPECT_NE(restore.skipped[0].find("corrupt-crc"), std::string::npos)
      << restore.skipped[0];
  EXPECT_NE(restore.skipped[1].find("truncated"), std::string::npos)
      << restore.skipped[1];
  EXPECT_TRUE(restore.filter->admits_inbound(inbound_probe(0.6)));
  std::filesystem::remove_all(dir);
}

TEST(CheckpointRestore, RenamedFileIsGenerationMismatch) {
  const std::string dir = temp_dir("ckpt_rename");
  BitmapFilterConfig config;
  config.log2_bits = 10;
  BitmapFilter filter{config};
  Checkpointer ck{{dir, Duration::sec(1.0), 4}, provider_for(filter)};
  const std::string gen1 = ck.write_checkpoint();
  // Splice generation 1 in under a newer name. The embedded generation is
  // CRC-protected; the filename is not -- the mismatch is a skip, and the
  // honest generation 1 still restores.
  std::filesystem::copy_file(
      gen1, std::filesystem::path(dir) / "checkpoint-00000009.ubck");
  const CheckpointRestore restore =
      restore_newest_checkpoint(dir, bitmap_filter_spec(config));
  ASSERT_TRUE(restore.ok()) << restore.report();
  EXPECT_EQ(restore.generation, 1u);
  ASSERT_EQ(restore.skipped.size(), 1u);
  EXPECT_NE(restore.skipped[0].find("generation-mismatch"),
            std::string::npos);
  std::filesystem::remove_all(dir);
}

TEST(CheckpointRestore, AllGenerationsBadIsTypedFailure) {
  const std::string dir = temp_dir("ckpt_allbad");
  write_text(dir + "/checkpoint-00000001.ubck",
             "definitely not a checkpoint envelope, but long enough to "
             "clear the header-size gate and fail on the magic instead");
  write_text(dir + "/not-a-checkpoint.txt", "ignored entirely");
  const CheckpointRestore restore =
      restore_newest_checkpoint(dir, bitmap_filter_spec());
  EXPECT_FALSE(restore.ok());
  ASSERT_EQ(restore.skipped.size(), 1u);
  EXPECT_NE(restore.skipped[0].find("bad-magic"), std::string::npos)
      << restore.skipped[0];
  EXPECT_NE(restore.report().find("no restorable checkpoint"),
            std::string::npos)
      << restore.report();
  std::filesystem::remove_all(dir);
}

TEST(CheckpointRestore, StaleGenerationSkippedWhenNowProvided) {
  const std::string dir = temp_dir("ckpt_stale_skip");
  BitmapFilterConfig config;
  config.log2_bits = 10;
  config.rotate_interval = Duration::sec(1.0);  // T_e = k * dt = 4s
  BitmapFilter filter{config};
  const double at_sec = 1.0;
  Checkpointer ck{{dir, Duration::sec(1.0), 4},
                  provider_for(filter, &at_sec)};
  ck.write_checkpoint();

  // In-process restart far past T_e: every mark in the snapshot would
  // have expired anyway, so restoring would only fake a warm start.
  const FilterSpec spec = bitmap_filter_spec(config);
  const CheckpointRestore stale =
      restore_newest_checkpoint(dir, spec, SimTime::from_sec(60.0));
  EXPECT_FALSE(stale.ok());
  ASSERT_EQ(stale.skipped.size(), 1u);
  EXPECT_NE(stale.skipped[0].find("stale"), std::string::npos)
      << stale.skipped[0];

  // Cross-process restart (monotonic epochs not comparable): restores.
  EXPECT_TRUE(restore_newest_checkpoint(dir, spec, std::nullopt).ok());
  std::filesystem::remove_all(dir);
}

TEST(CheckpointRestore, FaultInjectedCorruptionFallsBackOneGeneration) {
  const std::string dir = temp_dir("ckpt_fault");
  BitmapFilterConfig config;
  config.log2_bits = 10;
  BitmapFilter filter{config};
  FaultInjector faults{FaultSpec::parse("checkpoint.corrupt:2"), 1};
  Checkpointer ck{{dir, Duration::sec(1.0), 4}, provider_for(filter),
                  &faults};
  ck.write_checkpoint();
  ck.write_checkpoint();  // generation 2: payload byte flipped post-CRC

  const CheckpointRestore restore =
      restore_newest_checkpoint(dir, bitmap_filter_spec(config));
  ASSERT_TRUE(restore.ok()) << restore.report();
  EXPECT_EQ(restore.generation, 1u);
  ASSERT_EQ(restore.skipped.size(), 1u);
  EXPECT_NE(restore.skipped[0].find("corrupt-crc"), std::string::npos);
  std::filesystem::remove_all(dir);
}

TEST(CheckpointRestore, RotationBoundarySnapshotRestoresWithoutDoubleRotate) {
  // The race: a checkpoint lands exactly ON a rotation boundary. The
  // restored filter must resume the schedule from that boundary -- the
  // next advance rotates exactly once at t+dt, neither re-firing the
  // boundary rotation (which would wipe fresh marks early) nor skipping
  // one (which would stretch T_e).
  const std::string dir = temp_dir("ckpt_race");
  BitmapFilterConfig config;
  config.log2_bits = 10;
  config.rotate_interval = Duration::sec(1.0);
  BitmapFilter filter{config};
  filter.advance_time(SimTime::from_sec(1.0));
  const std::uint64_t rotations_at_snapshot = filter.rotations();
  filter.record_outbound(outbound_at(1.0));

  const double at_sec = 1.0;  // checkpoint exactly at the boundary
  Checkpointer ck{{dir, Duration::sec(1.0), 2},
                  provider_for(filter, &at_sec)};
  ck.write_checkpoint();

  const CheckpointRestore restore =
      restore_newest_checkpoint(dir, bitmap_filter_spec(config));
  ASSERT_TRUE(restore.ok()) << restore.report();
  auto& thawed = dynamic_cast<BitmapFilter&>(*restore.filter);
  EXPECT_EQ(thawed.rotations(), rotations_at_snapshot);

  // Re-observing the boundary time is a no-op...
  thawed.advance_time(SimTime::from_sec(1.0));
  EXPECT_EQ(thawed.rotations(), rotations_at_snapshot);
  EXPECT_TRUE(thawed.admits_inbound(inbound_probe(1.1)));
  // ...and the next boundary rotates exactly once.
  thawed.advance_time(SimTime::from_sec(2.0));
  EXPECT_EQ(thawed.rotations(), rotations_at_snapshot + 1);
  EXPECT_TRUE(thawed.admits_inbound(inbound_probe(2.0)));
  std::filesystem::remove_all(dir);
}

// ---------------------------------------------------------------------
// Datapath fixture (checkpoint/reload/restore against a live router)

FilterSpec small_bitmap_spec(unsigned log2_bits = 14) {
  MapFilterArgs args;
  args.set("bits", std::to_string(log2_bits));
  args.set("dt", "5");
  return FilterRegistry::instance().at("bitmap").parse(args);
}

struct DatapathFixture {
  VirtualClock clock;
  EventLoop loop;
  std::unique_ptr<LiveDatapath> datapath;

  explicit DatapathFixture(const FilterSpec& spec,
                           const std::string& checkpoint_dir = "",
                           double low = 3e6, double high = 6e6) {
    UdpTapSource::Config tap_config;
    tap_config.port = 0;
    auto source = std::make_unique<UdpTapSource>(tap_config);
    LiveConfig config;
    config.clock = &clock;
    config.policy_low = low;
    config.policy_high = high;
    config.checkpoint_dir = checkpoint_dir;
    datapath = std::make_unique<LiveDatapath>(config, spec,
                                              std::move(source), loop);
  }

  StateFilter& filter() { return datapath->router().filter(); }

  void mark(double sec) {
    filter().advance_time(SimTime::from_sec(sec));
    filter().record_outbound(outbound_at(sec));
  }
  bool admits(double sec) {
    return filter().admits_inbound(inbound_probe(sec));
  }
};

TEST(LiveRestore, CheckpointVerbThenRestoreIntoFreshDatapath) {
  const std::string dir = temp_dir("live_restore");
  {
    DatapathFixture writer{small_bitmap_spec(), dir, /*low=*/2e6,
                           /*high=*/7e6};
    writer.mark(4.0);
    const ControlReply reply = writer.datapath->control_checkpoint();
    EXPECT_TRUE(reply.ok) << reply.render();
    EXPECT_NE(reply.detail.find("checkpoint-00000001.ubck"),
              std::string::npos)
        << reply.detail;
    EXPECT_EQ(writer.datapath->stats().checkpoints_written, 1u);
  }

  DatapathFixture reader{small_bitmap_spec()};
  EXPECT_FALSE(reader.admits(4.2));  // cold filter
  const CheckpointRestore restore =
      reader.datapath->restore_checkpoint_dir(dir);
  ASSERT_TRUE(restore.ok()) << restore.report();
  EXPECT_EQ(restore.generation, 1u);
  // The marking state survived the process boundary.
  EXPECT_TRUE(reader.admits(4.2));
  // So did the writer's drop-policy watermarks (reader was launched with
  // 3e6/6e6): retuning low echoes the restored 7e6 high watermark.
  const ControlReply low = reader.datapath->control_set_threshold(true, 4e6);
  ASSERT_TRUE(low.ok) << low.render();
  EXPECT_NE(low.detail.find("high=7e+06"), std::string::npos) << low.detail;
  std::filesystem::remove_all(dir);
}

TEST(LiveRestore, GeometryMismatchIsTypedSkipAndLeavesFilterUntouched) {
  const std::string dir = temp_dir("live_geo");
  {
    DatapathFixture writer{small_bitmap_spec(/*log2_bits=*/12), dir};
    writer.mark(1.0);
    EXPECT_TRUE(writer.datapath->control_checkpoint().ok);
  }
  DatapathFixture reader{small_bitmap_spec(/*log2_bits=*/14)};
  reader.mark(1.0);
  const CheckpointRestore restore =
      reader.datapath->restore_checkpoint_dir(dir);
  EXPECT_FALSE(restore.ok());
  ASSERT_FALSE(restore.skipped.empty());
  EXPECT_NE(restore.skipped.back().find("geometry-mismatch"),
            std::string::npos)
      << restore.skipped.back();
  // The running filter kept its own state.
  EXPECT_TRUE(reader.admits(1.1));
  std::filesystem::remove_all(dir);
}

TEST(LiveRestore, CheckpointingRequiresSnapshotCapableBackend) {
  const std::string dir = temp_dir("live_nocap");
  MapFilterArgs args;
  const FilterSpec naive = FilterRegistry::instance().at("naive").parse(args);
  EXPECT_THROW(DatapathFixture(naive, dir), std::invalid_argument);
  // Unarmed datapaths answer the checkpoint verb with the typed error.
  DatapathFixture unarmed{small_bitmap_spec()};
  const ControlReply reply = unarmed.datapath->control_checkpoint();
  EXPECT_FALSE(reply.ok);
  EXPECT_EQ(reply.code, "unsupported:checkpoint");
  std::filesystem::remove_all(dir);
}

TEST(LiveRestore, GeometryMismatchFallsBackToOlderMatchingGeneration) {
  const std::string dir = temp_dir("live_geo_fallback");
  {
    DatapathFixture wide{small_bitmap_spec(/*log2_bits=*/14), dir};
    wide.mark(1.0);
    EXPECT_TRUE(wide.datapath->control_checkpoint().ok);  // generation 1
  }
  {
    DatapathFixture narrow{small_bitmap_spec(/*log2_bits=*/12), dir};
    EXPECT_TRUE(narrow.datapath->control_checkpoint().ok);  // generation 2
  }
  DatapathFixture reader{small_bitmap_spec(/*log2_bits=*/14)};
  const CheckpointRestore restore =
      reader.datapath->restore_checkpoint_dir(dir);
  ASSERT_TRUE(restore.ok()) << restore.report();
  EXPECT_EQ(restore.generation, 1u);
  ASSERT_EQ(restore.skipped.size(), 1u);
  EXPECT_EQ(restore.skipped[0], "checkpoint-00000002.ubck: geometry-mismatch");
  EXPECT_TRUE(reader.admits(1.1));
  std::filesystem::remove_all(dir);
}

TEST(LiveRestore, RestoreOnBackendWithoutImageIsRefused) {
  const std::string dir = temp_dir("live_restore_nocap");
  {
    DatapathFixture writer{small_bitmap_spec(), dir};
    EXPECT_TRUE(writer.datapath->control_checkpoint().ok);
  }
  // The default datapath backend has no state image: the restore is
  // refused up front, naming the capable backends -- not reported as a
  // geometry mismatch of every generation.
  MapFilterArgs args;
  const FilterSpec blocked =
      FilterRegistry::instance().at("bitmap-blocked").parse(args);
  DatapathFixture reader{blocked};
  try {
    reader.datapath->restore_checkpoint_dir(dir);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string{e.what()}.find(
                  "snapshot-capable filter backend (supported: bitmap)"),
              std::string::npos)
        << e.what();
  }
  EXPECT_THROW(restore_newest_checkpoint(dir, blocked), std::invalid_argument);
  std::filesystem::remove_all(dir);
}

/// The metadata of the newest generation in `dir`.
CheckpointMeta newest_meta(const std::string& dir) {
  std::string newest;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    newest = std::max(newest, entry.path().string());
  }
  const auto bytes = load_snapshot_file(newest);
  EXPECT_TRUE(bytes.has_value()) << newest;
  const CheckpointDecodeResult decoded =
      decode_checkpoint(bytes.value_or(std::vector<std::uint8_t>{}));
  EXPECT_TRUE(decoded.ok()) << checkpoint_error_name(decoded.error);
  return decoded.ok() ? decoded.decoded->meta : CheckpointMeta{};
}

TEST(LiveRestore, EnvelopeDtFollowsTheRunningFilter) {
  // The envelope records the running dt: the configured one, then every
  // `set dt` and `reload` retune, and after a restore the image's own dt.
  const std::string dir = temp_dir("live_dt");
  const std::string reload_path =
      write_text(::testing::TempDir() + "reload_dt3.conf",
                 "filter bitmap\nbits 14\ndt 3\n");
  {
    DatapathFixture fx{small_bitmap_spec(), dir};
    ASSERT_TRUE(fx.datapath->control_checkpoint().ok);
    EXPECT_EQ(newest_meta(dir).rotate_interval, Duration::sec(5.0));
    ASSERT_TRUE(
        fx.datapath->control_set_rotate_interval(Duration::sec(2.0)).ok);
    ASSERT_TRUE(fx.datapath->control_checkpoint().ok);
    EXPECT_EQ(newest_meta(dir).rotate_interval, Duration::sec(2.0));
    ASSERT_TRUE(fx.datapath->reload_from_file(reload_path).ok);
    ASSERT_TRUE(fx.datapath->control_checkpoint().ok);
    EXPECT_EQ(newest_meta(dir).rotate_interval, Duration::sec(3.0));
  }
  const std::string dir2 = temp_dir("live_dt_restored");
  DatapathFixture restarted{small_bitmap_spec(), dir2};  // configured dt 5
  ASSERT_TRUE(restarted.datapath->restore_checkpoint_dir(dir).ok());
  ASSERT_TRUE(restarted.datapath->control_checkpoint().ok);
  EXPECT_EQ(newest_meta(dir2).rotate_interval, Duration::sec(3.0));
  ::unlink(reload_path.c_str());
  std::filesystem::remove_all(dir);
  std::filesystem::remove_all(dir2);
}

// ---------------------------------------------------------------------
// Hot reload

TEST(LiveReload, PolicyRetuneAppliesAtomically) {
  DatapathFixture fx{small_bitmap_spec()};
  const std::string path = write_text(
      ::testing::TempDir() + "reload_policy.conf",
      "# raise both watermarks\nlow 4e6\nhigh 9e6\n");
  const ControlReply reply = fx.datapath->reload_from_file(path);
  EXPECT_TRUE(reply.ok) << reply.render();
  EXPECT_NE(reply.detail.find("low=4e+06 high=9e+06"), std::string::npos)
      << reply.detail;
  ::unlink(path.c_str());
}

TEST(LiveReload, TypedErrorsLeaveEverythingUntouched) {
  DatapathFixture fx{small_bitmap_spec()};
  fx.mark(2.0);

  const std::string missing = ::testing::TempDir() + "reload_missing.conf";
  EXPECT_EQ(fx.datapath->reload_from_file(missing).code, "io");

  const std::string empty =
      write_text(::testing::TempDir() + "reload_empty.conf", "# nothing\n");
  EXPECT_EQ(fx.datapath->reload_from_file(empty).code, "bad-argument");

  const std::string inverted = write_text(
      ::testing::TempDir() + "reload_inv.conf", "low 9e6\nhigh 4e6\n");
  EXPECT_EQ(fx.datapath->reload_from_file(inverted).code, "bad-argument");

  const std::string orphan_args = write_text(
      ::testing::TempDir() + "reload_orphan.conf", "bits 12\n");
  EXPECT_EQ(fx.datapath->reload_from_file(orphan_args).code, "bad-argument");

  // Geometry change: typed refusal, marking state stays live.
  const std::string shrink = write_text(
      ::testing::TempDir() + "reload_shrink.conf",
      "filter bitmap\nbits 12\ndt 5\n");
  const ControlReply incompatible = fx.datapath->reload_from_file(shrink);
  EXPECT_EQ(incompatible.code, "reload-incompatible")
      << incompatible.render();

  // Backend without a snapshot format: same typed refusal.
  const std::string naive = write_text(
      ::testing::TempDir() + "reload_naive.conf", "filter naive\n");
  EXPECT_EQ(fx.datapath->reload_from_file(naive).code,
            "reload-incompatible");

  EXPECT_EQ(fx.datapath->spec().kind(), "bitmap");
  EXPECT_TRUE(fx.admits(2.1));  // filter untouched through all refusals

  for (const std::string& p : {empty, inverted, orphan_args, shrink, naive}) {
    ::unlink(p.c_str());
  }
}

TEST(LiveReload, DtRetuneMigratesStateLosslessly) {
  DatapathFixture fx{small_bitmap_spec()};
  fx.mark(4.0);
  const std::string path = write_text(
      ::testing::TempDir() + "reload_dt.conf",
      "filter bitmap\nbits 14\ndt 2\nlow 4e6\nhigh 8e6\n");
  const ControlReply reply = fx.datapath->reload_from_file(path);
  ASSERT_TRUE(reply.ok) << reply.render();
  // State survived the snapshot -> restore migration...
  EXPECT_TRUE(fx.admits(4.1));
  // ...and the new cadence is live on the swapped filter.
  auto* bitmap = dynamic_cast<BitmapFilter*>(&fx.filter());
  ASSERT_NE(bitmap, nullptr);
  EXPECT_EQ(bitmap->config().rotate_interval, Duration::sec(2.0));
  ::unlink(path.c_str());
}

/// Replays the conformance trace through a live tap datapath exactly like
/// run_live_tap, with robustness hooks: a reload applied at the midpoint
/// burst boundary, a daemon-plane fault injector, an armed health
/// monitor, and metrics-export settings.
struct RobustRunHooks {
  std::string reload_path;  // applied once, at the trace midpoint
  FaultInjector* faults = nullptr;
  bool arm_health = false;  // fail-open stance, per-batch sampling
  std::string metrics_out;
  Duration metrics_interval{};
  std::uint64_t health_outages = 0;  // out: HealthMonitor::capture_outages
};

void run_live_robust(LiveRunOutput& out, const Trace& trace,
                     const ClientNetwork& network, const FilterSpec& spec,
                     const LiveRunOptions& options, RobustRunHooks& hooks) {
  VirtualClock clock;
  EventLoop loop;
  UdpTapSource::Config tap_config;
  tap_config.port = 0;
  tap_config.timestamp_mode = TapTimestampMode::kFromFrames;
  auto source = std::make_unique<UdpTapSource>(tap_config);
  const std::uint16_t port = source->local_port();

  LiveConfig config;
  config.router = conformance_router_config(network, options);
  if (hooks.arm_health) {
    config.router.health.stance = UnhealthyStance::kFailOpen;
    config.router.health.occupancy_sample_batches = 1;
  }
  config.policy_red = options.policy_red;
  config.policy_low = options.policy_low;
  config.policy_high = options.policy_high;
  config.policy_pd = options.policy_pd;
  config.batch_max = options.batch_max;
  config.clock = &clock;
  config.faults = hooks.faults;
  config.metrics_out = hooks.metrics_out;
  config.metrics_interval = hooks.metrics_interval;

  LiveDatapath datapath{config, spec, std::move(source), loop};
  UdpTapSender sender{port};
  const auto deadline = std::chrono::steady_clock::now() + options.deadline;
  bool reloaded = hooks.reload_path.empty();

  std::uint64_t sent = 0;
  for (std::size_t start = 0; start < trace.size(); start += options.burst) {
    const std::size_t n = std::min(options.burst, trace.size() - start);
    // A capture failure in the previous burst detached the fd; wait for
    // the supervised reattach (10ms initial backoff, real timer) before
    // sending into a socket that does not exist yet.
    while (!datapath.capture_attached()) {
      loop.poll_once(1);
      ASSERT_LT(std::chrono::steady_clock::now().time_since_epoch().count(),
                deadline.time_since_epoch().count())
          << "reattach deadline";
    }
    for (std::size_t p = 0; p < n; ++p) {
      sender.send_packet(trace[start + p]);
    }
    sent += n;
    while (datapath.source().frames_received() +
               datapath.source().frames_lost() <
           sent) {
      loop.poll_once(1);
      ASSERT_LT(std::chrono::steady_clock::now().time_since_epoch().count(),
                deadline.time_since_epoch().count())
          << "pump deadline: " << datapath.source().frames_received() << "/"
          << sent;
    }
    clock.advance_to(trace[start + n - 1].timestamp);
    if (!reloaded && start + n >= trace.size() / 2) {
      const ControlReply reply = datapath.reload_from_file(hooks.reload_path);
      ASSERT_TRUE(reply.ok) << reply.render();
      reloaded = true;
    }
  }
  out.datagrams_sent = sent;
  if (const HealthMonitor* health = datapath.router().health()) {
    hooks.health_outages = health->capture_outages();
  }
  datapath.finalize();
  out.result = datapath.result();
  out.stats = datapath.stats();
  out.router_stats = datapath.router().stats();
  const SimTime end =
      trace.empty() ? SimTime::origin() : trace.back().timestamp;
  out.report = conformance_report(out.result, end);
}

TEST(LiveReload, UnchangedConfigReloadIsByteIdentical) {
  // The acceptance gate: for every snapshot-capable backend, a mid-stream
  // reload whose config matches the running one produces the exact
  // result an uninterrupted run produces -- same conformance report
  // bytes, same router stats. The quiesce/snapshot/restore/swap cycle is
  // observably a no-op.
  const GeneratedTrace& generated = conformance_trace();
  const LiveRunOptions options;
  std::size_t covered = 0;
  for (const BackendDescriptor& backend :
       FilterRegistry::instance().descriptors()) {
    if (!backend.has(kCapSnapshot)) continue;
    ++covered;
    MapFilterArgs args;
    args.set("bits", "14");
    args.set("dt", "5");
    const FilterSpec spec = backend.parse(args);

    const std::string reload_path = write_text(
        ::testing::TempDir() + "reload_same_" + backend.name + ".conf",
        "filter " + backend.name + "\nbits 14\ndt 5\n");

    const LiveRunOutput uninterrupted =
        run_live_tap(generated.packets, generated.network, spec, options);
    LiveRunOutput reloaded;
    RobustRunHooks hooks;
    hooks.reload_path = reload_path;
    run_live_robust(reloaded, generated.packets, generated.network, spec,
                    options, hooks);

    EXPECT_EQ(uninterrupted.report, reloaded.report) << backend.name;
    EXPECT_EQ(uninterrupted.router_stats.outbound_packets,
              reloaded.router_stats.outbound_packets)
        << backend.name;
    EXPECT_EQ(uninterrupted.router_stats.inbound_dropped_packets,
              reloaded.router_stats.inbound_dropped_packets)
        << backend.name;
    EXPECT_EQ(uninterrupted.stats.packets, reloaded.stats.packets)
        << backend.name;
    ::unlink(reload_path.c_str());
  }
  EXPECT_GE(covered, 1u);  // kCapSnapshot registry must not silently empty
}

// ---------------------------------------------------------------------
// Capture supervision

TEST(CaptureResilience, KillReattachesAndConservesFrames) {
  const GeneratedTrace& generated = conformance_trace();
  const LiveRunOptions options;
  const FilterSpec spec = small_bitmap_spec();

  FaultInjector faults{FaultSpec::parse("capture.kill@500"), 1};
  LiveRunOutput out;
  RobustRunHooks hooks;
  hooks.faults = &faults;
  hooks.arm_health = true;
  run_live_robust(out, generated.packets, generated.network, spec, options,
                  hooks);

  EXPECT_EQ(faults.capture_kills_taken(), 1u);
  EXPECT_EQ(out.stats.capture_failures, 1u);
  EXPECT_EQ(out.stats.capture_reattaches, 1u);
  EXPECT_GE(out.stats.capture_reattach_attempts, 1u);
  // The outage was mirrored into the health monitor and cleared again.
  EXPECT_EQ(hooks.health_outages, 1u);
  // Conservation: every datagram sent is either processed or accounted
  // lost; none silently vanish across the detach/reattach cycle.
  EXPECT_EQ(out.stats.frames + out.stats.frames_lost, out.datagrams_sent);
  // Lockstep sends nothing into the dead window, so nothing was lost and
  // the run is byte-identical to an undisturbed one -- the event loop
  // never exited and no frame was dropped on the floor. The reference
  // arms health too (an engaged monitor registers health.* counters,
  // which legitimately appear in the report); only the fault differs.
  EXPECT_EQ(out.stats.frames_lost, 0u);
  LiveRunOutput reference;
  RobustRunHooks reference_hooks;
  reference_hooks.arm_health = true;
  run_live_robust(reference, generated.packets, generated.network, spec,
                  options, reference_hooks);
  EXPECT_EQ(reference_hooks.health_outages, 0u);
  // The ONLY permitted difference from the undisturbed run is the health
  // monitor's record of the one degrade/recover cycle; every packet-path
  // counter and gauge must match byte-for-byte.
  std::string expected = reference.report;
  const std::string before =
      "\"health.transitions_degraded\":0,"
      "\"health.transitions_recovered\":0";
  const std::string after =
      "\"health.transitions_degraded\":1,"
      "\"health.transitions_recovered\":1";
  const std::size_t pos = expected.find(before);
  ASSERT_NE(pos, std::string::npos) << expected;
  expected.replace(pos, before.size(), after);
  EXPECT_EQ(out.report, expected);
}

TEST(CaptureResilience, StallBuffersAndCatchesUp) {
  const GeneratedTrace& generated = conformance_trace();
  const LiveRunOptions options;
  const FilterSpec spec = small_bitmap_spec();

  // A 40ms stall: the fd detaches but the socket stays open, so frames
  // sent during the window sit in the kernel buffer and are caught up
  // when the one-shot re-registers the fd.
  FaultInjector faults{FaultSpec::parse("capture.stall:40@500"), 1};
  LiveRunOutput out;
  RobustRunHooks hooks;
  hooks.faults = &faults;
  run_live_robust(out, generated.packets, generated.network, spec, options,
                  hooks);

  EXPECT_EQ(faults.capture_stalls_taken(), 1u);
  EXPECT_EQ(out.stats.capture_failures, 1u);
  EXPECT_EQ(out.stats.capture_reattaches, 1u);
  EXPECT_EQ(out.stats.frames, out.datagrams_sent);
  EXPECT_EQ(out.stats.frames_lost, 0u);
  const LiveRunOutput reference =
      run_live_tap(generated.packets, generated.network, spec, options);
  EXPECT_EQ(out.report, reference.report);
}

TEST(CaptureResilience, TapInjectFailureAndReattachKeepPort) {
  UdpTapSource::Config config;
  config.port = 0;
  UdpTapSource source{config};
  const std::uint16_t port = source.local_port();
  ASSERT_NE(port, 0);
  EXPECT_EQ(source.error(), 0);

  source.inject_failure();
  EXPECT_NE(source.error(), 0);
  const int fd = source.reattach();
  EXPECT_GE(fd, 0);
  EXPECT_EQ(source.error(), 0);
  EXPECT_EQ(source.local_port(), port);  // identity preserved

  // The rebuilt socket actually receives.
  UdpTapSender sender{port};
  sender.send_packet(outbound_at(1.0));
  std::uint64_t delivered = 0;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (delivered == 0 && std::chrono::steady_clock::now() < deadline) {
    delivered =
        source.drain(16, [](std::span<const std::uint8_t>, SimTime) {});
    if (delivered == 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  EXPECT_EQ(delivered, 1u);
}

// ---------------------------------------------------------------------
// Interval metrics export failure

TEST(MetricsExport, WriteFailuresAreCountedAndNonFatal) {
  if (!std::filesystem::exists("/dev/full")) {
    GTEST_SKIP() << "/dev/full not available";
  }
  const GeneratedTrace& generated = conformance_trace();
  const LiveRunOptions options;
  const FilterSpec spec = small_bitmap_spec();

  LiveRunOutput out;
  RobustRunHooks hooks;
  hooks.metrics_out = "/dev/full";
  hooks.metrics_interval = Duration::sec(1.0);
  run_live_robust(out, generated.packets, generated.network, spec, options,
                  hooks);

  // Every interval export hit ENOSPC; the datapath counted and continued.
  EXPECT_GT(out.stats.metrics_export_errors, 0u);
  EXPECT_EQ(out.stats.frames, out.datagrams_sent);
  const LiveRunOutput reference =
      run_live_tap(generated.packets, generated.network, spec, options);
  EXPECT_EQ(out.report, reference.report);
}

// ---------------------------------------------------------------------
// SIGKILL crash recovery

TEST(CrashRecovery, SigkillThenRestoreNewestGeneration) {
  const std::string dir = temp_dir("sigkill");
  ClientNetwork network;
  network.add_prefix(Cidr{Ipv4Addr{10, 0, 0, 0}, 8});

  int port_pipe[2];
  ASSERT_EQ(::pipe(port_pipe), 0);
  const pid_t child = ::fork();
  ASSERT_GE(child, 0);

  if (child == 0) {
    // Child: a checkpointing live daemon. No gtest machinery may run in
    // here -- every exit path is _exit, and SIGKILL is the expected end.
    ::close(port_pipe[0]);
    try {
      MonotonicClock clock;
      EventLoop loop;
      UdpTapSource::Config tap_config;
      tap_config.port = 0;
      tap_config.timestamp_mode = TapTimestampMode::kFromFrames;
      auto source = std::make_unique<UdpTapSource>(tap_config);
      const std::uint16_t port = source->local_port();

      LiveConfig config;
      config.clock = &clock;
      config.router.network = network;
      config.checkpoint_dir = dir;
      config.checkpoint_interval = Duration::msec(25.0);
      config.checkpoint_keep = 4;
      LiveDatapath datapath{config, small_bitmap_spec(12),
                            std::move(source), loop};
      if (::write(port_pipe[1], &port, sizeof(port)) !=
          static_cast<ssize_t>(sizeof(port))) {
        ::_exit(3);
      }
      loop.run();  // until SIGKILL
    } catch (...) {
      ::_exit(2);
    }
    ::_exit(0);
  }

  ::close(port_pipe[1]);
  std::uint16_t port = 0;
  ASSERT_EQ(::read(port_pipe[0], &port, sizeof(port)),
            static_cast<ssize_t>(sizeof(port)));
  ::close(port_pipe[0]);

  const auto newest_generation = [&dir]() {
    std::uint64_t max_gen = 0;
    std::error_code ec;
    for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
      const std::string name = entry.path().filename().string();
      unsigned long long gen = 0;
      int end = -1;
      // %n makes the match exact: a half-written "....ubck.tmp" awaiting
      // its atomic rename must not count as a published generation.
      if (std::sscanf(name.c_str(), "checkpoint-%llu.ubck%n", &gen, &end) ==
              1 &&
          end == static_cast<int>(name.size())) {
        max_gen = std::max<std::uint64_t>(max_gen, gen);
      }
    }
    return max_gen;
  };

  // Mid-traffic: send a burst the restore must prove survived the kill.
  UdpTapSender sender{port};
  for (int i = 0; i < 40; ++i) {
    sender.send_packet(outbound_at(
        1.0 + 0.01 * i, static_cast<std::uint16_t>(6000 + (i % 4))));
  }
  // Wait until two NEW generations land after the burst: the child has
  // definitely drained the frames by then (one event loop serializes
  // capture reads and checkpoint timers), so the newest checkpoint on
  // disk contains the marks.
  const std::uint64_t baseline = newest_generation();
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (newest_generation() < baseline + 2) {
    ASSERT_LT(std::chrono::steady_clock::now().time_since_epoch().count(),
              deadline.time_since_epoch().count())
        << "child never checkpointed (newest generation "
        << newest_generation() << ")";
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }

  // No orderly shutdown of any kind.
  ASSERT_EQ(::kill(child, SIGKILL), 0);
  int status = 0;
  ASSERT_EQ(::waitpid(child, &status, 0), child);
  ASSERT_TRUE(WIFSIGNALED(status));
  EXPECT_EQ(WTERMSIG(status), SIGKILL);

  // The restarted daemon's restore path: newest valid generation wins.
  DatapathFixture restarted{small_bitmap_spec(12)};
  EXPECT_FALSE(restarted.admits(1.5));
  const CheckpointRestore restore =
      restarted.datapath->restore_checkpoint_dir(dir);
  ASSERT_TRUE(restore.ok()) << restore.report();
  EXPECT_GE(restore.generation, baseline + 2);
  // A connection from the pre-kill burst is admitted by the restored
  // filter: marking state crossed the crash.
  EXPECT_TRUE(restarted.admits(1.5));
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace upbound::live::testing
