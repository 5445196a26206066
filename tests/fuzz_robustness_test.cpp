// Robustness sweeps over the untrusted-input surfaces: frame decoding,
// pcap files, and regex patterns must either produce a valid result or
// fail cleanly (nullopt / typed exception) on arbitrary bytes -- never
// crash, hang, or read out of bounds.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>

#include "filter/snapshot.h"
#include "net/headers.h"
#include "net/pcap.h"
#include "rex/regex.h"
#include "util/rng.h"

namespace upbound {
namespace {

std::vector<std::uint8_t> random_bytes(Rng& rng, std::size_t n) {
  std::vector<std::uint8_t> out(n);
  for (auto& b : out) b = static_cast<std::uint8_t>(rng.next_u64());
  return out;
}

TEST(FuzzDecodeFrame, RandomBytesNeverCrash) {
  Rng rng{20260706};
  int decoded = 0;
  for (int trial = 0; trial < 20'000; ++trial) {
    const auto frame = random_bytes(rng, rng.next_below(200));
    const auto result = decode_frame(frame, SimTime::origin());
    if (result.has_value()) ++decoded;
  }
  // Random bytes essentially never look like valid IPv4/TCP frames.
  EXPECT_LT(decoded, 10);
}

TEST(FuzzDecodeFrame, MutatedValidFramesNeverCrash) {
  Rng rng{7};
  PacketRecord pkt;
  pkt.tuple = FiveTuple{Protocol::kTcp, Ipv4Addr{10, 0, 0, 1}, 1234,
                        Ipv4Addr{8, 8, 8, 8}, 80};
  pkt.payload = {1, 2, 3, 4, 5, 6, 7, 8};
  pkt.payload_size = 8;
  const auto base = encode_frame(pkt);
  for (int trial = 0; trial < 20'000; ++trial) {
    auto frame = base;
    // 1-4 random byte mutations anywhere in the frame.
    const int mutations = 1 + static_cast<int>(rng.next_below(4));
    for (int m = 0; m < mutations; ++m) {
      frame[rng.next_below(frame.size())] =
          static_cast<std::uint8_t>(rng.next_u64());
    }
    // Random truncation half the time.
    if (rng.next_bool(0.5)) {
      frame.resize(rng.next_below(frame.size() + 1));
    }
    (void)decode_frame(frame, SimTime::origin());  // must not crash
  }
}

class FuzzPcap : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = (std::filesystem::temp_directory_path() /
             "upbound_fuzz_pcap.pcap")
                .string();
  }
  void TearDown() override { std::remove(path_.c_str()); }
  std::string path_;
};

TEST_F(FuzzPcap, GarbageBodiesFailCleanly) {
  Rng rng{99};
  const std::uint8_t valid_header[24] = {0xd4, 0xc3, 0xb2, 0xa1, 2, 0, 4, 0,
                                         0,    0,    0,    0,    0, 0, 0, 0,
                                         0xff, 0xff, 0,    0,    1, 0, 0, 0};
  for (int trial = 0; trial < 300; ++trial) {
    {
      std::FILE* f = std::fopen(path_.c_str(), "wb");
      ASSERT_NE(f, nullptr);
      std::fwrite(valid_header, 1, sizeof(valid_header), f);
      const auto body = random_bytes(rng, rng.next_below(2000));
      std::fwrite(body.data(), 1, body.size(), f);
      std::fclose(f);
    }
    try {
      PcapReader reader{path_};
      while (reader.next().has_value()) {
      }
    } catch (const PcapError&) {
      // Clean failure is acceptable; crashing or hanging is not.
    }
  }
}

TEST_F(FuzzPcap, GarbageGlobalHeadersFailCleanly) {
  Rng rng{101};
  for (int trial = 0; trial < 300; ++trial) {
    {
      std::FILE* f = std::fopen(path_.c_str(), "wb");
      ASSERT_NE(f, nullptr);
      const auto bytes = random_bytes(rng, rng.next_below(64));
      // An empty vector's data() may be null, which fwrite must not get.
      if (!bytes.empty()) std::fwrite(bytes.data(), 1, bytes.size(), f);
      std::fclose(f);
    }
    try {
      PcapReader reader{path_};
      while (reader.next().has_value()) {
      }
    } catch (const PcapError&) {
    }
  }
}

TEST(FuzzRegex, RandomPatternsParseOrThrow) {
  Rng rng{13};
  static constexpr char kChars[] =
      "abcAB09()[]{}|*+?.^$\\-,xdswSDW ";
  int compiled = 0;
  for (int trial = 0; trial < 5'000; ++trial) {
    std::string pattern;
    const std::size_t len = rng.next_below(24);
    for (std::size_t i = 0; i < len; ++i) {
      pattern += kChars[rng.next_below(sizeof(kChars) - 1)];
    }
    try {
      const rex::Regex re{pattern, {.ignore_case = rng.next_bool(0.5)}};
      ++compiled;
      // Matching random inputs must terminate and not crash.
      const auto input = random_bytes(rng, rng.next_below(64));
      (void)re.search(input);
    } catch (const rex::ParseError&) {
      // Fine: malformed pattern rejected with a typed error.
    }
  }
  EXPECT_GT(compiled, 500);  // plenty of random patterns are valid
}

TEST(FuzzRegex, DeepNestingBoundedByParser) {
  // Pathological nesting either compiles (and runs in linear time) or is
  // rejected; it must not blow the stack.
  std::string deep;
  for (int i = 0; i < 2000; ++i) deep += "(a";
  for (int i = 0; i < 2000; ++i) deep += ")*";
  try {
    const rex::Regex re{deep};
    EXPECT_TRUE(re.search("aaaa"));
  } catch (const rex::ParseError&) {
  }
}

TEST(FuzzRegex, HugeCountedRepeatRejected) {
  EXPECT_THROW(rex::Regex{"(ab){100000}"}, rex::ParseError);
  EXPECT_THROW(rex::Regex{"a{999999999999}"}, rex::ParseError);
}

TEST(FuzzSnapshot, RandomBytesNeverRestore) {
  Rng rng{20260805};
  for (int trial = 0; trial < 5'000; ++trial) {
    const auto bytes = random_bytes(rng, rng.next_below(512));
    const auto result = restore_bitmap_filter_checked(bytes);
    // Random bytes essentially never carry the magic + a valid config;
    // whatever happens, the failure must be a typed reason, not a crash.
    EXPECT_FALSE(result.ok());
    EXPECT_NE(result.error, SnapshotRestoreError::kNone);
  }
}

TEST(FuzzSnapshot, MutatedAndTruncatedSnapshotsFailCleanly) {
  BitmapFilterConfig config;
  config.log2_bits = 12;
  config.vector_count = 4;
  config.hash_count = 3;
  config.rotate_interval = Duration::sec(2.0);
  BitmapFilter filter{config};
  Rng fill{5};
  for (int i = 0; i < 500; ++i) {
    PacketRecord pkt;
    pkt.timestamp = SimTime::from_sec(static_cast<double>(i) * 0.01);
    pkt.tuple = FiveTuple{Protocol::kTcp,
                          Ipv4Addr{static_cast<std::uint32_t>(
                              0x0a000000u + fill.next_below(256))},
                          static_cast<std::uint16_t>(1024 + i),
                          Ipv4Addr{8, 8, 8, 8}, 80};
    filter.record_outbound(pkt);
  }
  const auto base = snapshot_bitmap_filter(filter, SimTime::from_sec(5.0));

  Rng rng{31337};
  int crc_caught = 0;
  for (int trial = 0; trial < 5'000; ++trial) {
    auto bytes = base;
    const int mutations = 1 + static_cast<int>(rng.next_below(4));
    for (int m = 0; m < mutations; ++m) {
      bytes[rng.next_below(bytes.size())] =
          static_cast<std::uint8_t>(rng.next_u64());
    }
    if (rng.next_bool(0.5)) {
      bytes.resize(rng.next_below(bytes.size() + 1));
    }
    auto result = restore_bitmap_filter_checked(bytes);  // no crash
    if (result.ok()) {
      // The payload CRC turns every effective bit flip into a typed
      // failure, so a restore can only succeed when the mutations
      // happened to rewrite the bytes they replaced.
      EXPECT_EQ(bytes, base);
      PacketRecord probe;
      probe.timestamp = SimTime::from_sec(5.0);
      probe.tuple = FiveTuple{Protocol::kTcp, Ipv4Addr{8, 8, 8, 8}, 80,
                              Ipv4Addr{10, 0, 0, 1}, 1024};
      (void)result.restored->filter.admits_inbound(probe);
    } else if (result.error == SnapshotRestoreError::kCorruptCrc) {
      ++crc_caught;
    }
  }
  // Most mutations hit the large vector payload, which carries no header
  // structure to violate -- only the CRC catches those.
  EXPECT_GT(crc_caught, 0);
}

}  // namespace
}  // namespace upbound
