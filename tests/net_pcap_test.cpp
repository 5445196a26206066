#include "net/pcap.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>

namespace upbound {
namespace {

class PcapTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = (std::filesystem::temp_directory_path() /
             ("upbound_pcap_test_" +
              std::to_string(::testing::UnitTest::GetInstance()
                                 ->random_seed()) +
              "_" + ::testing::UnitTest::GetInstance()
                        ->current_test_info()
                        ->name() +
              ".pcap"))
                .string();
  }
  void TearDown() override { std::remove(path_.c_str()); }

  std::string path_;
};

PacketRecord make_packet(double t_sec, std::uint16_t sport, bool tcp = true) {
  PacketRecord pkt;
  pkt.timestamp = SimTime::from_sec(t_sec);
  pkt.tuple = FiveTuple{tcp ? Protocol::kTcp : Protocol::kUdp,
                        Ipv4Addr{10, 1, 1, 1}, sport, Ipv4Addr{8, 8, 4, 4},
                        443};
  pkt.flags.ack = tcp;
  pkt.payload = {1, 2, 3, 4, 5};
  pkt.payload_size = 5;
  return pkt;
}

TEST_F(PcapTest, WriteReadRoundTrip) {
  Trace trace;
  for (int i = 0; i < 10; ++i) {
    trace.push_back(make_packet(i * 0.5, static_cast<std::uint16_t>(1000 + i),
                                i % 2 == 0));
  }
  {
    PcapWriter writer{path_};
    writer.write_all(trace);
    EXPECT_EQ(writer.packets_written(), 10u);
  }
  PcapReader reader{path_};
  const Trace got = reader.read_all();
  ASSERT_EQ(got.size(), 10u);
  EXPECT_EQ(reader.packets_read(), 10u);
  EXPECT_EQ(reader.frames_skipped(), 0u);
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].timestamp, trace[i].timestamp);
    EXPECT_EQ(got[i].tuple, trace[i].tuple);
    EXPECT_EQ(got[i].payload, trace[i].payload);
    EXPECT_EQ(got[i].payload_size, trace[i].payload_size);
  }
}

TEST_F(PcapTest, StrippedPayloadRecordsTrueLength) {
  PacketRecord pkt = make_packet(1.0, 2000);
  pkt.payload_size = 1400;  // only 5 bytes captured
  {
    PcapWriter writer{path_};
    writer.write(pkt);
  }
  PcapReader reader{path_};
  const auto got = reader.next();
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->payload_size, 1400u);
  EXPECT_EQ(got->payload.size(), 5u);
  EXPECT_FALSE(reader.next().has_value());
}

TEST_F(PcapTest, SnaplenTruncatesCapturedBytes) {
  PacketRecord pkt = make_packet(1.0, 2000);
  pkt.payload.assign(100, 0xAA);
  pkt.payload_size = 100;
  {
    PcapWriter writer{path_, /*snaplen=*/14 + 20 + 20 + 10};
    writer.write(pkt);
  }
  PcapReader reader{path_};
  const auto got = reader.next();
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->payload_size, 100u);
  EXPECT_EQ(got->payload.size(), 10u);
}

TEST_F(PcapTest, EmptyFileYieldsNoPackets) {
  { PcapWriter writer{path_}; }
  PcapReader reader{path_};
  EXPECT_FALSE(reader.next().has_value());
}

TEST_F(PcapTest, MissingFileThrows) {
  EXPECT_THROW(PcapReader{"/nonexistent/nowhere.pcap"}, PcapError);
}

TEST_F(PcapTest, UnwritableFileThrows) {
  EXPECT_THROW(PcapWriter{"/nonexistent/nowhere.pcap"}, PcapError);
}

TEST_F(PcapTest, BadMagicRejected) {
  {
    std::FILE* f = std::fopen(path_.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    const char garbage[24] = "not a pcap file at all";
    std::fwrite(garbage, 1, sizeof(garbage), f);
    std::fclose(f);
  }
  EXPECT_THROW(PcapReader{path_}, PcapError);
}

TEST_F(PcapTest, TruncatedHeaderRejected) {
  {
    std::FILE* f = std::fopen(path_.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    const std::uint8_t partial[4] = {0xd4, 0xc3, 0xb2, 0xa1};
    std::fwrite(partial, 1, sizeof(partial), f);
    std::fclose(f);
  }
  EXPECT_THROW(PcapReader{path_}, PcapError);
}

TEST_F(PcapTest, GlobalHeaderFieldsWellFormed) {
  { PcapWriter writer{path_}; }
  std::FILE* f = std::fopen(path_.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  std::uint8_t hdr[24];
  ASSERT_EQ(std::fread(hdr, 1, sizeof(hdr), f), sizeof(hdr));
  std::fclose(f);
  // Little-endian microsecond magic.
  EXPECT_EQ(hdr[0], 0xd4);
  EXPECT_EQ(hdr[1], 0xc3);
  EXPECT_EQ(hdr[2], 0xb2);
  EXPECT_EQ(hdr[3], 0xa1);
  EXPECT_EQ(hdr[4], 2);  // version 2.4
  EXPECT_EQ(hdr[6], 4);
  EXPECT_EQ(hdr[20], 1);  // LINKTYPE_ETHERNET
}

TEST_F(PcapTest, LargeTimestampsPreserved) {
  PacketRecord pkt = make_packet(0, 1);
  pkt.timestamp = SimTime::from_usec(7'654'321'123'456LL);  // ~88 days
  {
    PcapWriter writer{path_};
    writer.write(pkt);
  }
  PcapReader reader{path_};
  const auto got = reader.next();
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->timestamp, pkt.timestamp);
}

// The record stores seconds as a uint32: times outside [0, 2^32) s are
// refused instead of wrapping (-1.5 s would read back at about 2^32 s,
// -0.25 s at about 4 295 s), and both ends of the range round-trip.
TEST_F(PcapTest, TimestampsOutsideTheUint32SecondsRangeAreRefused) {
  {
    PcapWriter writer{path_};
    for (const double t : {-1.5, -0.25}) {
      PacketRecord pkt = make_packet(0, 1);
      pkt.timestamp = SimTime::from_sec(t);
      EXPECT_THROW(writer.write(pkt), PcapError) << t;
    }
    PacketRecord late = make_packet(0, 1);
    late.timestamp = SimTime::from_usec((std::int64_t{1} << 32) * 1'000'000);
    EXPECT_THROW(writer.write(late), PcapError);
    EXPECT_EQ(writer.packets_written(), 0u);
  }
  PcapReader reader{path_};
  EXPECT_FALSE(reader.next().has_value());
}

TEST_F(PcapTest, BothEndsOfTheSecondsRangeRoundTrip) {
  const SimTime ends[] = {
      SimTime::origin(),
      SimTime::from_usec(((std::int64_t{1} << 32) - 1) * 1'000'000)};
  {
    PcapWriter writer{path_};
    for (const SimTime t : ends) {
      PacketRecord pkt = make_packet(0, 1);
      pkt.timestamp = t;
      writer.write(pkt);
    }
  }
  PcapReader reader{path_};
  for (const SimTime t : ends) {
    const auto got = reader.next();
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(got->timestamp, t);
  }
}

}  // namespace
}  // namespace upbound
