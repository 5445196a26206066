#include <gtest/gtest.h>

#include <vector>

#include "analyzer/conn_table.h"
#include "trace/campus.h"
#include "util/rng.h"

namespace upbound {
namespace {

FiveTuple tuple() {
  return FiveTuple{Protocol::kTcp, Ipv4Addr{140, 112, 30, 9}, 40000,
                   Ipv4Addr{8, 8, 8, 8}, 80};
}

PacketRecord pkt(const FiveTuple& t, double t_sec, TcpFlags flags = {},
                 std::uint32_t payload = 0) {
  PacketRecord p;
  p.timestamp = SimTime::from_sec(t_sec);
  p.tuple = t;
  p.flags = flags;
  p.payload_size = payload;
  return p;
}

TEST(StreamBuf, AppendsUpToCap) {
  StreamBuf buf{8};
  const std::uint8_t a[] = {1, 2, 3, 4, 5};
  EXPECT_EQ(buf.append(a), 5u);
  EXPECT_EQ(buf.append(a), 3u);  // only 3 bytes of room left
  EXPECT_TRUE(buf.at_capacity());
  EXPECT_EQ(buf.size(), 8u);
  EXPECT_EQ(buf.bytes()[5], 1);
}

TEST(StreamBuf, DiscardReleasesMemory) {
  StreamBuf buf;
  const std::uint8_t a[64] = {};
  buf.append(a);
  buf.discard();
  EXPECT_EQ(buf.size(), 0u);
}

TEST(ConnTable, CreatesRecordOnFirstPacket) {
  ConnTable table;
  const auto& rec =
      table.update(pkt(tuple(), 1.0, {.syn = true}), Direction::kOutbound);
  EXPECT_EQ(rec.tuple, tuple());
  EXPECT_TRUE(rec.saw_syn);
  EXPECT_EQ(rec.first_direction, Direction::kOutbound);
  EXPECT_EQ(rec.first_packet_time, SimTime::from_sec(1.0));
  EXPECT_EQ(table.size(), 1u);
}

TEST(ConnTable, BothDirectionsShareOneRecord) {
  ConnTable table;
  table.update(pkt(tuple(), 1.0, {.syn = true}), Direction::kOutbound);
  table.update(pkt(tuple().inverse(), 1.1, {.syn = true, .ack = true}),
               Direction::kInbound);
  EXPECT_EQ(table.size(), 1u);
  const ConnectionRecord* rec = table.find(tuple());
  ASSERT_NE(rec, nullptr);
  EXPECT_EQ(rec->packets_from_initiator, 1u);
  EXPECT_EQ(rec->packets_to_initiator, 1u);
  EXPECT_EQ(table.find(tuple().inverse()), rec);
}

TEST(ConnTable, ByteCountersUseWireSize) {
  ConnTable table;
  table.update(pkt(tuple(), 1.0, {.ack = true}, 100), Direction::kOutbound);
  const ConnectionRecord* rec = table.find(tuple());
  ASSERT_NE(rec, nullptr);
  EXPECT_EQ(rec->bytes_from_initiator, 100u + 54u);  // payload + headers
}

TEST(ConnTable, CloseTimeFromFin) {
  ConnTable table;
  table.update(pkt(tuple(), 1.0, {.syn = true}), Direction::kOutbound);
  table.update(pkt(tuple(), 5.0, {.ack = true, .fin = true}),
               Direction::kOutbound);
  // Later packets do not move the close time.
  table.update(pkt(tuple().inverse(), 6.0, {.ack = true, .fin = true}),
               Direction::kInbound);
  const ConnectionRecord* rec = table.find(tuple());
  ASSERT_TRUE(rec->closed);
  EXPECT_EQ(rec->close_time, SimTime::from_sec(5.0));
  EXPECT_EQ(rec->lifetime(), Duration::sec(4.0));
}

TEST(ConnTable, RstAlsoCloses) {
  ConnTable table;
  table.update(pkt(tuple(), 1.0, {.syn = true}), Direction::kOutbound);
  table.update(pkt(tuple(), 2.5, {.rst = true}), Direction::kOutbound);
  const ConnectionRecord* rec = table.find(tuple());
  ASSERT_TRUE(rec->closed);
  EXPECT_EQ(rec->lifetime(), Duration::sec(1.5));
}

TEST(ConnTable, MidStreamCaptureHasNoSyn) {
  ConnTable table;
  table.update(pkt(tuple(), 1.0, {.ack = true}, 500), Direction::kOutbound);
  EXPECT_FALSE(table.find(tuple())->saw_syn);
}

TEST(ConnTable, LastPacketTimeTracksLatest) {
  ConnTable table;
  table.update(pkt(tuple(), 1.0, {.syn = true}), Direction::kOutbound);
  table.update(pkt(tuple(), 9.0, {.ack = true}), Direction::kOutbound);
  EXPECT_EQ(table.find(tuple())->last_packet_time, SimTime::from_sec(9.0));
}

TEST(ConnTable, ForEachVisitsAllRecords) {
  ConnTable table;
  for (std::uint16_t p = 1; p <= 10; ++p) {
    FiveTuple t = tuple();
    t.src_port = p;
    table.update(pkt(t, 1.0, {.syn = true}), Direction::kOutbound);
  }
  int visited = 0;
  table.for_each([&](const ConnectionRecord&) { ++visited; });
  EXPECT_EQ(visited, 10);
}

// for_each visits connections in the order the table first saw them, so
// on a time-sorted trace first_packet_time never decreases.
TEST(ConnTable, ForEachVisitsInFirstPacketOrder) {
  CampusTraceConfig config;
  config.duration = Duration::sec(10.0);
  config.connections_per_sec = 60.0;
  config.bandwidth_bps = 2e6;
  config.seed = 23;
  const GeneratedTrace trace = generate_campus_trace(config);
  ASSERT_TRUE(is_time_sorted(trace.packets));

  ConnTable table;
  std::vector<FiveTuple> first_seen;
  for (const PacketRecord& p : trace.packets) {
    const std::size_t before = table.size();
    table.update(p, trace.network.classify(p));
    if (table.size() != before) first_seen.push_back(p.tuple);
  }
  ASSERT_EQ(table.size(), trace.connection_count);

  std::vector<FiveTuple> visited;
  SimTime previous;
  table.for_each([&](const ConnectionRecord& rec) {
    if (!visited.empty()) {
      EXPECT_GE(rec.first_packet_time, previous);
    }
    previous = rec.first_packet_time;
    visited.push_back(rec.tuple);
  });
  EXPECT_EQ(visited, first_seen);
}

// Connections are found from either side, across every growth of the
// table, and absent tuples are not.
TEST(ConnTable, ManyConnectionsFoundFromBothSides) {
  ConnTable table;
  Rng rng{31};
  std::vector<FiveTuple> tuples;
  for (int i = 0; i < 20000; ++i) {
    FiveTuple t{rng.next_bool(0.5) ? Protocol::kTcp : Protocol::kUdp,
                Ipv4Addr{static_cast<std::uint32_t>(rng.next_u64())},
                static_cast<std::uint16_t>(rng.next_below(65536)),
                Ipv4Addr{static_cast<std::uint32_t>(rng.next_u64())},
                static_cast<std::uint16_t>(rng.next_below(65536))};
    // Half the connections open from the responder's side.
    table.update(pkt(rng.next_bool(0.5) ? t : t.inverse(), 1.0),
                 Direction::kOutbound);
    tuples.push_back(t);
  }
  ASSERT_EQ(table.size(), tuples.size());
  for (const FiveTuple& t : tuples) {
    const ConnectionRecord* rec = table.find(t);
    ASSERT_NE(rec, nullptr);
    EXPECT_EQ(table.find(t.inverse()), rec);
    EXPECT_EQ(rec->tuple.canonical(), t.canonical());
  }
  FiveTuple absent = tuples.front();
  absent.protocol = absent.protocol == Protocol::kTcp ? Protocol::kUdp
                                                      : Protocol::kTcp;
  EXPECT_EQ(table.find(absent), nullptr);
  ++absent.src_port;
  EXPECT_EQ(table.find(absent.inverse()), nullptr);
}

TEST(ConnectionRecord, ToStringMentionsAppAndMethod) {
  ConnTable table;
  auto& rec = table.update(pkt(tuple(), 1.0, {.syn = true}),
                           Direction::kOutbound);
  rec.app = AppProtocol::kBitTorrent;
  rec.method = ClassifyMethod::kPattern;
  const std::string s = rec.to_string();
  EXPECT_NE(s.find("bittorrent"), std::string::npos);
  EXPECT_NE(s.find("pattern"), std::string::npos);
}

TEST(ClassifyMethodName, AllNamed) {
  EXPECT_STREQ(classify_method_name(ClassifyMethod::kNone), "none");
  EXPECT_STREQ(classify_method_name(ClassifyMethod::kPattern), "pattern");
  EXPECT_STREQ(classify_method_name(ClassifyMethod::kPort), "port");
  EXPECT_STREQ(classify_method_name(ClassifyMethod::kEndpointMemo),
               "endpoint-memo");
  EXPECT_STREQ(classify_method_name(ClassifyMethod::kFtpData), "ftp-data");
}

}  // namespace
}  // namespace upbound
