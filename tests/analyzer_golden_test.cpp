// Golden outputs of the traffic analyzer on a small seeded campus trace
// plus one hand-built FTP PASV exchange, at T_e = 600 s and T_e = 2 s.
// Every figure the report carries is locked: connection and protocol
// tables, each CDF's samples (count + digest of the sorted values), the
// lifetime summary, the out-in tracker's counters, the classifier's memo
// and FTP-data hits, every connection's (tuple, app, method), and the
// multiset of exported NetFlow v5 records. Iteration order is not locked:
// connection-level digests sort by canonical tuple first, and the Welford
// mean (whose rounding depends on the order samples arrive in) is checked
// to 1e-12 relative.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <string>
#include <tuple>
#include <vector>

#include "analyzer/analyzer.h"
#include "analyzer/netflow.h"
#include "trace/campus.h"
#include "util/hash.h"

namespace upbound {
namespace {

const FiveTuple kFtpControl{Protocol::kTcp, Ipv4Addr{140, 112, 30, 7}, 40021,
                            Ipv4Addr{61, 2, 3, 4}, 21};
// "227 Entering Passive Mode (61,2,3,4,195,80)" announces port 50000.
const FiveTuple kFtpData{Protocol::kTcp, Ipv4Addr{140, 112, 30, 7}, 40022,
                         Ipv4Addr{61, 2, 3, 4}, 50000};

PacketRecord tcp(const FiveTuple& tuple, SimTime t, TcpFlags flags,
                 const std::string& payload = {}) {
  PacketRecord pkt;
  pkt.timestamp = t;
  pkt.tuple = tuple;
  pkt.flags = flags;
  pkt.payload.assign(payload.begin(), payload.end());
  pkt.payload_size = static_cast<std::uint32_t>(payload.size());
  return pkt;
}

/// The campus trace, then an FTP control connection whose PASV reply
/// announces the data connection that follows it.
const GeneratedTrace& golden_trace() {
  static const GeneratedTrace trace = [] {
    CampusTraceConfig config;
    config.duration = Duration::sec(30.0);
    config.connections_per_sec = 60.0;
    config.bandwidth_bps = 4e6;
    config.seed = 19;
    GeneratedTrace t = generate_campus_trace(config);
    SimTime at = t.packets.back().timestamp;
    const auto next = [&at] { return at = at + Duration::sec(0.01); };
    const FiveTuple c = kFtpControl;
    const FiveTuple d = kFtpData;
    t.packets.push_back(tcp(c, next(), {.syn = true}));
    t.packets.push_back(tcp(c.inverse(), next(), {.syn = true, .ack = true}));
    t.packets.push_back(tcp(c, next(), {.ack = true}));
    t.packets.push_back(tcp(c.inverse(), next(), {.ack = true, .psh = true},
                            "220 golden FTP server ready\r\n"));
    t.packets.push_back(
        tcp(c, next(), {.ack = true, .psh = true}, "PASV\r\n"));
    t.packets.push_back(
        tcp(c.inverse(), next(), {.ack = true, .psh = true},
            "227 Entering Passive Mode (61,2,3,4,195,80)\r\n"));
    t.packets.push_back(tcp(d, next(), {.syn = true}));
    t.packets.push_back(tcp(d.inverse(), next(), {.syn = true, .ack = true}));
    t.packets.push_back(tcp(d.inverse(), next(), {.ack = true, .psh = true},
                            std::string(700, 'x')));
    t.packets.push_back(tcp(d, next(), {.ack = true, .fin = true}));
    t.packets.push_back(tcp(c, next(), {.ack = true, .fin = true}));
    return t;
  }();
  return trace;
}

std::uint64_t digest_u64(std::uint64_t h, std::uint64_t v) {
  std::uint8_t bytes[8];
  for (int i = 0; i < 8; ++i) bytes[i] = static_cast<std::uint8_t>(v >> 8 * i);
  return fnv1a64(bytes, h);
}

std::uint64_t digest_samples(const CdfBuilder& cdf) {
  std::uint64_t h = fnv1a64({});
  for (const double x : cdf.sorted()) {
    std::uint64_t bits;
    std::memcpy(&bits, &x, sizeof(bits));
    h = digest_u64(h, bits);
  }
  return h;
}

std::uint64_t digest_tuple(std::uint64_t h, const FiveTuple& t) {
  h = digest_u64(h, static_cast<std::uint64_t>(t.protocol));
  h = digest_u64(h, (std::uint64_t{t.src_addr.value()} << 16) | t.src_port);
  return digest_u64(h, (std::uint64_t{t.dst_addr.value()} << 16) | t.dst_port);
}

auto tuple_order(const FiveTuple& t) {
  return std::make_tuple(static_cast<int>(t.protocol), t.src_addr.value(),
                         t.src_port, t.dst_addr.value(), t.dst_port);
}

/// (canonical tuple, app, method) of every connection, sorted by tuple.
std::uint64_t digest_connections(const ConnTable& table) {
  struct Row {
    FiveTuple tuple;
    AppProtocol app;
    ClassifyMethod method;
  };
  std::vector<Row> rows;
  table.for_each([&](const ConnectionRecord& rec) {
    rows.push_back({rec.tuple.canonical(), rec.app, rec.method});
  });
  std::sort(rows.begin(), rows.end(), [](const Row& a, const Row& b) {
    return tuple_order(a.tuple) < tuple_order(b.tuple);
  });
  std::uint64_t h = fnv1a64({});
  for (const Row& row : rows) {
    h = digest_tuple(h, row.tuple);
    h = digest_u64(h, static_cast<std::uint64_t>(row.app));
    h = digest_u64(h, static_cast<std::uint64_t>(row.method));
  }
  return h;
}

auto flow_order(const FlowRecordV5& f) {
  return std::make_tuple(f.src_addr.value(), f.dst_addr.value(), f.src_port,
                         f.dst_port, f.protocol, f.first_ms, f.last_ms,
                         f.packets, f.octets, f.tcp_flags);
}

struct NetflowMultiset {
  std::size_t records = 0;
  std::uint64_t digest = 0;
};

/// The exported records, decoded back and sorted: export order is not
/// part of what is locked here.
NetflowMultiset netflow_multiset(const ConnTable& table) {
  std::vector<FlowRecordV5> flows;
  for (const auto& packet : export_netflow_v5(table)) {
    const auto decoded = decode_netflow_v5(packet);
    EXPECT_TRUE(decoded.has_value());
    if (!decoded) continue;
    flows.insert(flows.end(), decoded->records.begin(),
                 decoded->records.end());
  }
  std::sort(flows.begin(), flows.end(),
            [](const FlowRecordV5& a, const FlowRecordV5& b) {
              return flow_order(a) < flow_order(b);
            });
  std::uint64_t h = fnv1a64({});
  for (const FlowRecordV5& f : flows) {
    h = digest_u64(h, (std::uint64_t{f.src_addr.value()} << 32) |
                          f.dst_addr.value());
    h = digest_u64(h, (std::uint64_t{f.src_port} << 24) |
                          (std::uint64_t{f.dst_port} << 8) | f.protocol);
    h = digest_u64(h, (std::uint64_t{f.first_ms} << 32) | f.last_ms);
    h = digest_u64(h, (std::uint64_t{f.packets} << 32) | f.octets);
    h = digest_u64(h, f.tcp_flags);
  }
  return {flows.size(), h};
}

struct CdfRow {
  std::size_t count;
  std::uint64_t digest;
};

struct GoldenRow {
  double te_sec;
  std::uint64_t total_connections;
  const char* protocol_table;
  // Port CDFs in PortClass order: ALL, P2P, Non-P2P, UNKNOWN.
  CdfRow tcp_ports[4];
  CdfRow udp_ports[4];
  CdfRow lifetimes;
  std::size_t lifetime_count;
  double lifetime_min;
  double lifetime_max;
  double lifetime_mean;
  CdfRow out_in;
  std::uint64_t expired_pairs;
  std::size_t tracked_pairs;
  std::uint64_t memo_hits;
  std::uint64_t ftp_data_hits;
  std::uint64_t connections_digest;
  NetflowMultiset netflow;
};

void PrintTo(const GoldenRow& row, std::ostream* os) {
  *os << "T_e " << row.te_sec << " s";
}

constexpr const char* kProtocolTable =
    "| Protocol   | Connections | Utilization |\n"
    "|------------|-------------|-------------|\n"
    "| UNKNOWN    |      17.82% |      26.14% |\n"
    "| edonkey    |      21.75% |      22.53% |\n"
    "| gnutella   |       7.53% |      19.55% |\n"
    "| bittorrent |      47.98% |      19.01% |\n"
    "| Others     |       0.77% |       5.25% |\n"
    "| HTTP       |       2.16% |       4.89% |\n"
    "| FTP        |       0.55% |       2.59% |\n"
    "| DNS        |       1.44% |       0.03% |\n";

class AnalyzerGolden : public ::testing::TestWithParam<GoldenRow> {};

TEST_P(AnalyzerGolden, ReportMatchesLockedOutputs) {
  const GoldenRow& row = GetParam();
  const GeneratedTrace& trace = golden_trace();
  AnalyzerConfig config;
  config.network = trace.network;
  config.out_in_expiry = Duration::sec(row.te_sec);
  TrafficAnalyzer analyzer{config};
  // The analyzer's own tracker is private: a second one fed the same
  // directions exposes its counters.
  OutInDelayTracker tracker{config.out_in_expiry};
  for (const PacketRecord& pkt : trace.packets) {
    analyzer.process(pkt);
    const Direction dir = config.network.classify(pkt);
    if (dir == Direction::kOutbound || dir == Direction::kInbound) {
      tracker.on_packet(pkt, dir);
    }
  }
  const AnalyzerReport report = analyzer.finish();

  EXPECT_EQ(report.total_connections, row.total_connections);
  EXPECT_EQ(report.protocol_table(), row.protocol_table);
  const PortClass classes[] = {PortClass::kAll, PortClass::kP2p,
                               PortClass::kNonP2p, PortClass::kUnknown};
  for (int i = 0; i < 4; ++i) {
    SCOPED_TRACE(port_class_name(classes[i]));
    const CdfBuilder& tcp_cdf = report.tcp_port_cdf.at(classes[i]);
    EXPECT_EQ(tcp_cdf.count(), row.tcp_ports[i].count);
    EXPECT_EQ(digest_samples(tcp_cdf), row.tcp_ports[i].digest);
    const CdfBuilder& udp_cdf = report.udp_port_cdf.at(classes[i]);
    EXPECT_EQ(udp_cdf.count(), row.udp_ports[i].count);
    EXPECT_EQ(digest_samples(udp_cdf), row.udp_ports[i].digest);
  }
  EXPECT_EQ(report.lifetimes.count(), row.lifetimes.count);
  EXPECT_EQ(digest_samples(report.lifetimes), row.lifetimes.digest);
  EXPECT_EQ(report.lifetime_summary.count(), row.lifetime_count);
  EXPECT_EQ(report.lifetime_summary.min(), row.lifetime_min);
  EXPECT_EQ(report.lifetime_summary.max(), row.lifetime_max);
  EXPECT_NEAR(report.lifetime_summary.mean(), row.lifetime_mean,
              1e-12 * row.lifetime_mean);

  EXPECT_EQ(report.out_in_delays.count(), row.out_in.count);
  EXPECT_EQ(digest_samples(report.out_in_delays), row.out_in.digest);
  EXPECT_EQ(tracker.delays().count(), row.out_in.count);
  EXPECT_EQ(digest_samples(tracker.delays()), row.out_in.digest);
  EXPECT_EQ(tracker.expired_pairs(), row.expired_pairs);
  EXPECT_EQ(tracker.tracked_pairs(), row.tracked_pairs);

  EXPECT_EQ(analyzer.classifier().memo_hits(), row.memo_hits);
  EXPECT_EQ(analyzer.classifier().ftp_data_hits(), row.ftp_data_hits);
  EXPECT_GT(row.ftp_data_hits, 0u);
  EXPECT_EQ(digest_connections(analyzer.connections()),
            row.connections_digest);
  const NetflowMultiset netflow = netflow_multiset(analyzer.connections());
  EXPECT_EQ(netflow.records, row.netflow.records);
  EXPECT_EQ(netflow.digest, row.netflow.digest);
}

INSTANTIATE_TEST_SUITE_P(
    LockedRows, AnalyzerGolden,
    ::testing::Values(
        // T_e = 600 s: no pair outlives the timer inside the trace.
        GoldenRow{600.0, 1807, kProtocolTable,
                  {{569, 0xe5d85836cc6c1d93ULL},
                   {411, 0x9e0b300c02930f12ULL},
                   {63, 0x35a489189bd5b5d3ULL},
                   {95, 0xb4a79f5765daf3e2ULL}},
                  {{2476, 0xb44ac935177828c3ULL},
                   {1970, 0xdee3a73281c57ca1ULL},
                   {52, 0xbdc9d206fa49780aULL},
                   {454, 0x07ca2a6c83476620ULL}},
                  {569, 0x3e35c9bffddab8c3ULL},
                  569, 0.029999999999999999, 135.549543, 13.288914666080844,
                  {15841, 0x34541f1353caea72ULL}, 0, 1693, 164, 5,
                  0x267d942426e8a081ULL, {3382, 0x83ff974ecab01f49ULL}},
        // T_e = 2 s: nearly every pair expires, and 46 samples go with them.
        GoldenRow{2.0, 1807, kProtocolTable,
                  {{569, 0xe5d85836cc6c1d93ULL},
                   {411, 0x9e0b300c02930f12ULL},
                   {63, 0x35a489189bd5b5d3ULL},
                   {95, 0xb4a79f5765daf3e2ULL}},
                  {{2476, 0xb44ac935177828c3ULL},
                   {1970, 0xdee3a73281c57ca1ULL},
                   {52, 0xbdc9d206fa49780aULL},
                   {454, 0x07ca2a6c83476620ULL}},
                  {569, 0x3e35c9bffddab8c3ULL},
                  569, 0.029999999999999999, 135.549543, 13.288914666080844,
                  {15795, 0xbd12c0a34e377731ULL}, 1767, 3, 164, 5,
                  0x267d942426e8a081ULL, {3382, 0x83ff974ecab01f49ULL}}));

// Every 97th packet moved 1.5 s back, as a rewritten capture would: the
// analyzer counts each packet whose timestamp is below the highest one
// before it, and counts none on the time-sorted trace.
TEST(AnalyzerOutOfOrder, CountsRegressedTimestamps) {
  const GeneratedTrace& trace = golden_trace();
  TrafficAnalyzer sorted{trace.network};
  for (const PacketRecord& pkt : trace.packets) sorted.process(pkt);
  EXPECT_EQ(sorted.out_of_order_packets(), 0u);
  EXPECT_EQ(sorted.finish().out_of_order_packets, 0u);

  Trace reordered = trace.packets;
  std::uint64_t moved = 0;
  for (std::size_t i = 40; i < reordered.size(); i += 97, ++moved) {
    reordered[i].timestamp = reordered[i].timestamp - Duration::sec(1.5);
  }
  ASSERT_EQ(moved, 376u);
  TrafficAnalyzer analyzer{trace.network};
  for (const PacketRecord& pkt : reordered) analyzer.process(pkt);
  // The trace is dense enough that every moved packet lands below its
  // predecessor; the packet after it is above the running maximum again.
  EXPECT_EQ(analyzer.out_of_order_packets(), moved);
  EXPECT_EQ(analyzer.finish().out_of_order_packets, moved);
}

}  // namespace
}  // namespace upbound
