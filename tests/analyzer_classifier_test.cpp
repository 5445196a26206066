// Classifier behaviour: pattern phase, port fallback, P2P endpoint memo,
// and FTP data-channel tracking, including the ablation toggles.
#include "analyzer/classifier.h"

#include <gtest/gtest.h>

#include "analyzer/conn_table.h"
#include "trace/payloads.h"

namespace upbound {
namespace {

class ClassifierTest : public ::testing::Test {
 protected:
  PacketRecord pkt(const FiveTuple& t, double t_sec, TcpFlags flags,
                   payloads::Bytes payload = {}) {
    PacketRecord p;
    p.timestamp = SimTime::from_sec(t_sec);
    p.tuple = t;
    p.flags = flags;
    p.payload_size = static_cast<std::uint32_t>(payload.size());
    p.payload = std::move(payload);
    return p;
  }

  // Feeds a packet through table + classifier; returns the record.
  ConnectionRecord& feed(const PacketRecord& p, Direction dir) {
    ConnectionRecord& rec = table_.update(p, dir);
    classifier_.observe(rec, p);
    return rec;
  }

  // Opens a TCP connection (SYN / SYN-ACK / ACK) at t_sec.
  void open_tcp(const FiveTuple& t, double t_sec) {
    feed(pkt(t, t_sec, {.syn = true}), Direction::kOutbound);
    feed(pkt(t.inverse(), t_sec + 0.05, {.syn = true, .ack = true}),
         Direction::kInbound);
    feed(pkt(t, t_sec + 0.051, {.ack = true}), Direction::kOutbound);
  }

  ConnTable table_;
  Classifier classifier_;
  Rng rng_{3};
  FiveTuple tcp_{Protocol::kTcp, Ipv4Addr{140, 112, 30, 5}, 40000,
                 Ipv4Addr{61, 2, 3, 4}, 23456};
};

TEST_F(ClassifierTest, PatternIdentifiesBittorrentAfterHandshakePayload) {
  open_tcp(tcp_, 0.0);
  auto& rec = feed(pkt(tcp_, 0.1, {.ack = true, .psh = true},
                       payloads::bittorrent_handshake(rng_)),
                   Direction::kOutbound);
  EXPECT_EQ(rec.app, AppProtocol::kBitTorrent);
  EXPECT_EQ(rec.method, ClassifyMethod::kPattern);
  EXPECT_TRUE(rec.classification_final);
}

TEST_F(ClassifierTest, ConcatenatedStreamMatchesAcrossPackets) {
  // Split the BT handshake across two data packets: the signature only
  // completes in the concatenated stream.
  open_tcp(tcp_, 0.0);
  payloads::Bytes hs = payloads::bittorrent_handshake(rng_);
  payloads::Bytes first(hs.begin(), hs.begin() + 10);
  payloads::Bytes second(hs.begin() + 10, hs.end());
  auto& rec1 = feed(pkt(tcp_, 0.1, {.ack = true}, std::move(first)),
                    Direction::kOutbound);
  EXPECT_EQ(rec1.app, AppProtocol::kUnknown);
  auto& rec2 = feed(pkt(tcp_, 0.2, {.ack = true}, std::move(second)),
                    Direction::kOutbound);
  EXPECT_EQ(rec2.app, AppProtocol::kBitTorrent);
}

TEST_F(ClassifierTest, PatternBudgetFourDataPackets) {
  open_tcp(tcp_, 0.0);
  for (int i = 0; i < 4; ++i) {
    feed(pkt(tcp_, 0.1 + i * 0.1, {.ack = true},
             payloads::random_bytes(rng_, 40)),
         Direction::kOutbound);
  }
  const ConnectionRecord* rec = table_.find(tcp_);
  ASSERT_NE(rec, nullptr);
  EXPECT_TRUE(rec->classification_final);
  // A fifth packet carrying a real signature changes nothing.
  auto& after = feed(pkt(tcp_, 0.9, {.ack = true},
                         payloads::bittorrent_handshake(rng_)),
                     Direction::kOutbound);
  EXPECT_EQ(after.app, AppProtocol::kUnknown);
}

TEST_F(ClassifierTest, PortFallbackWhenPatternsFail) {
  FiveTuple http = tcp_;
  http.dst_port = 8080;
  open_tcp(http, 0.0);
  for (int i = 0; i < 4; ++i) {
    feed(pkt(http, 0.1 + i * 0.1, {.ack = true},
             payloads::random_bytes(rng_, 40)),
         Direction::kOutbound);
  }
  const ConnectionRecord* rec = table_.find(http);
  EXPECT_EQ(rec->app, AppProtocol::kHttp);
  EXPECT_EQ(rec->method, ClassifyMethod::kPort);
}

TEST_F(ClassifierTest, MidStreamTcpSkipsPatterns) {
  // No SYN captured: the paper's analyzer does not attempt patterns.
  auto& rec = feed(pkt(tcp_, 0.0, {.ack = true},
                       payloads::bittorrent_handshake(rng_)),
                   Direction::kOutbound);
  EXPECT_NE(rec.method, ClassifyMethod::kPattern);
  EXPECT_TRUE(rec.classification_final);
}

TEST_F(ClassifierTest, UdpDatagramsExaminedDirectly) {
  FiveTuple udp{Protocol::kUdp, Ipv4Addr{140, 112, 30, 5}, 40000,
                Ipv4Addr{61, 2, 3, 4}, 9999};
  auto& rec =
      feed(pkt(udp, 0.0, {}, payloads::edonkey_udp_ping(rng_)),
           Direction::kOutbound);
  EXPECT_EQ(rec.app, AppProtocol::kEdonkey);
  EXPECT_EQ(rec.method, ClassifyMethod::kPattern);
}

TEST_F(ClassifierTest, FinalizeAppliesPortFallbackToShortFlows) {
  FiveTuple dns{Protocol::kUdp, Ipv4Addr{140, 112, 30, 5}, 40000,
                Ipv4Addr{8, 8, 8, 8}, 53};
  auto& rec = feed(pkt(dns, 0.0, {}, payloads::dns_query(rng_)),
                   Direction::kOutbound);
  EXPECT_EQ(rec.app, AppProtocol::kUnknown);  // one datagram, budget open
  classifier_.finalize(rec);
  EXPECT_EQ(rec.app, AppProtocol::kDns);
  EXPECT_EQ(rec.method, ClassifyMethod::kPort);
}

TEST_F(ClassifierTest, EndpointMemoLabelsFutureConnections) {
  // First connection to the peer identified by pattern.
  open_tcp(tcp_, 0.0);
  feed(pkt(tcp_, 0.1, {.ack = true}, payloads::bittorrent_handshake(rng_)),
       Direction::kOutbound);
  EXPECT_EQ(classifier_.memo_size(), 1u);

  // A second connection from a different client to the same B:y is
  // labeled immediately, before any payload.
  FiveTuple second = tcp_;
  second.src_addr = Ipv4Addr{140, 112, 30, 77};
  second.src_port = 51000;
  auto& rec = feed(pkt(second, 5.0, {.syn = true}), Direction::kOutbound);
  EXPECT_EQ(rec.app, AppProtocol::kBitTorrent);
  EXPECT_EQ(rec.method, ClassifyMethod::kEndpointMemo);
  EXPECT_EQ(classifier_.memo_hits(), 1u);
}

TEST_F(ClassifierTest, MemoKeyedOnServiceEndpointNotClient) {
  open_tcp(tcp_, 0.0);
  feed(pkt(tcp_, 0.1, {.ack = true}, payloads::bittorrent_handshake(rng_)),
       Direction::kOutbound);

  // Connection to a DIFFERENT service port on the same host: no memo hit.
  FiveTuple other = tcp_;
  other.src_port = 51001;
  other.dst_port = 23457;
  auto& rec = feed(pkt(other, 5.0, {.syn = true}), Direction::kOutbound);
  EXPECT_EQ(rec.method, ClassifyMethod::kNone);
}

TEST_F(ClassifierTest, MemoDisabledByConfig) {
  ClassifierConfig config;
  config.enable_endpoint_memo = false;
  Classifier classifier{config};

  ConnectionRecord& rec1 =
      table_.update(pkt(tcp_, 0.0, {.syn = true}), Direction::kOutbound);
  classifier.observe(rec1, pkt(tcp_, 0.0, {.syn = true}));
  const PacketRecord bt = pkt(tcp_, 0.1, {.ack = true},
                              payloads::bittorrent_handshake(rng_));
  ConnectionRecord& rec2 = table_.update(bt, Direction::kOutbound);
  classifier.observe(rec2, bt);
  EXPECT_EQ(rec2.app, AppProtocol::kBitTorrent);
  EXPECT_EQ(classifier.memo_size(), 0u);
}

TEST_F(ClassifierTest, FtpControlAnnouncesDataConnection) {
  FiveTuple control = tcp_;
  control.dst_port = 21;
  open_tcp(control, 0.0);
  // Banner identifies the connection as FTP.
  auto& rec = feed(pkt(control.inverse(), 0.2, {.ack = true, .psh = true},
                       payloads::ftp_banner()),
                   Direction::kInbound);
  EXPECT_EQ(rec.app, AppProtocol::kFtp);

  // PASV reply announces the data endpoint.
  feed(pkt(control.inverse(), 1.0, {.ack = true, .psh = true},
           payloads::ftp_pasv_response(control.dst_addr, 51234)),
       Direction::kInbound);

  // The matching data connection is pre-labeled on its SYN.
  FiveTuple data = control;
  data.src_port = 40001;
  data.dst_port = 51234;
  auto& data_rec = feed(pkt(data, 2.0, {.syn = true}), Direction::kOutbound);
  EXPECT_EQ(data_rec.app, AppProtocol::kFtp);
  EXPECT_EQ(data_rec.method, ClassifyMethod::kFtpData);
  EXPECT_EQ(classifier_.ftp_data_hits(), 1u);
}

TEST_F(ClassifierTest, FtpPortCommandAlsoTracked) {
  FiveTuple control = tcp_;
  control.dst_port = 21;
  open_tcp(control, 0.0);
  feed(pkt(control.inverse(), 0.2, {.ack = true}, payloads::ftp_banner()),
       Direction::kInbound);
  // Active mode: the CLIENT announces its own listening endpoint.
  feed(pkt(control, 1.0, {.ack = true},
           payloads::ftp_port_command(control.src_addr, 45000)),
       Direction::kOutbound);

  FiveTuple data{Protocol::kTcp, control.dst_addr, 20, control.src_addr,
                 45000};
  auto& data_rec = feed(pkt(data, 2.0, {.syn = true}), Direction::kInbound);
  EXPECT_EQ(data_rec.app, AppProtocol::kFtp);
  EXPECT_EQ(data_rec.method, ClassifyMethod::kFtpData);
}

TEST_F(ClassifierTest, FtpExpectationExpires) {
  ClassifierConfig config;
  config.ftp_expect_ttl = Duration::sec(10.0);
  Classifier classifier{config};

  FiveTuple control = tcp_;
  control.dst_port = 21;
  auto feed2 = [&](const PacketRecord& p, Direction d) -> ConnectionRecord& {
    ConnectionRecord& r = table_.update(p, d);
    classifier.observe(r, p);
    return r;
  };
  feed2(pkt(control, 0.0, {.syn = true}), Direction::kOutbound);
  feed2(pkt(control.inverse(), 0.1, {.ack = true}, payloads::ftp_banner()),
        Direction::kInbound);
  feed2(pkt(control.inverse(), 0.2, {.ack = true},
            payloads::ftp_pasv_response(control.dst_addr, 52000)),
        Direction::kInbound);

  // Data connection arrives after the TTL: not labeled as FTP data.
  FiveTuple data = control;
  data.src_port = 40002;
  data.dst_port = 52000;
  auto& rec = feed2(pkt(data, 30.0, {.syn = true}), Direction::kOutbound);
  EXPECT_NE(rec.method, ClassifyMethod::kFtpData);
}

// An announced endpoint is valid for exactly ftp_expect_ttl: a data
// connection 1 us before the TTL runs out is FTP data, one at the TTL is
// not.
TEST_F(ClassifierTest, FtpExpectationLastsExactlyItsTtl) {
  ClassifierConfig config;
  config.ftp_expect_ttl = Duration::sec(10.0);
  Classifier classifier{config};
  auto feed2 = [&](const PacketRecord& p, Direction d) -> ConnectionRecord& {
    ConnectionRecord& r = table_.update(p, d);
    classifier.observe(r, p);
    return r;
  };
  FiveTuple control = tcp_;
  control.dst_port = 21;
  feed2(pkt(control, 0.0, {.syn = true}), Direction::kOutbound);
  feed2(pkt(control.inverse(), 0.1, {.ack = true}, payloads::ftp_banner()),
        Direction::kInbound);
  PacketRecord pasv =
      pkt(control.inverse(), 0.0, {.ack = true},
          payloads::ftp_pasv_response(control.dst_addr, 52000));
  const SimTime announced = SimTime::from_sec(0.2);
  pasv.timestamp = announced;
  feed2(pasv, Direction::kInbound);

  FiveTuple data = control;
  data.dst_port = 52000;
  data.src_port = 40002;
  PacketRecord early = pkt(data, 0.0, {.syn = true});
  early.timestamp = announced + config.ftp_expect_ttl - Duration::usec(1);
  EXPECT_EQ(feed2(early, Direction::kOutbound).method,
            ClassifyMethod::kFtpData);
  data.src_port = 40003;
  PacketRecord late = pkt(data, 0.0, {.syn = true});
  late.timestamp = announced + config.ftp_expect_ttl;
  EXPECT_NE(feed2(late, Direction::kOutbound).method,
            ClassifyMethod::kFtpData);
  EXPECT_EQ(classifier.ftp_data_hits(), 1u);
}

TEST(Classifier, NonPositiveFtpExpectTtlThrows) {
  for (const Duration ttl : {Duration{}, Duration::sec(-1.0)}) {
    ClassifierConfig config;
    config.ftp_expect_ttl = ttl;
    EXPECT_THROW(Classifier{config}, std::invalid_argument);
  }
}

TEST_F(ClassifierTest, PatternsDisabledFallsStraightToPorts) {
  ClassifierConfig config;
  config.enable_patterns = false;
  Classifier classifier{config};
  FiveTuple http = tcp_;
  http.dst_port = 80;
  const PacketRecord syn = pkt(http, 0.0, {.syn = true});
  ConnectionRecord& rec = table_.update(syn, Direction::kOutbound);
  classifier.observe(rec, syn);
  const PacketRecord data =
      pkt(http, 0.1, {.ack = true}, payloads::bittorrent_handshake(rng_));
  table_.update(data, Direction::kOutbound);
  classifier.observe(rec, data);
  EXPECT_EQ(rec.app, AppProtocol::kHttp);  // port, not the BT pattern
  EXPECT_EQ(rec.method, ClassifyMethod::kPort);
}

TEST_F(ClassifierTest, EverythingDisabledLeavesUnknown) {
  ClassifierConfig config;
  config.enable_patterns = false;
  config.enable_port_fallback = false;
  config.enable_endpoint_memo = false;
  config.enable_ftp_tracking = false;
  Classifier classifier{config};
  FiveTuple http = tcp_;
  http.dst_port = 80;
  const PacketRecord data =
      pkt(http, 0.0, {.ack = true}, payloads::http_get("x", "/"));
  ConnectionRecord& rec = table_.update(data, Direction::kOutbound);
  classifier.observe(rec, data);
  classifier.finalize(rec);
  EXPECT_EQ(rec.app, AppProtocol::kUnknown);
}

}  // namespace
}  // namespace upbound
