#include "analyzer/netflow.h"

#include <gtest/gtest.h>

#include "analyzer/analyzer.h"
#include "trace/campus.h"

namespace upbound {
namespace {

ConnectionRecord sample_record() {
  ConnectionRecord rec;
  rec.tuple = FiveTuple{Protocol::kTcp, Ipv4Addr{140, 112, 30, 5}, 40000,
                        Ipv4Addr{61, 2, 3, 4}, 6881};
  rec.first_packet_time = SimTime::from_sec(1.5);
  rec.last_packet_time = SimTime::from_sec(42.25);
  rec.saw_syn = true;
  rec.closed = true;
  rec.packets_from_initiator = 100;
  rec.bytes_from_initiator = 14'000;
  rec.packets_to_initiator = 900;
  rec.bytes_to_initiator = 1'300'000;
  return rec;
}

TEST(NetflowFlowsOf, BidirectionalConnectionGivesTwoFlows) {
  const auto flows = flows_of(sample_record());
  ASSERT_EQ(flows.size(), 2u);
  EXPECT_EQ(flows[0].src_addr, Ipv4Addr(140, 112, 30, 5));
  EXPECT_EQ(flows[0].dst_port, 6881);
  EXPECT_EQ(flows[0].packets, 100u);
  EXPECT_EQ(flows[0].octets, 14'000u);
  EXPECT_EQ(flows[0].first_ms, 1500u);
  EXPECT_EQ(flows[0].last_ms, 42'250u);
  EXPECT_EQ(flows[0].tcp_flags, 0x03);  // SYN + FIN observed
  EXPECT_EQ(flows[1].src_addr, Ipv4Addr(61, 2, 3, 4));
  EXPECT_EQ(flows[1].octets, 1'300'000u);
  EXPECT_EQ(flows[1].protocol, 6);
}

TEST(NetflowFlowsOf, OneWayConnectionGivesOneFlow) {
  ConnectionRecord rec = sample_record();
  rec.packets_to_initiator = 0;
  rec.bytes_to_initiator = 0;
  EXPECT_EQ(flows_of(rec).size(), 1u);
}

TEST(NetflowFlowsOf, HugeCountersClamp) {
  ConnectionRecord rec = sample_record();
  rec.bytes_from_initiator = 10'000'000'000ULL;  // > 2^32
  const auto flows = flows_of(rec);
  EXPECT_EQ(flows[0].octets, 0xffffffffu);
}

TEST(NetflowCodec, RoundTrip) {
  const auto flows = flows_of(sample_record());
  const auto payload = encode_netflow_v5(flows, 1234);
  EXPECT_EQ(payload.size(),
            kNetflowV5HeaderSize + flows.size() * kNetflowV5RecordSize);

  const auto decoded = decode_netflow_v5(payload);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->sequence, 1234u);
  ASSERT_EQ(decoded->records.size(), flows.size());
  EXPECT_EQ(decoded->records[0], flows[0]);
  EXPECT_EQ(decoded->records[1], flows[1]);
}

TEST(NetflowCodec, WireFormatIsBigEndianV5) {
  const auto payload = encode_netflow_v5({}, 0);
  ASSERT_EQ(payload.size(), kNetflowV5HeaderSize);
  EXPECT_EQ(payload[0], 0);  // version 5 big-endian
  EXPECT_EQ(payload[1], 5);
  EXPECT_EQ(payload[2], 0);  // count 0
  EXPECT_EQ(payload[3], 0);
}

TEST(NetflowCodec, RejectsMalformed) {
  EXPECT_FALSE(decode_netflow_v5({}).has_value());
  auto payload = encode_netflow_v5(flows_of(sample_record()), 0);
  payload[1] = 9;  // version 9
  EXPECT_FALSE(decode_netflow_v5(payload).has_value());
  payload[1] = 5;
  payload.pop_back();  // truncated record
  EXPECT_FALSE(decode_netflow_v5(payload).has_value());
  payload.push_back(0);
  payload.push_back(0);  // trailing garbage
  EXPECT_FALSE(decode_netflow_v5(payload).has_value());
}

TEST(NetflowCodec, TooManyRecordsThrows) {
  std::vector<FlowRecordV5> many(31);
  EXPECT_THROW(encode_netflow_v5(many, 0), std::invalid_argument);
}

TEST(NetflowExport, FullTableChunksAndSequences) {
  CampusTraceConfig config;
  config.duration = Duration::sec(8.0);
  config.connections_per_sec = 40.0;
  config.bandwidth_bps = 2e6;
  config.seed = 9;
  const GeneratedTrace trace = generate_campus_trace(config);

  TrafficAnalyzer analyzer{trace.network};
  for (const PacketRecord& pkt : trace.packets) analyzer.process(pkt);

  const auto packets = export_netflow_v5(analyzer.connections());
  ASSERT_GT(packets.size(), 1u);

  std::size_t flows = 0;
  std::uint32_t expected_sequence = 0;
  std::uint64_t octets = 0;
  for (const auto& payload : packets) {
    const auto decoded = decode_netflow_v5(payload);
    ASSERT_TRUE(decoded.has_value());
    EXPECT_EQ(decoded->sequence, expected_sequence);
    expected_sequence += static_cast<std::uint32_t>(decoded->records.size());
    flows += decoded->records.size();
    for (const auto& record : decoded->records) octets += record.octets;
    EXPECT_LE(decoded->records.size(), kNetflowV5MaxRecordsPerPacket);
  }
  // Every connection contributed 1-2 flows.
  EXPECT_GE(flows, trace.connection_count);
  EXPECT_LE(flows, 2 * trace.connection_count);
  // Byte conservation across the export.
  EXPECT_EQ(octets, trace.outbound_bytes + trace.inbound_bytes);
}

// Flows leave in first-packet order: on a time-sorted trace their start
// times never decrease across the whole export.
TEST(NetflowExport, FlowsLeaveInFirstPacketOrder) {
  CampusTraceConfig config;
  config.duration = Duration::sec(8.0);
  config.connections_per_sec = 40.0;
  config.bandwidth_bps = 2e6;
  config.seed = 9;
  const GeneratedTrace trace = generate_campus_trace(config);
  TrafficAnalyzer analyzer{trace.network};
  for (const PacketRecord& pkt : trace.packets) analyzer.process(pkt);

  std::size_t flows = 0;
  std::uint32_t previous_first_ms = 0;
  for (const auto& payload : export_netflow_v5(analyzer.connections())) {
    const auto decoded = decode_netflow_v5(payload);
    ASSERT_TRUE(decoded.has_value());
    for (const auto& record : decoded->records) {
      EXPECT_GE(record.first_ms, previous_first_ms) << "flow " << flows;
      previous_first_ms = record.first_ms;
      ++flows;
    }
  }
  EXPECT_GT(flows, 100u);
}

}  // namespace
}  // namespace upbound
