#include "analyzer/analyzer.h"

#include <algorithm>

namespace upbound {

TrafficAnalyzer::TrafficAnalyzer(AnalyzerConfig config)
    : config_(std::move(config)),
      classifier_(config_.classifier),
      out_in_(config_.out_in_expiry) {}

namespace {
AnalyzerConfig config_for(ClientNetwork network) {
  AnalyzerConfig config;
  config.network = std::move(network);
  return config;
}
}  // namespace

TrafficAnalyzer::TrafficAnalyzer(ClientNetwork network)
    : TrafficAnalyzer(config_for(std::move(network))) {}

void TrafficAnalyzer::process(const PacketRecord& pkt) {
  if (pkt.timestamp < latest_) {
    ++out_of_order_;
  } else {
    latest_ = pkt.timestamp;
  }
  const Direction dir = config_.network.classify(pkt);
  if (dir != Direction::kOutbound && dir != Direction::kInbound) {
    ++skipped_;
    return;
  }
  ++packets_;
  if (dir == Direction::kOutbound) {
    outbound_bytes_ += pkt.wire_size();
  } else {
    inbound_bytes_ += pkt.wire_size();
  }

  ConnectionRecord& rec = table_.update(pkt, dir);
  classifier_.observe(rec, pkt);
  out_in_.on_packet(pkt, dir);
}

AnalyzerReport TrafficAnalyzer::finish() {
  AnalyzerReport report;
  report.outbound_bytes = outbound_bytes_;
  report.inbound_bytes = inbound_bytes_;
  report.out_of_order_packets = out_of_order_;

  // Accumulators per application.
  struct Acc {
    std::uint64_t connections = 0;
    std::uint64_t bytes = 0;
  };
  std::map<AppProtocol, Acc> acc;

  table_.for_each_mutable([&](ConnectionRecord& rec) {
    classifier_.finalize(rec);

    auto& entry = acc[rec.app];
    ++entry.connections;
    entry.bytes += rec.total_bytes();

    ++report.total_connections;
    report.total_bytes += rec.total_bytes();

    if (rec.tuple.protocol == Protocol::kTcp) {
      ++report.tcp_connections;
      report.tcp_bytes += rec.total_bytes();
    } else {
      ++report.udp_connections;
      report.udp_bytes += rec.total_bytes();
    }

    // Port class samples (Figs. 2-3). TCP needs the captured SYN so the
    // service side is unambiguous; UDP counts both ports.
    const PortClass cls = port_class_of(rec.app);
    if (rec.tuple.protocol == Protocol::kTcp) {
      if (rec.saw_syn) {
        const double port = rec.tuple.dst_port;
        report.tcp_port_cdf[PortClass::kAll].add(port);
        report.tcp_port_cdf[cls].add(port);
      }
    } else {
      for (const double port :
           {static_cast<double>(rec.tuple.src_port),
            static_cast<double>(rec.tuple.dst_port)}) {
        report.udp_port_cdf[PortClass::kAll].add(port);
        report.udp_port_cdf[cls].add(port);
      }
    }

    // Lifetimes (Fig. 4): SYN to valid FIN/RST.
    if (rec.tuple.protocol == Protocol::kTcp && rec.saw_syn && rec.closed) {
      const double life = rec.lifetime().to_sec();
      report.lifetimes.add(life);
      report.lifetime_summary.add(life);
    }
  });

  for (const auto& [app, entry] : acc) {
    ProtocolShare share;
    share.app = app;
    share.connections = entry.connections;
    share.bytes = entry.bytes;
    share.connection_fraction =
        report.total_connections == 0
            ? 0.0
            : static_cast<double>(entry.connections) /
                  static_cast<double>(report.total_connections);
    share.byte_fraction =
        report.total_bytes == 0
            ? 0.0
            : static_cast<double>(entry.bytes) /
                  static_cast<double>(report.total_bytes);
    report.protocol_distribution.push_back(share);
  }
  std::sort(report.protocol_distribution.begin(),
            report.protocol_distribution.end(),
            [](const ProtocolShare& a, const ProtocolShare& b) {
              return a.bytes > b.bytes;
            });

  // Fig. 5 samples: sorted once in the tracker, copied already sorted.
  out_in_.delays().sorted();
  report.out_in_delays = out_in_.delays();

  return report;
}

}  // namespace upbound
