// Aggregated measurement products of the traffic analyzer, mapping onto
// the paper's evaluation artifacts: Table 2 (protocol distribution),
// Figs. 2-3 (port CDFs by class), Fig. 4 (lifetimes), and the throughput
// time series behind Figs. 8-9.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "net/app_protocol.h"
#include "util/stats.h"

namespace upbound {

/// The paper's four port classes (Section 3.3, Figs. 2-3).
enum class PortClass { kAll, kP2p, kNonP2p, kUnknown };

const char* port_class_name(PortClass c);

PortClass port_class_of(AppProtocol app);

/// Table 2 row.
struct ProtocolShare {
  AppProtocol app = AppProtocol::kUnknown;
  std::uint64_t connections = 0;
  std::uint64_t bytes = 0;
  double connection_fraction = 0.0;
  double byte_fraction = 0.0;
};

struct AnalyzerReport {
  // --- Table 2 ---
  std::vector<ProtocolShare> protocol_distribution;
  std::uint64_t total_connections = 0;
  std::uint64_t total_bytes = 0;

  // --- Figs. 2 & 3: service-port samples per class ---
  // TCP: SYN destination ports; UDP: both ports of each connection.
  std::map<PortClass, CdfBuilder> tcp_port_cdf;
  std::map<PortClass, CdfBuilder> udp_port_cdf;

  // --- Fig. 4: TCP connection lifetimes (seconds; SYN..FIN/RST only) ---
  CdfBuilder lifetimes;
  SummaryStats lifetime_summary;

  // --- Fig. 5: out-in packet delays (seconds) ---
  CdfBuilder out_in_delays;

  // --- Aggregate throughput ---
  std::uint64_t outbound_bytes = 0;
  std::uint64_t inbound_bytes = 0;
  std::uint64_t tcp_bytes = 0;
  std::uint64_t udp_bytes = 0;
  std::uint64_t tcp_connections = 0;
  std::uint64_t udp_connections = 0;

  /// Packets whose timestamp regressed; the Fig. 5 figures assume none.
  std::uint64_t out_of_order_packets = 0;

  double upload_fraction() const {
    const double total =
        static_cast<double>(outbound_bytes + inbound_bytes);
    return total == 0.0 ? 0.0 : static_cast<double>(outbound_bytes) / total;
  }

  const ProtocolShare& share_of(AppProtocol app) const;

  /// Formats the Table 2 analogue as an aligned ASCII table.
  std::string protocol_table() const;
};

}  // namespace upbound
