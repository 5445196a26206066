// The traffic analyzer facade (paper Section 3.2): feeds packets through
// direction classification, connection tracking, application
// identification, and the statistics collectors, then produces the
// Section 3.3 measurement report.
//
//   TrafficAnalyzer analyzer{{.network = campus_network}};
//   for (const PacketRecord& pkt : trace) analyzer.process(pkt);
//   AnalyzerReport report = analyzer.finish();
#pragma once

#include <cstdint>

#include "analyzer/classifier.h"
#include "analyzer/conn_table.h"
#include "analyzer/out_in_delay.h"
#include "analyzer/stats.h"
#include "net/direction.h"

namespace upbound {

struct AnalyzerConfig {
  ClientNetwork network;
  ClassifierConfig classifier;
  /// Expiry timer for the out-in delay measurement (paper uses 600 s to
  /// expose the port-reuse peaks).
  Duration out_in_expiry = Duration::sec(600.0);
};

class TrafficAnalyzer {
 public:
  explicit TrafficAnalyzer(AnalyzerConfig config);
  /// Convenience: default configuration over the given client network.
  explicit TrafficAnalyzer(ClientNetwork network);

  /// Processes one packet. Timestamps should be non-decreasing: a packet
  /// whose timestamp regressed is still analyzed, and counted in
  /// out_of_order_packets(), but it shifts the out-in delay figures.
  void process(const PacketRecord& pkt);

  /// Finalizes open classifications and builds the report. The analyzer
  /// remains usable (further packets extend the same state).
  AnalyzerReport finish();

  const ConnTable& connections() const { return table_; }
  const Classifier& classifier() const { return classifier_; }
  std::uint64_t packets_processed() const { return packets_; }
  /// Packets whose direction was local/transit (not analyzed).
  std::uint64_t packets_skipped() const { return skipped_; }
  /// Packets whose timestamp is below the highest one seen before them.
  std::uint64_t out_of_order_packets() const { return out_of_order_; }

 private:
  AnalyzerConfig config_;
  ConnTable table_;
  Classifier classifier_;
  OutInDelayTracker out_in_;
  std::uint64_t packets_ = 0;
  std::uint64_t skipped_ = 0;
  std::uint64_t out_of_order_ = 0;
  SimTime latest_ = SimTime::from_usec(INT64_MIN);
  std::uint64_t outbound_bytes_ = 0;
  std::uint64_t inbound_bytes_ = 0;
};

}  // namespace upbound
