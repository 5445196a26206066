// The SPI (stateful packet inspection) baseline from paper Sections 2 and
// 5.3: exact per-flow connection tracking in the style of Linux netfilter
// conntrack. Flows are created by outbound packets, refreshed by traffic in
// either direction, closed by TCP FIN/RST, and garbage-collected after an
// idle timeout (the paper uses 240 s, Windows' default TIME_WAIT).
//
// This is the O(n)-storage comparator the bitmap filter is measured
// against in Fig. 8; it drops slightly MORE precisely because it observes
// exact connection close events the bitmap cannot see.
#pragma once

#include <cstdint>

#include "filter/state_filter.h"
#include "net/five_tuple.h"
#include "util/expiry_set.h"

namespace upbound {

struct SpiFilterConfig {
  /// Idle timeout after which a tracked flow is deleted.
  Duration idle_timeout = Duration::sec(240.0);
  /// Linger after FIN/RST before the entry is removed (models TIME_WAIT
  /// shortening; zero removes on close).
  Duration close_linger = Duration::sec(0.0);
};

/// Flows live on an ExpirySet keyed by the outbound tuple, with the idle
/// timeout as the TTL. A FIN/RST removes a flow at a zero linger; otherwise
/// the closed flow keeps that packet's time stamp (later packets pass but
/// do not refresh it), so it is swept idle_timeout after the packet, and
/// it ends at the stamp plus close_linger. An ended flow admits nothing,
/// and an outbound packet on its tuple opens a new flow.
class SpiFilter final : public StateFilter {
 public:
  explicit SpiFilter(const SpiFilterConfig& config);

  void advance_time(SimTime now) override;
  void record_outbound(const PacketRecord& pkt) override;
  bool admits_inbound(const PacketRecord& pkt) override;
  std::size_t storage_bytes() const override { return flows_.storage_bytes(); }
  std::string name() const override { return "spi"; }

  std::size_t tracked_flows() const { return flows_.size(); }
  std::uint64_t flows_created() const { return flows_created_; }
  std::uint64_t flows_expired() const { return flows_expired_; }

 private:
  struct FlowState {
    bool closed = false;  // saw FIN/RST
  };
  using Flows = ExpirySet<FiveTuple, TupleMix, FlowState>;

  /// The flow of `key` unless it has ended at `now` (an ended flow the
  /// sweep has not reached yet is removed).
  Flows::Entry* open_flow(const FiveTuple& key, SimTime now);
  /// A packet of an open flow, in either direction.
  void on_flow_packet(const FiveTuple& key, Flows::Entry& flow,
                      const PacketRecord& pkt);

  SpiFilterConfig config_;
  Flows flows_;
  std::uint64_t flows_created_ = 0;
  std::uint64_t flows_expired_ = 0;
};

}  // namespace upbound
