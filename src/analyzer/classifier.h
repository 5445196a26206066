// Two-phase connection classifier (paper Section 3.2):
//
//   1. Payload signatures: every UDP datagram is examined; TCP connections
//      are examined only when their SYN was captured, concatenating the
//      first few data packets into a short stream before matching.
//   2. Well-known-port fallback when patterns fail.
//
// Plus the paper's two file-sharing refinements:
//   - P2P endpoint memo: once {A:x -> B:y} is identified as a P2P
//     application, every future connection to B:y inherits the label.
//   - FTP tracking: PASV/PORT endpoints parsed from identified FTP control
//     connections pre-label the matching data connections.
#pragma once

#include <unordered_map>

#include "analyzer/connection.h"
#include "analyzer/patterns.h"
#include "util/expiry_set.h"

namespace upbound {

struct ClassifierConfig {
  /// Data packets fed to the pattern matcher per TCP connection (paper
  /// footnote 1: at most four).
  unsigned max_pattern_packets = 4;
  /// Reassembly cap per connection.
  std::size_t max_stream_bytes = StreamBuf::kDefaultCapBytes;
  /// How long a PASV/PORT-announced endpoint stays valid (> 0).
  Duration ftp_expect_ttl = Duration::sec(120.0);
  /// Toggles for ablation studies.
  bool enable_patterns = true;
  bool enable_port_fallback = true;
  bool enable_endpoint_memo = true;
  bool enable_ftp_tracking = true;
};

class Classifier {
 public:
  explicit Classifier(ClassifierConfig config = {});

  /// Updates `rec`'s classification given one more packet of its
  /// connection. Call after ConnTable::update.
  void observe(ConnectionRecord& rec, const PacketRecord& pkt);

  /// End-of-trace pass: connections whose pattern budget never ran out
  /// (short flows) get the port fallback.
  void finalize(ConnectionRecord& rec);

  /// Statistics.
  std::uint64_t memo_hits() const { return memo_hits_; }
  std::uint64_t ftp_data_hits() const { return ftp_data_hits_; }
  std::size_t memo_size() const { return p2p_endpoints_.size(); }

 private:
  struct Endpoint {
    Protocol protocol;
    Ipv4Addr addr;
    std::uint16_t port;

    bool operator==(const Endpoint&) const = default;
  };
  struct EndpointHash {
    std::size_t operator()(const Endpoint& e) const;
  };

  void try_patterns(ConnectionRecord& rec, const PacketRecord& pkt);
  void apply_port_fallback(ConnectionRecord& rec);
  void remember_p2p_endpoint(const ConnectionRecord& rec);
  void scan_ftp_control(ConnectionRecord& rec, const PacketRecord& pkt);

  ClassifierConfig config_;
  PatternSet patterns_;

  /// Strategy 1: service endpoints known to speak a P2P protocol.
  std::unordered_map<Endpoint, AppProtocol, EndpointHash> p2p_endpoints_;
  /// Strategy 2: endpoints announced by FTP PASV/PORT exchanges.
  ExpirySet<Endpoint, EndpointHash> ftp_expected_;

  std::uint64_t memo_hits_ = 0;
  std::uint64_t ftp_data_hits_ = 0;
};

}  // namespace upbound
