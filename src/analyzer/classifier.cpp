#include "analyzer/classifier.h"

#include <cctype>
#include <stdexcept>
#include <string>

#include "util/hash.h"

namespace upbound {

namespace {

// Parses "h1,h2,h3,h4,p1,p2" starting at text[pos]; returns the endpoint
// or nullopt. Used for both PORT commands and 227 PASV replies.
std::optional<std::pair<Ipv4Addr, std::uint16_t>> parse_comma_quad(
    const std::string& text, std::size_t pos) {
  unsigned values[6];
  for (int i = 0; i < 6; ++i) {
    if (pos >= text.size() ||
        std::isdigit(static_cast<unsigned char>(text[pos])) == 0) {
      return std::nullopt;
    }
    unsigned v = 0;
    while (pos < text.size() &&
           std::isdigit(static_cast<unsigned char>(text[pos])) != 0) {
      v = v * 10 + static_cast<unsigned>(text[pos] - '0');
      if (v > 255) return std::nullopt;
      ++pos;
    }
    values[i] = v;
    if (i < 5) {
      if (pos >= text.size() || text[pos] != ',') return std::nullopt;
      ++pos;
    }
  }
  const Ipv4Addr addr{static_cast<std::uint8_t>(values[0]),
                      static_cast<std::uint8_t>(values[1]),
                      static_cast<std::uint8_t>(values[2]),
                      static_cast<std::uint8_t>(values[3])};
  const std::uint16_t port =
      static_cast<std::uint16_t>(values[4] * 256 + values[5]);
  return std::make_pair(addr, port);
}

}  // namespace

std::size_t Classifier::EndpointHash::operator()(const Endpoint& e) const {
  return static_cast<std::size_t>(
      hash_combine(hash_combine(static_cast<std::uint64_t>(e.protocol),
                                e.addr.value()),
                   e.port));
}

Classifier::Classifier(ClassifierConfig config)
    : config_(config), ftp_expected_(config.ftp_expect_ttl) {
  if (config.ftp_expect_ttl <= Duration{}) {
    throw std::invalid_argument("Classifier: ftp_expect_ttl must be positive");
  }
}

void Classifier::remember_p2p_endpoint(const ConnectionRecord& rec) {
  if (!config_.enable_endpoint_memo || !is_p2p(rec.app)) return;
  // Paper strategy 1: c = {A:x -> B:y} identified => future connections to
  // B:y are the same application. B:y is the target of the initiator.
  //
  // Restricted to TCP identifications: single-datagram UDP matches are
  // noisy (the eDonkey marker byte hits ~1% of random payloads), and one
  // false positive on a busy endpoint would cascade through the memo to
  // every later connection there.
  if (rec.tuple.protocol != Protocol::kTcp) return;
  p2p_endpoints_.insert_or_assign(
      Endpoint{rec.tuple.protocol, rec.tuple.dst_addr, rec.tuple.dst_port},
      rec.app);
}

void Classifier::scan_ftp_control(ConnectionRecord& rec,
                                  const PacketRecord& pkt) {
  if (pkt.payload.empty() || !pkt.checksum_valid) return;
  const std::string text(pkt.payload.begin(), pkt.payload.end());

  std::size_t quad_pos = std::string::npos;
  if (text.rfind("PORT ", 0) == 0) {
    quad_pos = 5;
  } else if (text.rfind("227", 0) == 0) {
    const std::size_t open = text.find('(');
    if (open != std::string::npos) quad_pos = open + 1;
  }
  if (quad_pos == std::string::npos) return;

  if (const auto endpoint = parse_comma_quad(text, quad_pos)) {
    const Endpoint key{Protocol::kTcp, endpoint->first, endpoint->second};
    ftp_expected_.touch(key, pkt.timestamp);
  }
  (void)rec;
}

void Classifier::apply_port_fallback(ConnectionRecord& rec) {
  if (!config_.enable_port_fallback) return;
  // TCP: the service port is the SYN's destination; without a captured
  // SYN the orientation is a guess, so try the initiator view's dst first
  // and the src second. UDP: the paper counts both ports.
  std::optional<AppProtocol> app =
      app_for_port(rec.tuple.protocol, rec.tuple.dst_port);
  if (!app && (!rec.saw_syn || rec.tuple.protocol == Protocol::kUdp)) {
    app = app_for_port(rec.tuple.protocol, rec.tuple.src_port);
  }
  if (app) {
    rec.app = *app;
    rec.method = ClassifyMethod::kPort;
  }
}

void Classifier::try_patterns(ConnectionRecord& rec, const PacketRecord& pkt) {
  if (!config_.enable_patterns) {
    rec.classification_final = true;
    apply_port_fallback(rec);
    return;
  }

  std::optional<AppProtocol> app;
  if (pkt.is_udp()) {
    // Each datagram is matched on its own (no stream to reassemble).
    app = patterns_.match(pkt.payload);
    ++rec.pattern_packets;
  } else {
    rec.stream.append(pkt.payload);
    ++rec.pattern_packets;
    app = patterns_.match(rec.stream.bytes());
  }

  if (app) {
    rec.app = *app;
    rec.method = ClassifyMethod::kPattern;
    rec.classification_final = true;
    rec.stream.discard();
    remember_p2p_endpoint(rec);
    return;
  }
  if (rec.pattern_packets >= config_.max_pattern_packets ||
      rec.stream.at_capacity()) {
    // Pattern budget exhausted: fall back to ports and stop examining.
    rec.classification_final = true;
    rec.stream.discard();
    apply_port_fallback(rec);
  }
}

void Classifier::finalize(ConnectionRecord& rec) {
  if (rec.classification_final || rec.method != ClassifyMethod::kNone) return;
  rec.classification_final = true;
  rec.stream.discard();
  apply_port_fallback(rec);
}

void Classifier::observe(ConnectionRecord& rec, const PacketRecord& pkt) {
  ftp_expected_.sweep(pkt.timestamp);

  // FTP control connections keep being scanned for data-channel
  // announcements even after classification (paper strategy 2).
  if (config_.enable_ftp_tracking && rec.app == AppProtocol::kFtp &&
      rec.tuple.protocol == Protocol::kTcp) {
    scan_ftp_control(rec, pkt);
  }

  if (rec.classification_final) return;

  // First chance: was this connection's target announced on an FTP
  // control channel?
  if (config_.enable_ftp_tracking && rec.total_packets() <= 1) {
    const Endpoint target{rec.tuple.protocol, rec.tuple.dst_addr,
                          rec.tuple.dst_port};
    if (ftp_expected_.find(target) != nullptr) {
      rec.app = AppProtocol::kFtp;
      rec.method = ClassifyMethod::kFtpData;
      rec.classification_final = true;
      ++ftp_data_hits_;
      return;
    }
  }

  // Second chance: known P2P service endpoint.
  if (config_.enable_endpoint_memo && rec.method == ClassifyMethod::kNone) {
    const Endpoint target{rec.tuple.protocol, rec.tuple.dst_addr,
                          rec.tuple.dst_port};
    const auto it = p2p_endpoints_.find(target);
    if (it != p2p_endpoints_.end()) {
      rec.app = it->second;
      rec.method = ClassifyMethod::kEndpointMemo;
      rec.classification_final = true;
      ++memo_hits_;
      return;
    }
  }

  // Payload signatures. The paper only examines TCP connections whose SYN
  // was captured (guaranteeing the stream start); UDP datagrams are always
  // examined; corrupted packets never are.
  if (pkt.payload_size > 0 && !pkt.payload.empty() && pkt.checksum_valid) {
    if (pkt.is_udp() || rec.saw_syn) {
      try_patterns(rec, pkt);
    } else if (pkt.is_tcp()) {
      // Mid-stream capture: patterns unreliable, ports only.
      rec.classification_final = true;
      apply_port_fallback(rec);
    }
  }
}

}  // namespace upbound
