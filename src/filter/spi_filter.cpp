#include "filter/spi_filter.h"

#include <stdexcept>

namespace upbound {

namespace {
bool closes(const PacketRecord& pkt) {
  return pkt.is_tcp() && (pkt.flags.fin || pkt.flags.rst);
}
}  // namespace

SpiFilter::SpiFilter(const SpiFilterConfig& config)
    : config_(config), flows_(config.idle_timeout) {
  if (config.idle_timeout <= Duration{}) {
    throw std::invalid_argument("SpiFilter: idle_timeout must be positive");
  }
  if (config.close_linger < Duration{}) {
    throw std::invalid_argument("SpiFilter: close_linger must be >= 0");
  }
}

void SpiFilter::advance_time(SimTime now) {
  flows_expired_ += flows_.sweep(now);
}

SpiFilter::Flows::Entry* SpiFilter::open_flow(const FiveTuple& key,
                                              SimTime now) {
  Flows::Entry* flow = flows_.find(key);
  if (flow != nullptr &&
      (flow->last + config_.idle_timeout <= now ||
       (flow->value.closed && flow->last + config_.close_linger <= now))) {
    flows_.erase(key);
    ++flows_expired_;
    return nullptr;
  }
  return flow;
}

void SpiFilter::on_flow_packet(const FiveTuple& key, Flows::Entry& flow,
                               const PacketRecord& pkt) {
  if (!closes(pkt)) {
    if (!flow.value.closed) flows_.refresh(key, pkt.timestamp);
  } else if (config_.close_linger.is_zero()) {
    flows_.erase(key);
    ++flows_expired_;
  } else {
    flows_.refresh(key, pkt.timestamp);
    flow.value.closed = true;
  }
}

void SpiFilter::record_outbound(const PacketRecord& pkt) {
  if (Flows::Entry* flow = open_flow(pkt.tuple, pkt.timestamp)) {
    on_flow_packet(pkt.tuple, *flow, pkt);
  } else if (!closes(pkt)) {
    // New flow created by the inner client. A closing packet that opens no
    // usable state (stray FIN/RST) is not tracked.
    flows_.touch(pkt.tuple, pkt.timestamp);
    ++flows_created_;
  }
}

bool SpiFilter::admits_inbound(const PacketRecord& pkt) {
  // The flow was created by the outbound direction: key by the inverse.
  const FiveTuple key = pkt.tuple.inverse();
  Flows::Entry* flow = open_flow(key, pkt.timestamp);
  if (flow == nullptr) return false;
  on_flow_packet(key, *flow, pkt);
  return true;
}

}  // namespace upbound
