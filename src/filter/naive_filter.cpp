#include "filter/naive_filter.h"

#include <stdexcept>

namespace upbound {

NaiveFilter::NaiveFilter(const NaiveFilterConfig& config)
    : config_(config), pairs_(config.state_timeout) {
  if (config.state_timeout <= Duration{}) {
    throw std::invalid_argument("NaiveFilter: timeout must be positive");
  }
}

FiveTuple NaiveFilter::key_of_outbound(FiveTuple t) const {
  if (config_.key_mode == KeyMode::kHolePunching) t.dst_port = 0;
  return t;
}

void NaiveFilter::advance_time(SimTime now) { pairs_.sweep(now); }

void NaiveFilter::record_outbound(const PacketRecord& pkt) {
  pairs_.touch(key_of_outbound(pkt.tuple), pkt.timestamp);
}

bool NaiveFilter::admits_inbound(const PacketRecord& pkt) {
  const auto* pair = pairs_.find(key_of_outbound(pkt.tuple.inverse()));
  return pair != nullptr && pkt.timestamp < pair->last + config_.state_timeout;
}

}  // namespace upbound
