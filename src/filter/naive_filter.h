// The naive exact solution the paper sketches at the start of Section 4.2:
// associate a timer of initial value T with each outbound socket pair,
// reset it on every outbound packet, delete the pair when it expires. It is
// the ground truth the bitmap filter approximates -- zero false positives
// and zero false negatives within timer granularity -- at O(active
// connections) storage, which is exactly why the paper replaces it.
#pragma once

#include <cstdint>

#include "filter/hash_family.h"
#include "filter/state_filter.h"
#include "net/five_tuple.h"
#include "util/expiry_set.h"

namespace upbound {

struct NaiveFilterConfig {
  /// The timer initial value T (equals the bitmap's T_e for comparisons).
  Duration state_timeout = Duration::sec(20.0);
  /// Hash key fields; kHolePunching ignores the external port like the
  /// bitmap filter's hole-punching mode.
  KeyMode key_mode = KeyMode::kFullTuple;
};

/// One ExpirySet entry per outbound socket pair, T as its TTL.
class NaiveFilter final : public StateFilter {
 public:
  explicit NaiveFilter(const NaiveFilterConfig& config);

  void advance_time(SimTime now) override;
  void record_outbound(const PacketRecord& pkt) override;
  bool admits_inbound(const PacketRecord& pkt) override;
  // admits_inbound is a pure lookup (expiry is handled by advance_time),
  // so speculative batch evaluation is safe.
  bool inbound_lookup_is_pure() const override { return true; }
  std::size_t storage_bytes() const override { return pairs_.storage_bytes(); }
  std::string name() const override { return "naive"; }

  std::size_t active_pairs() const { return pairs_.size(); }

 private:
  /// Key seen from the outbound direction; external port zeroed in
  /// hole-punching mode so it compares equal for any peer port.
  FiveTuple key_of_outbound(FiveTuple t) const;

  NaiveFilterConfig config_;
  ExpirySet<FiveTuple, TupleMix> pairs_;
};

}  // namespace upbound
