// Maps each verdict the live datapath emits back to the trace packet it
// belongs to, so its latency can be taken from the due time of the
// datagram that carried it. Verdicts arrive in trace order, minus any
// packets lost on the way (a datagram dropped by the kernel takes its
// whole run of records with it; a frame that fails to decode takes one),
// so the matcher scans forward from the last match for the packet with
// the same timestamp and tuple. The trace is time-sorted, so the scan
// stops as soon as timestamps pass the verdict's.
#pragma once

#include <cstddef>
#include <limits>

#include "net/packet.h"

namespace upbound::bench {

class VerdictMatcher {
 public:
  static constexpr std::size_t kNoMatch =
      std::numeric_limits<std::size_t>::max();

  explicit VerdictMatcher(const Trace& trace) : trace_(&trace) {}

  /// Index of `pkt` in the trace, or kNoMatch (the cursor then stays put).
  std::size_t match(const PacketRecord& pkt) {
    const Trace& trace = *trace_;
    for (std::size_t k = next_; k < trace.size(); ++k) {
      if (trace[k].timestamp > pkt.timestamp) break;
      if (trace[k].timestamp == pkt.timestamp && trace[k].tuple == pkt.tuple) {
        next_ = k + 1;
        return k;
      }
    }
    return kNoMatch;
  }

 private:
  const Trace* trace_;
  std::size_t next_ = 0;
};

}  // namespace upbound::bench
