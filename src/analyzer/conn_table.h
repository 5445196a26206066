// Connection table: canonical-tuple keyed map of ConnectionRecords, the
// five-tuple classification step of the paper's traffic analyzer.
//
// Records live densely in first-packet order on a FlatIndex keyed by the
// canonical tuple, so a packet reaches its connection with one probe of
// the slot array.
#pragma once

#include <functional>

#include "analyzer/connection.h"
#include "util/flat_index.h"

namespace upbound {

class ConnTable {
 public:
  /// Finds or creates the record for the packet's connection, updating
  /// counters, lifetime endpoints, and TCP open/close state. The returned
  /// reference is valid until the next update.
  ConnectionRecord& update(const PacketRecord& pkt, Direction dir);

  const ConnectionRecord* find(const FiveTuple& tuple) const;

  std::size_t size() const { return index_.size(); }

  /// Iterates all records in first-packet order: the order in which the
  /// table first saw each connection (on a time-sorted trace, non-
  /// decreasing first_packet_time).
  void for_each(const std::function<void(const ConnectionRecord&)>& fn) const;
  void for_each_mutable(const std::function<void(ConnectionRecord&)>& fn);

 private:
  using Index = FlatIndex<FiveTuple, ConnectionRecord, TupleMix>;

  Index index_;  // keyed by the canonical tuple
};

}  // namespace upbound
