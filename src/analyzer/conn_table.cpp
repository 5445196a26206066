#include "analyzer/conn_table.h"

namespace upbound {

ConnectionRecord& ConnTable::update(const PacketRecord& pkt, Direction dir) {
  const std::size_t before = index_.size();
  ConnectionRecord& rec = index_.find_or_insert(pkt.tuple.canonical());
  if (index_.size() != before) {
    rec.tuple = pkt.tuple;
    rec.first_direction = dir;
    rec.first_packet_time = pkt.timestamp;
    rec.saw_syn = pkt.is_syn_only();
  }
  rec.last_packet_time = pkt.timestamp;

  const bool from_initiator = pkt.tuple == rec.tuple;
  if (from_initiator) {
    ++rec.packets_from_initiator;
    rec.bytes_from_initiator += pkt.wire_size();
  } else {
    ++rec.packets_to_initiator;
    rec.bytes_to_initiator += pkt.wire_size();
  }

  if (pkt.is_tcp() && !rec.closed && (pkt.flags.fin || pkt.flags.rst)) {
    rec.closed = true;
    rec.close_time = pkt.timestamp;
  }
  return rec;
}

const ConnectionRecord* ConnTable::find(const FiveTuple& tuple) const {
  return index_.find(tuple.canonical());
}

void ConnTable::for_each(
    const std::function<void(const ConnectionRecord&)>& fn) const {
  for (Index::Position pos = 0; pos < index_.size(); ++pos) {
    fn(index_.value_at(pos));
  }
}

void ConnTable::for_each_mutable(
    const std::function<void(ConnectionRecord&)>& fn) {
  for (Index::Position pos = 0; pos < index_.size(); ++pos) {
    fn(index_.value_at(pos));
  }
}

}  // namespace upbound
