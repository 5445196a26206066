#include "net/headers.h"

#include <algorithm>

#include "util/byte_io.h"

namespace upbound {

namespace {

constexpr std::uint16_t kEtherTypeIpv4 = 0x0800;

// Pseudo-header checksum input shared by TCP and UDP.
std::uint32_t pseudo_header_sum(const FiveTuple& t, std::uint32_t l4_len) {
  std::uint32_t sum = 0;
  const std::uint32_t s = t.src_addr.value();
  const std::uint32_t d = t.dst_addr.value();
  sum += (s >> 16) + (s & 0xffff);
  sum += (d >> 16) + (d & 0xffff);
  sum += static_cast<std::uint8_t>(t.protocol);
  sum += l4_len & 0xffff;
  sum += l4_len >> 16;
  return sum;
}

std::uint16_t fold(std::uint32_t sum) {
  while (sum >> 16) sum = (sum & 0xffff) + (sum >> 16);
  return static_cast<std::uint16_t>(~sum);
}

std::uint32_t sum_bytes(std::span<const std::uint8_t> data) {
  std::uint32_t sum = 0;
  std::size_t i = 0;
  for (; i + 1 < data.size(); i += 2) {
    sum += (static_cast<std::uint32_t>(data[i]) << 8) | data[i + 1];
  }
  if (i < data.size()) sum += static_cast<std::uint32_t>(data[i]) << 8;
  return sum;
}

void write_mac_for(Ipv4Addr addr, ByteWriter& w) {
  // Locally administered unicast MAC derived from the IP; purely cosmetic.
  w.u8(0x02);
  w.u8(0x42);
  w.u8(static_cast<std::uint8_t>(addr.value() >> 24));
  w.u8(static_cast<std::uint8_t>(addr.value() >> 16));
  w.u8(static_cast<std::uint8_t>(addr.value() >> 8));
  w.u8(static_cast<std::uint8_t>(addr.value()));
}

}  // namespace

std::uint16_t internet_checksum(std::span<const std::uint8_t> data) {
  return fold(sum_bytes(data));
}

std::vector<std::uint8_t> encode_frame(const PacketRecord& pkt) {
  const bool tcp = pkt.tuple.protocol == Protocol::kTcp;
  const std::uint32_t l4_header = tcp ? kTcpHeaderSize : kUdpHeaderSize;
  const std::uint32_t l4_len = l4_header + pkt.payload_size;
  const std::uint32_t ip_total = kIpv4HeaderSize + l4_len;

  std::vector<std::uint8_t> out;
  out.reserve(kEthernetHeaderSize + ip_total);
  ByteWriter w{out};

  // Ethernet II.
  write_mac_for(pkt.tuple.dst_addr, w);
  write_mac_for(pkt.tuple.src_addr, w);
  w.u16be(kEtherTypeIpv4);

  // IPv4 (no options).
  const std::size_t ip_begin = out.size();
  w.u8(0x45);                 // version 4, IHL 5
  w.u8(0);                    // DSCP/ECN
  w.u16be(static_cast<std::uint16_t>(ip_total));
  w.u16be(0);                 // identification
  w.u16be(0x4000);            // flags: DF
  w.u8(64);                   // TTL
  w.u8(static_cast<std::uint8_t>(pkt.tuple.protocol));
  w.u16be(0);                 // checksum placeholder
  w.u32be(pkt.tuple.src_addr.value());
  w.u32be(pkt.tuple.dst_addr.value());
  const std::uint16_t ip_csum = internet_checksum(
      std::span<const std::uint8_t>{out.data() + ip_begin, kIpv4HeaderSize});
  out[ip_begin + 10] = static_cast<std::uint8_t>(ip_csum >> 8);
  out[ip_begin + 11] = static_cast<std::uint8_t>(ip_csum);

  // L4 header.
  const std::size_t l4_begin = out.size();
  if (tcp) {
    w.u16be(pkt.tuple.src_port);
    w.u16be(pkt.tuple.dst_port);
    w.u32be(0);  // seq (not modeled)
    w.u32be(0);  // ack (not modeled)
    w.u8(0x50);  // data offset 5
    w.u8(pkt.flags.to_byte());
    w.u16be(65535);  // window
    w.u16be(0);      // checksum placeholder
    w.u16be(0);      // urgent pointer
  } else {
    w.u16be(pkt.tuple.src_port);
    w.u16be(pkt.tuple.dst_port);
    w.u16be(static_cast<std::uint16_t>(l4_len));
    w.u16be(0);  // checksum placeholder
  }

  // Payload: captured prefix, then zero fill to the declared size.
  w.bytes(std::span<const std::uint8_t>{pkt.payload.data(),
                                        std::min<std::size_t>(
                                            pkt.payload.size(),
                                            pkt.payload_size)});
  out.resize(kEthernetHeaderSize + ip_total, 0);

  // L4 checksum over pseudo-header + segment.
  std::uint32_t sum = pseudo_header_sum(pkt.tuple, l4_len);
  sum += sum_bytes(std::span<const std::uint8_t>{out.data() + l4_begin,
                                                 l4_len});
  std::uint16_t l4_csum = fold(sum);
  if (!tcp && l4_csum == 0) l4_csum = 0xffff;  // UDP: 0 means "no checksum"
  const std::size_t csum_off = tcp ? l4_begin + 16 : l4_begin + 6;
  out[csum_off] = static_cast<std::uint8_t>(l4_csum >> 8);
  out[csum_off + 1] = static_cast<std::uint8_t>(l4_csum);

  return out;
}

namespace {

// The one decoder behind decode_frame and decode_frame_into.
bool decode_into(std::span<const std::uint8_t> frame, SimTime timestamp,
                 PacketRecord& pkt, bool& ip_checksum_ok,
                 bool& l4_checksum_ok) {
  try {
    // `pkt` may be a reused buffer: reset every field that is only
    // conditionally written below (flags stay default for UDP, checksum
    // verdicts only resolve when the capture holds the full segment).
    ip_checksum_ok = false;
    l4_checksum_ok = false;
    pkt.flags = TcpFlags{};
    pkt.checksum_valid = true;

    ByteReader r{frame};
    r.skip(12);  // MACs
    if (r.u16be() != kEtherTypeIpv4) return false;

    const std::size_t ip_begin = r.position();
    const std::uint8_t ver_ihl = r.u8();
    if ((ver_ihl >> 4) != 4) return false;
    const std::size_t ihl = (ver_ihl & 0x0f) * 4u;
    if (ihl < kIpv4HeaderSize) return false;
    r.skip(1);  // DSCP
    const std::uint16_t ip_total = r.u16be();
    r.skip(4);  // id, flags/frag
    r.skip(1);  // TTL
    const std::uint8_t proto = r.u8();
    r.skip(2);  // header checksum (verified below)
    const std::uint32_t src = r.u32be();
    const std::uint32_t dst = r.u32be();
    if (ihl > kIpv4HeaderSize) r.skip(ihl - kIpv4HeaderSize);

    if (proto != static_cast<std::uint8_t>(Protocol::kTcp) &&
        proto != static_cast<std::uint8_t>(Protocol::kUdp)) {
      return false;
    }
    if (ip_total < ihl) return false;

    pkt.timestamp = timestamp;
    pkt.tuple.protocol = static_cast<Protocol>(proto);
    pkt.tuple.src_addr = Ipv4Addr{src};
    pkt.tuple.dst_addr = Ipv4Addr{dst};

    const std::size_t ip_captured =
        std::min<std::size_t>(frame.size() - ip_begin, ihl);
    ip_checksum_ok =
        ip_captured >= ihl &&
        internet_checksum(frame.subspan(ip_begin, ihl)) == 0;

    const std::uint32_t l4_total = ip_total - static_cast<std::uint32_t>(ihl);
    std::size_t l4_header;
    std::uint16_t udp_checksum_field = 1;  // nonzero unless UDP says "none"
    if (pkt.tuple.protocol == Protocol::kTcp) {
      pkt.tuple.src_port = r.u16be();
      pkt.tuple.dst_port = r.u16be();
      r.skip(8);  // seq, ack
      const std::uint8_t offset = r.u8();
      l4_header = (offset >> 4) * 4u;
      if (l4_header < kTcpHeaderSize || l4_header > l4_total) {
        return false;
      }
      pkt.flags = TcpFlags::from_byte(r.u8());
      r.skip(4);  // window, checksum (verified below)
      r.skip(2);  // urgent
      if (l4_header > kTcpHeaderSize) r.skip(l4_header - kTcpHeaderSize);
    } else {
      pkt.tuple.src_port = r.u16be();
      pkt.tuple.dst_port = r.u16be();
      const std::uint16_t udp_len = r.u16be();
      udp_checksum_field = r.u16be();
      l4_header = kUdpHeaderSize;
      if (udp_len < kUdpHeaderSize || udp_len > l4_total) return false;
    }

    pkt.payload_size = l4_total - static_cast<std::uint32_t>(l4_header);

    // Captured payload may be shorter than the on-wire payload (snaplen).
    const std::size_t captured_payload =
        std::min<std::size_t>(r.remaining(), pkt.payload_size);
    const auto payload = r.bytes(captured_payload);
    pkt.payload.assign(payload.begin(), payload.end());

    // L4 checksum verification requires the full segment in the capture.
    const std::size_t l4_captured = frame.size() - (ip_begin + ihl);
    if (l4_captured >= l4_total) {
      if (pkt.tuple.protocol == Protocol::kUdp && udp_checksum_field == 0) {
        l4_checksum_ok = true;  // UDP checksum disabled by sender
      } else {
        std::uint32_t sum = pseudo_header_sum(pkt.tuple, l4_total);
        sum += sum_bytes(frame.subspan(ip_begin + ihl, l4_total));
        l4_checksum_ok = fold(sum) == 0;
      }
      pkt.checksum_valid = l4_checksum_ok;
    }
    if (ip_captured >= ihl && !ip_checksum_ok) {
      pkt.checksum_valid = false;
    }
    return true;
  } catch (const ByteUnderflow&) {
    return false;
  }
}

}  // namespace

bool decode_frame_into(std::span<const std::uint8_t> frame,
                       SimTime timestamp, PacketRecord& out) {
  bool ip_checksum_ok = false;
  bool l4_checksum_ok = false;
  return decode_into(frame, timestamp, out, ip_checksum_ok, l4_checksum_ok);
}

std::optional<DecodedFrame> decode_frame(std::span<const std::uint8_t> frame,
                                         SimTime timestamp) {
  DecodedFrame out;
  if (!decode_into(frame, timestamp, out.packet, out.ip_checksum_ok,
                   out.l4_checksum_ok)) {
    return std::nullopt;
  }
  return out;
}

}  // namespace upbound
