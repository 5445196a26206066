// Wire-format codecs for Ethernet II / IPv4 / TCP / UDP frames, plus the
// Internet checksum. These give the pcap reader/writer real, verifiable
// frames -- traces written by this library parse under tcpdump/wireshark,
// and real captures replay through the pipeline.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "net/packet.h"

namespace upbound {

/// RFC 1071 Internet checksum over `data` (16-bit one's-complement sum).
std::uint16_t internet_checksum(std::span<const std::uint8_t> data);

/// Encodes `pkt` as a complete Ethernet frame. Payload bytes beyond the
/// captured prefix are zero-filled up to payload_size so IP total lengths
/// stay truthful. MAC addresses are synthesized from the IP addresses.
std::vector<std::uint8_t> encode_frame(const PacketRecord& pkt);

/// Outcome of decoding one captured frame.
struct DecodedFrame {
  PacketRecord packet;
  bool ip_checksum_ok = false;
  bool l4_checksum_ok = false;
};

/// Decodes an Ethernet frame captured with `orig_len` original bytes (the
/// capture may be truncated; payload_size is recovered from the IP header).
/// Returns nullopt for non-IPv4 or non-TCP/UDP frames and malformed headers.
std::optional<DecodedFrame> decode_frame(std::span<const std::uint8_t> frame,
                                         SimTime timestamp);

/// decode_frame straight into a caller-owned PacketRecord, reusing its
/// payload capacity -- the live datapath decodes every frame into its batch
/// slot without allocating. Every field of `out` is (re)assigned, the two
/// checksum verdicts folded into `checksum_valid`; on false `out` is
/// unspecified. Same acceptance as decode_frame.
bool decode_frame_into(std::span<const std::uint8_t> frame, SimTime timestamp,
                       PacketRecord& out);

}  // namespace upbound
