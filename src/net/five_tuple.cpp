#include "net/five_tuple.h"

#include <cstdio>

#include "util/hash.h"

namespace upbound {

const char* protocol_name(Protocol p) {
  switch (p) {
    case Protocol::kTcp: return "TCP";
    case Protocol::kUdp: return "UDP";
  }
  return "?";
}

std::string FiveTuple::to_string() const {
  char buf[80];
  std::snprintf(buf, sizeof(buf), "%s %s:%u -> %s:%u", protocol_name(protocol),
                src_addr.to_string().c_str(), src_port,
                dst_addr.to_string().c_str(), dst_port);
  return buf;
}

void encode_tuple_key(const FiveTuple& t,
                      std::span<std::uint8_t, kTupleKeySize> out) {
  out[0] = static_cast<std::uint8_t>(t.protocol);
  const std::uint32_t s = t.src_addr.value();
  const std::uint32_t d = t.dst_addr.value();
  out[1] = static_cast<std::uint8_t>(s >> 24);
  out[2] = static_cast<std::uint8_t>(s >> 16);
  out[3] = static_cast<std::uint8_t>(s >> 8);
  out[4] = static_cast<std::uint8_t>(s);
  out[5] = static_cast<std::uint8_t>(t.src_port >> 8);
  out[6] = static_cast<std::uint8_t>(t.src_port);
  out[7] = static_cast<std::uint8_t>(d >> 24);
  out[8] = static_cast<std::uint8_t>(d >> 16);
  out[9] = static_cast<std::uint8_t>(d >> 8);
  out[10] = static_cast<std::uint8_t>(d);
  out[11] = static_cast<std::uint8_t>(t.dst_port >> 8);
  out[12] = static_cast<std::uint8_t>(t.dst_port);
}

std::uint64_t tuple_hash(const FiveTuple& t, std::uint64_t seed) {
  std::uint8_t key[kTupleKeySize];
  encode_tuple_key(t, std::span<std::uint8_t, kTupleKeySize>{key});
  return murmur3_x64_128(std::span<const std::uint8_t>{key, sizeof(key)}, seed)
      .lo;
}

}  // namespace upbound
