// The five-tuple socket pair sigma = {protocol, source-address, source-port,
// destination-address, destination-port} from paper Section 3.2. A packet's
// tuple is written sender-first; the inverse() of a tuple identifies the same
// connection seen from the other direction.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <string>

#include "net/ip.h"

namespace upbound {

enum class Protocol : std::uint8_t {
  kTcp = 6,
  kUdp = 17,
};

const char* protocol_name(Protocol p);

struct FiveTuple {
  Protocol protocol = Protocol::kTcp;
  Ipv4Addr src_addr;
  std::uint16_t src_port = 0;
  Ipv4Addr dst_addr;
  std::uint16_t dst_port = 0;

  /// The same connection seen from the other endpoint (sigma-bar).
  FiveTuple inverse() const {
    return FiveTuple{protocol, dst_addr, dst_port, src_addr, src_port};
  }

  /// Direction-independent connection identity: the lexicographically
  /// smaller endpoint is placed first, so a tuple and its inverse map to
  /// the same key. Used by connection tables.
  FiveTuple canonical() const {
    const std::uint64_t src =
        (std::uint64_t{src_addr.value()} << 16) | src_port;
    const std::uint64_t dst =
        (std::uint64_t{dst_addr.value()} << 16) | dst_port;
    return src <= dst ? *this : inverse();
  }

  bool operator==(const FiveTuple&) const = default;

  /// e.g. "TCP 140.112.30.5:34567 -> 61.2.3.4:6881".
  std::string to_string() const;
};

/// Serializes the tuple into a fixed 13-byte key (proto|src|sport|dst|dport,
/// network order); the byte layout feeds hash functions and must not change.
constexpr std::size_t kTupleKeySize = 13;
void encode_tuple_key(const FiveTuple& t,
                      std::span<std::uint8_t, kTupleKeySize> out);

/// Stable 64-bit hash of the tuple (direction-sensitive).
std::uint64_t tuple_hash(const FiveTuple& t, std::uint64_t seed = 0);

/// Cheap 64-bit mix of the tuple (direction-sensitive) whose high bits are
/// well spread: the FlatIndex home-slot hash of the analyzer's tables. It
/// may change between versions, so nothing persisted or exported may
/// depend on it; tuple_hash is the stable hash.
struct TupleMix {
  std::uint64_t operator()(const FiveTuple& t) const {
    const std::uint64_t addrs =
        (std::uint64_t{t.src_addr.value()} << 32) | t.dst_addr.value();
    const std::uint64_t rest = (std::uint64_t{t.src_port} << 24) |
                               (std::uint64_t{t.dst_port} << 8) |
                               static_cast<std::uint64_t>(t.protocol);
    std::uint64_t h = addrs * 0x9e3779b97f4a7c15ULL;
    h ^= rest ^ (h >> 29);
    return h * 0xbf58476d1ce4e5b9ULL;
  }
};

/// Hasher for unordered containers keyed by exact (directional) tuples.
struct FiveTupleHash {
  std::size_t operator()(const FiveTuple& t) const {
    return static_cast<std::size_t>(tuple_hash(t));
  }
};

/// Hasher/equality for containers keyed by connection identity, where a
/// tuple and its inverse must collide.
struct CanonicalTupleHash {
  std::size_t operator()(const FiveTuple& t) const {
    return static_cast<std::size_t>(tuple_hash(t.canonical()));
  }
};
struct CanonicalTupleEq {
  bool operator()(const FiveTuple& a, const FiveTuple& b) const {
    return a.canonical() == b.canonical();
  }
};

}  // namespace upbound
