// Tests for the two comparator filters: the naive exact-timer solution and
// the SPI baseline.
#include <gtest/gtest.h>

#include <deque>
#include <unordered_map>
#include <utility>
#include <vector>

#include "filter/naive_filter.h"
#include "filter/spi_filter.h"
#include "util/rng.h"

namespace upbound {
namespace {

FiveTuple conn(std::uint16_t sport = 40000, std::uint16_t dport = 80) {
  return FiveTuple{Protocol::kTcp, Ipv4Addr{10, 0, 0, 1}, sport,
                   Ipv4Addr{8, 8, 8, 8}, dport};
}

PacketRecord pkt_out(const FiveTuple& t, double t_sec, TcpFlags flags = {}) {
  PacketRecord pkt;
  pkt.timestamp = SimTime::from_sec(t_sec);
  pkt.tuple = t;
  pkt.flags = flags;
  return pkt;
}

PacketRecord pkt_in(const FiveTuple& t, double t_sec, TcpFlags flags = {}) {
  PacketRecord pkt;
  pkt.timestamp = SimTime::from_sec(t_sec);
  pkt.tuple = t.inverse();
  pkt.flags = flags;
  return pkt;
}

// ---------------- NaiveFilter ----------------

TEST(NaiveFilter, AdmitsWithinTimeout) {
  NaiveFilter filter{{.state_timeout = Duration::sec(20.0)}};
  filter.record_outbound(pkt_out(conn(), 0.0));
  EXPECT_TRUE(filter.admits_inbound(pkt_in(conn(), 19.99)));
}

TEST(NaiveFilter, RejectsAfterTimeout) {
  NaiveFilter filter{{.state_timeout = Duration::sec(20.0)}};
  filter.record_outbound(pkt_out(conn(), 0.0));
  EXPECT_FALSE(filter.admits_inbound(pkt_in(conn(), 20.0)));
}

TEST(NaiveFilter, RejectsUnknownConnection) {
  NaiveFilter filter{{}};
  filter.record_outbound(pkt_out(conn(1000), 0.0));
  EXPECT_FALSE(filter.admits_inbound(pkt_in(conn(1001), 0.1)));
}

TEST(NaiveFilter, OutboundRefreshResetsTimer) {
  NaiveFilter filter{{.state_timeout = Duration::sec(20.0)}};
  filter.record_outbound(pkt_out(conn(), 0.0));
  filter.record_outbound(pkt_out(conn(), 15.0));
  EXPECT_TRUE(filter.admits_inbound(pkt_in(conn(), 30.0)));
  EXPECT_FALSE(filter.admits_inbound(pkt_in(conn(), 35.0)));
}

TEST(NaiveFilter, AdvanceTimeEvictsExpiredPairs) {
  NaiveFilter filter{{.state_timeout = Duration::sec(20.0)}};
  for (std::uint16_t p = 1000; p < 1100; ++p) {
    filter.record_outbound(pkt_out(conn(p), 0.0));
  }
  EXPECT_EQ(filter.active_pairs(), 100u);
  filter.advance_time(SimTime::from_sec(10.0));
  EXPECT_EQ(filter.active_pairs(), 100u);
  filter.advance_time(SimTime::from_sec(20.0));
  EXPECT_EQ(filter.active_pairs(), 0u);
}

TEST(NaiveFilter, RefreshedPairSurvivesSweep) {
  NaiveFilter filter{{.state_timeout = Duration::sec(20.0)}};
  filter.record_outbound(pkt_out(conn(), 0.0));
  filter.record_outbound(pkt_out(conn(), 10.0));
  filter.advance_time(SimTime::from_sec(20.0));  // first entry expires
  EXPECT_EQ(filter.active_pairs(), 1u);
  EXPECT_TRUE(filter.admits_inbound(pkt_in(conn(), 25.0)));
  filter.advance_time(SimTime::from_sec(30.0));
  EXPECT_EQ(filter.active_pairs(), 0u);
}

TEST(NaiveFilter, StorageGrowsWithActivePairs) {
  NaiveFilter filter{{}};
  const std::size_t empty = filter.storage_bytes();
  for (std::uint16_t p = 1000; p < 2000; ++p) {
    filter.record_outbound(pkt_out(conn(p), 0.0));
  }
  EXPECT_GT(filter.storage_bytes(), empty + 1000 * sizeof(FiveTuple));
}

// The footprint follows live pairs, not packets: one pair refreshed
// 100 000 times inside its timeout holds the same storage throughout.
TEST(NaiveFilter, RefreshingOnePairKeepsStorageConstant) {
  NaiveFilter filter{{.state_timeout = Duration::sec(20.0)}};
  filter.record_outbound(pkt_out(conn(), 0.0));
  const std::size_t bytes = filter.storage_bytes();
  EXPECT_GT(bytes, 0u);
  for (int i = 1; i <= 100'000; ++i) {
    const double t = i * 1e-4;
    filter.advance_time(SimTime::from_sec(t));
    filter.record_outbound(pkt_out(conn(), t));
  }
  EXPECT_EQ(filter.storage_bytes(), bytes);
  EXPECT_EQ(filter.active_pairs(), 1u);
}

TEST(NaiveFilter, HolePunchingMode) {
  NaiveFilter filter{{.state_timeout = Duration::sec(20.0),
                      .key_mode = KeyMode::kHolePunching}};
  filter.record_outbound(pkt_out(conn(40000, 6881), 0.0));
  // Inbound from another port of the same host is admitted.
  FiveTuple from_other_port = conn(40000, 9999);
  EXPECT_TRUE(filter.admits_inbound(pkt_in(from_other_port, 1.0)));
  // Different external host still rejected.
  FiveTuple other = conn(40000, 6881);
  other.dst_addr = Ipv4Addr{9, 9, 9, 9};
  EXPECT_FALSE(filter.admits_inbound(pkt_in(other, 1.0)));
}

TEST(NaiveFilter, InvalidTimeoutThrows) {
  EXPECT_THROW(NaiveFilter({.state_timeout = Duration::sec(0.0)}),
               std::invalid_argument);
}

TEST(NaiveFilter, UdpTracked) {
  NaiveFilter filter{{}};
  FiveTuple u = conn();
  u.protocol = Protocol::kUdp;
  filter.record_outbound(pkt_out(u, 0.0));
  EXPECT_TRUE(filter.admits_inbound(pkt_in(u, 1.0)));
  // The TCP tuple with identical endpoints is distinct state.
  EXPECT_FALSE(filter.admits_inbound(pkt_in(conn(), 1.0)));
}

// ---------------- SpiFilter ----------------

TEST(SpiFilter, OutboundCreatesFlowInboundAdmitted) {
  SpiFilter filter{{}};
  filter.record_outbound(pkt_out(conn(), 0.0, {.syn = true}));
  EXPECT_TRUE(filter.admits_inbound(pkt_in(conn(), 0.05, {.syn = true,
                                                          .ack = true})));
  EXPECT_EQ(filter.tracked_flows(), 1u);
  EXPECT_EQ(filter.flows_created(), 1u);
}

TEST(SpiFilter, UnsolicitedInboundRejected) {
  SpiFilter filter{{}};
  EXPECT_FALSE(filter.admits_inbound(pkt_in(conn(), 0.0, {.syn = true})));
}

TEST(SpiFilter, IdleTimeoutExpiresFlow) {
  SpiFilter filter{{.idle_timeout = Duration::sec(240.0)}};
  filter.record_outbound(pkt_out(conn(), 0.0, {.syn = true}));
  // Expired on access even before a sweep runs.
  EXPECT_FALSE(filter.admits_inbound(pkt_in(conn(), 240.0)));
  EXPECT_EQ(filter.tracked_flows(), 0u);
}

TEST(SpiFilter, TrafficInEitherDirectionRefreshesIdleTimer) {
  SpiFilter filter{{.idle_timeout = Duration::sec(240.0)}};
  filter.record_outbound(pkt_out(conn(), 0.0, {.syn = true}));
  EXPECT_TRUE(filter.admits_inbound(pkt_in(conn(), 200.0)));  // refresh
  EXPECT_TRUE(filter.admits_inbound(pkt_in(conn(), 439.0)));  // alive
  EXPECT_FALSE(filter.admits_inbound(pkt_in(conn(), 680.0)));
}

TEST(SpiFilter, FinClosesFlowImmediatelyWithZeroLinger) {
  SpiFilter filter{{.close_linger = Duration::sec(0.0)}};
  filter.record_outbound(pkt_out(conn(), 0.0, {.syn = true}));
  filter.record_outbound(pkt_out(conn(), 1.0, {.ack = true, .fin = true}));
  EXPECT_EQ(filter.tracked_flows(), 0u);
  EXPECT_FALSE(filter.admits_inbound(pkt_in(conn(), 1.1)));
}

TEST(SpiFilter, RstFromOutsideClosesFlow) {
  SpiFilter filter{{.close_linger = Duration::sec(0.0)}};
  filter.record_outbound(pkt_out(conn(), 0.0, {.syn = true}));
  // The RST itself belongs to the tracked flow and passes...
  EXPECT_TRUE(filter.admits_inbound(pkt_in(conn(), 0.5, {.rst = true})));
  // ...but the flow is gone afterwards.
  EXPECT_FALSE(filter.admits_inbound(pkt_in(conn(), 0.6)));
}

TEST(SpiFilter, CloseLingerKeepsFlowBriefly) {
  SpiFilter filter{{.close_linger = Duration::sec(2.0)}};
  filter.record_outbound(pkt_out(conn(), 0.0, {.syn = true}));
  filter.record_outbound(pkt_out(conn(), 1.0, {.fin = true}));
  EXPECT_TRUE(filter.admits_inbound(pkt_in(conn(), 2.5)));   // still lingering
  EXPECT_FALSE(filter.admits_inbound(pkt_in(conn(), 3.1)));  // gone
}

TEST(SpiFilter, StrayFinDoesNotCreateState) {
  SpiFilter filter{{}};
  filter.record_outbound(pkt_out(conn(), 0.0, {.fin = true}));
  EXPECT_EQ(filter.tracked_flows(), 0u);
  EXPECT_EQ(filter.flows_created(), 0u);
}

TEST(SpiFilter, SweepReclaimsIdleFlows) {
  SpiFilter filter{{.idle_timeout = Duration::sec(240.0)}};
  for (std::uint16_t p = 1000; p < 1500; ++p) {
    filter.record_outbound(pkt_out(conn(p), 0.0, {.syn = true}));
  }
  EXPECT_EQ(filter.tracked_flows(), 500u);
  filter.advance_time(SimTime::from_sec(239.0));
  EXPECT_EQ(filter.tracked_flows(), 500u);
  filter.advance_time(SimTime::from_sec(240.0));
  EXPECT_EQ(filter.tracked_flows(), 0u);
  EXPECT_EQ(filter.flows_expired(), 500u);
}

TEST(SpiFilter, StorageScalesWithFlows) {
  // The O(n) storage the paper calls out as the SPI weakness.
  SpiFilter filter{{}};
  filter.advance_time(SimTime::origin());
  const std::size_t base = filter.storage_bytes();
  for (std::uint32_t i = 0; i < 10'000; ++i) {
    FiveTuple t = conn(static_cast<std::uint16_t>(1024 + (i % 60000)));
    t.src_addr = Ipv4Addr{0x0a000000u + i / 60000};
    t.dst_addr = Ipv4Addr{0x08080808u + i};
    filter.record_outbound(pkt_out(t, 0.0, {.syn = true}));
  }
  EXPECT_GT(filter.storage_bytes(), base + 10'000 * sizeof(FiveTuple));
}

TEST(SpiFilter, RefreshingOneFlowKeepsStorageConstant) {
  SpiFilter filter{{}};
  filter.record_outbound(pkt_out(conn(), 0.0, {.syn = true}));
  const std::size_t bytes = filter.storage_bytes();
  EXPECT_GT(bytes, 0u);
  for (int i = 1; i <= 100'000; ++i) {
    const double t = i * 1e-3;
    filter.advance_time(SimTime::from_sec(t));
    if (i % 2 == 0) {
      filter.record_outbound(pkt_out(conn(), t, {.ack = true}));
    } else {
      EXPECT_TRUE(filter.admits_inbound(pkt_in(conn(), t, {.ack = true})));
    }
  }
  EXPECT_EQ(filter.storage_bytes(), bytes);
  EXPECT_EQ(filter.tracked_flows(), 1u);
}

// A closed flow ends at its close deadline (FIN/RST time + close_linger):
// from then on it admits nothing, and an outbound packet on its tuple
// opens a new flow instead of waiting out the idle timeout.
TEST(SpiFilter, TupleReopensOnceTheCloseLingerRunsOut) {
  SpiFilter filter{{.idle_timeout = Duration::sec(240.0),
                    .close_linger = Duration::sec(48.0)}};
  auto at = [&](double t) { filter.advance_time(SimTime::from_sec(t)); };
  at(0.0);
  filter.record_outbound(pkt_out(conn(), 0.0, {.syn = true}));
  at(1.0);
  filter.record_outbound(pkt_out(conn(), 1.0, {.ack = true, .fin = true}));
  // Lingering: packets pass without moving the deadline (49 s).
  at(40.0);
  EXPECT_TRUE(filter.admits_inbound(pkt_in(conn(), 40.0, {.ack = true})));
  at(49.0);
  EXPECT_FALSE(filter.admits_inbound(pkt_in(conn(), 49.0, {.ack = true})));
  EXPECT_EQ(filter.flows_expired(), 1u);
  EXPECT_EQ(filter.tracked_flows(), 0u);

  // Reopened by an outbound packet after the deadline, before any sweep.
  at(50.0);
  filter.record_outbound(pkt_out(conn(), 50.0, {.ack = true, .fin = true}));
  filter.record_outbound(pkt_out(conn(), 50.0, {.syn = true}));
  at(60.0);
  filter.record_outbound(pkt_out(conn(), 60.0, {.fin = true}));
  at(108.0);
  filter.record_outbound(pkt_out(conn(), 108.0, {.syn = true}));
  EXPECT_TRUE(filter.admits_inbound(pkt_in(conn(), 108.5, {.ack = true})));
  EXPECT_EQ(filter.flows_created(), 3u);
  EXPECT_EQ(filter.flows_expired(), 2u);
  EXPECT_EQ(filter.tracked_flows(), 1u);
}

TEST(SpiFilter, UdpFlowsTracked) {
  SpiFilter filter{{}};
  FiveTuple u = conn(50000, 53);
  u.protocol = Protocol::kUdp;
  filter.record_outbound(pkt_out(u, 0.0));
  EXPECT_TRUE(filter.admits_inbound(pkt_in(u, 0.02)));
  EXPECT_EQ(filter.tracked_flows(), 1u);
}

TEST(SpiFilter, InvalidConfigThrows) {
  EXPECT_THROW(SpiFilter({.idle_timeout = Duration::sec(0.0)}),
               std::invalid_argument);
  EXPECT_THROW(SpiFilter({.close_linger = Duration::sec(-1.0)}),
               std::invalid_argument);
}

TEST(SpiFilter, ReopenAfterCloseCreatesFreshFlow) {
  SpiFilter filter{{.close_linger = Duration::sec(0.0)}};
  filter.record_outbound(pkt_out(conn(), 0.0, {.syn = true}));
  filter.record_outbound(pkt_out(conn(), 1.0, {.fin = true}));
  EXPECT_EQ(filter.tracked_flows(), 0u);
  filter.record_outbound(pkt_out(conn(), 2.0, {.syn = true}));
  EXPECT_EQ(filter.tracked_flows(), 1u);
  EXPECT_TRUE(filter.admits_inbound(pkt_in(conn(), 2.1)));
  EXPECT_EQ(filter.flows_created(), 2u);
}

// ---------------- Differential against map + FIFO models ----------------
//
// The reference models keep one map entry per key and a FIFO of every
// insert and refresh, which the sweep pops while `time + timeout <= now`
// (an entry superseded by a later refresh is skipped). Driven within the
// StateFilter contract -- non-decreasing times, advance_time(t) before a
// packet callback at t -- every verdict and counter of the filters must
// equal the models' after every call.

class ReferenceNaiveFilter {
 public:
  ReferenceNaiveFilter(Duration timeout, KeyMode mode)
      : timeout_(timeout), mode_(mode) {}

  void advance_time(SimTime now) {
    while (!queue_.empty() && queue_.front().first + timeout_ <= now) {
      const FiveTuple key = queue_.front().second;
      queue_.pop_front();
      const auto it = expiry_.find(key);
      if (it != expiry_.end() && it->second <= now) expiry_.erase(it);
    }
  }

  void record_outbound(const PacketRecord& pkt) {
    const FiveTuple key = key_of(pkt.tuple);
    expiry_.insert_or_assign(key, pkt.timestamp + timeout_);
    queue_.emplace_back(pkt.timestamp, key);
  }

  bool admits_inbound(const PacketRecord& pkt) const {
    const auto it = expiry_.find(key_of(pkt.tuple.inverse()));
    return it != expiry_.end() && pkt.timestamp < it->second;
  }

  std::size_t active_pairs() const { return expiry_.size(); }

 private:
  FiveTuple key_of(FiveTuple t) const {
    if (mode_ == KeyMode::kHolePunching) t.dst_port = 0;
    return t;
  }

  Duration timeout_;
  KeyMode mode_;
  std::unordered_map<FiveTuple, SimTime, FiveTupleHash> expiry_;
  std::deque<std::pair<SimTime, FiveTuple>> queue_;
};

class ReferenceSpiFilter {
 public:
  explicit ReferenceSpiFilter(const SpiFilterConfig& config)
      : config_(config) {}

  void advance_time(SimTime now) {
    while (!queue_.empty() &&
           queue_.front().first + config_.idle_timeout <= now) {
      const FiveTuple key = queue_.front().second;
      queue_.pop_front();
      const auto it = flows_.find(key);
      if (it == flows_.end()) continue;
      if (it->second.last + config_.idle_timeout <= now ||
          it->second.remove_at <= now) {
        flows_.erase(it);
        ++expired_;
      }
    }
  }

  void record_outbound(const PacketRecord& pkt) {
    const auto it = flows_.find(pkt.tuple);
    if (it == flows_.end()) {
      if (closes(pkt)) return;
      flows_.emplace(pkt.tuple, Flow{pkt.timestamp, SimTime::infinite()});
      queue_.emplace_back(pkt.timestamp, pkt.tuple);
      ++created_;
      return;
    }
    touch(it, pkt);
  }

  bool admits_inbound(const PacketRecord& pkt) {
    const auto it = flows_.find(pkt.tuple.inverse());
    if (it == flows_.end()) return false;
    if (it->second.remove_at <= pkt.timestamp) return false;
    if (it->second.last + config_.idle_timeout <= pkt.timestamp) {
      flows_.erase(it);
      ++expired_;
      return false;
    }
    touch(it, pkt);
    return true;
  }

  std::size_t tracked_flows() const { return flows_.size(); }
  std::uint64_t flows_created() const { return created_; }
  std::uint64_t flows_expired() const { return expired_; }

 private:
  struct Flow {
    SimTime last;
    SimTime remove_at;
  };
  using Flows = std::unordered_map<FiveTuple, Flow, FiveTupleHash>;

  static bool closes(const PacketRecord& pkt) {
    return pkt.is_tcp() && (pkt.flags.fin || pkt.flags.rst);
  }

  void touch(Flows::iterator it, const PacketRecord& pkt) {
    it->second.last = pkt.timestamp;
    queue_.emplace_back(pkt.timestamp, it->first);
    if (!closes(pkt)) return;
    it->second.remove_at = pkt.timestamp + config_.close_linger;
    if (config_.close_linger.is_zero()) {
      flows_.erase(it);
      ++expired_;
    }
  }

  SpiFilterConfig config_;
  Flows flows_;
  std::deque<std::pair<SimTime, FiveTuple>> queue_;
  std::uint64_t created_ = 0;
  std::uint64_t expired_ = 0;
};

// 48 client endpoints, each talking to two ports of one server (so the
// hole-punching key merges them), half TCP and half UDP.
std::vector<FiveTuple> differential_tuples(Rng& rng) {
  std::vector<FiveTuple> tuples;
  for (std::uint32_t i = 0; i < 48; ++i) {
    const Protocol protocol = i % 2 == 0 ? Protocol::kTcp : Protocol::kUdp;
    const Ipv4Addr client{(140u << 24) | (112u << 16) | i};
    const Ipv4Addr server{static_cast<std::uint32_t>(rng.next_u64())};
    const auto sport =
        static_cast<std::uint16_t>(1024 + rng.next_below(64000));
    for (int j = 0; j < 2; ++j) {
      const auto dport =
          static_cast<std::uint16_t>(1 + rng.next_below(65535));
      tuples.push_back(FiveTuple{protocol, client, sport, server, dport});
    }
  }
  return tuples;
}

// Drives `calls` seeded calls through `step(op, pkt)`, where op 0 is
// advance_time, 1 record_outbound and 2 admits_inbound. Time moves on a
// timeout/16 grid, now and then by up to 2.5 timeouts at once; half the
// packets go to 8 hot tuples, the rest anywhere over the 96 tuples and
// their inverses. TCP packets carry SYN, FIN or RST about one time in
// seven each.
template <typename Step>
void drive_differential(Duration timeout, std::uint64_t seed, Step step) {
  constexpr std::size_t kCalls = 200'000;
  Rng rng{seed};
  const std::vector<FiveTuple> tuples = differential_tuples(rng);
  const Duration grid = timeout / 16;
  SimTime now = SimTime::origin();
  for (std::size_t call = 0; call < kCalls; ++call) {
    const std::uint64_t move = rng.next_below(100);
    const SimTime before = now;
    if (move >= 98) {
      now += grid * static_cast<double>(rng.next_below(40));
    } else if (move >= 80) {
      now += grid;
    }
    PacketRecord pkt;
    pkt.timestamp = now;
    if (now != before || rng.next_below(8) == 0) step(0, pkt);
    const std::size_t index = rng.next_bool(0.5)
                                  ? rng.next_below(8)
                                  : rng.next_below(tuples.size());
    pkt.tuple = rng.next_bool(0.5) ? tuples[index] : tuples[index].inverse();
    switch (rng.next_below(7)) {
      case 0: pkt.flags.syn = true; break;
      case 1: pkt.flags = {.ack = true, .fin = true}; break;
      case 2: pkt.flags.rst = true; break;
      default: pkt.flags.ack = true; break;
    }
    step(rng.next_bool(0.4) ? 1 : 2, pkt);
    if (::testing::Test::HasFailure()) {
      ADD_FAILURE() << "first mismatch at call " << call << ", "
                    << now.usec() << " us";
      return;
    }
  }
}

void run_naive_differential(Duration timeout, KeyMode mode,
                            std::uint64_t seed) {
  NaiveFilter filter{{.state_timeout = timeout, .key_mode = mode}};
  ReferenceNaiveFilter model{timeout, mode};
  std::uint64_t admitted = 0;
  std::uint64_t refused = 0;
  drive_differential(timeout, seed, [&](int op, const PacketRecord& pkt) {
    if (op == 0) {
      filter.advance_time(pkt.timestamp);
      model.advance_time(pkt.timestamp);
    } else if (op == 1) {
      filter.record_outbound(pkt);
      model.record_outbound(pkt);
    } else {
      const bool expected = model.admits_inbound(pkt);
      EXPECT_EQ(filter.admits_inbound(pkt), expected);
      (expected ? admitted : refused) += 1;
    }
    EXPECT_EQ(filter.active_pairs(), model.active_pairs());
  });
  EXPECT_GT(admitted, 10'000u);
  EXPECT_GT(refused, 10'000u);
}

TEST(NaiveFilterDifferential, HalfSecondFullTupleMatchesMapModel) {
  run_naive_differential(Duration::msec(500), KeyMode::kFullTuple, 0x4a1e01);
}

TEST(NaiveFilterDifferential, HalfSecondHolePunchingMatchesMapModel) {
  run_naive_differential(Duration::msec(500), KeyMode::kHolePunching,
                         0x4a1e02);
}

TEST(NaiveFilterDifferential, TwentySecondFullTupleMatchesMapModel) {
  run_naive_differential(Duration::sec(20.0), KeyMode::kFullTuple, 0x4a1e03);
}

TEST(NaiveFilterDifferential, TwentySecondHolePunchingMatchesMapModel) {
  run_naive_differential(Duration::sec(20.0), KeyMode::kHolePunching,
                         0x4a1e04);
}

void run_spi_differential(const SpiFilterConfig& config, std::uint64_t seed) {
  SpiFilter filter{config};
  ReferenceSpiFilter model{config};
  std::uint64_t admitted = 0;
  drive_differential(config.idle_timeout, seed,
                     [&](int op, const PacketRecord& pkt) {
    if (op == 0) {
      filter.advance_time(pkt.timestamp);
      model.advance_time(pkt.timestamp);
    } else if (op == 1) {
      filter.record_outbound(pkt);
      model.record_outbound(pkt);
    } else {
      const bool expected = model.admits_inbound(pkt);
      EXPECT_EQ(filter.admits_inbound(pkt), expected);
      admitted += expected ? 1 : 0;
    }
    EXPECT_EQ(filter.tracked_flows(), model.tracked_flows());
    EXPECT_EQ(filter.flows_created(), model.flows_created());
    EXPECT_EQ(filter.flows_expired(), model.flows_expired());
  });
  // Flows were admitted, closed or timed out, and opened again.
  EXPECT_GT(admitted, 10'000u);
  EXPECT_GT(model.flows_expired(), 1'000u);
  EXPECT_GT(model.flows_created(), 2 * model.tracked_flows() + 1'000);
}

TEST(SpiFilterDifferential, CloseAtFinMatchesMapModel) {
  run_spi_differential({.idle_timeout = Duration::sec(240.0),
                        .close_linger = Duration{}},
                       0x5b1001);
}

TEST(SpiFilterDifferential, LingerEqualToIdleTimeoutMatchesMapModel) {
  run_spi_differential({.idle_timeout = Duration::sec(240.0),
                        .close_linger = Duration::sec(240.0)},
                       0x5b1002);
}

TEST(SpiFilterDifferential, ShortIdleTimeoutMatchesMapModel) {
  run_spi_differential({.idle_timeout = Duration::msec(500),
                        .close_linger = Duration::msec(500)},
                       0x5b1003);
}

}  // namespace
}  // namespace upbound
