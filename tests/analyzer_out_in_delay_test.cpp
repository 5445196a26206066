#include "analyzer/out_in_delay.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <map>
#include <tuple>
#include <vector>

#include "util/rng.h"

namespace upbound {
namespace {

FiveTuple out_tuple(std::uint16_t sport = 40000) {
  return FiveTuple{Protocol::kTcp, Ipv4Addr{140, 112, 30, 5}, sport,
                   Ipv4Addr{61, 2, 3, 4}, 80};
}

PacketRecord pkt(const FiveTuple& t, double t_sec) {
  PacketRecord p;
  p.timestamp = SimTime::from_sec(t_sec);
  p.tuple = t;
  return p;
}

TEST(OutInDelay, MeasuresRoundTrip) {
  OutInDelayTracker tracker;
  tracker.on_packet(pkt(out_tuple(), 1.0), Direction::kOutbound);
  tracker.on_packet(pkt(out_tuple().inverse(), 1.25), Direction::kInbound);
  ASSERT_EQ(tracker.delays().count(), 1u);
  EXPECT_DOUBLE_EQ(tracker.delays().sorted()[0], 0.25);
}

TEST(OutInDelay, InboundWithoutPriorOutboundIgnored) {
  OutInDelayTracker tracker;
  tracker.on_packet(pkt(out_tuple().inverse(), 1.0), Direction::kInbound);
  EXPECT_EQ(tracker.delays().count(), 0u);
}

TEST(OutInDelay, OutboundRefreshUpdatesTimestamp) {
  OutInDelayTracker tracker;
  tracker.on_packet(pkt(out_tuple(), 1.0), Direction::kOutbound);
  tracker.on_packet(pkt(out_tuple(), 5.0), Direction::kOutbound);
  tracker.on_packet(pkt(out_tuple().inverse(), 5.1), Direction::kInbound);
  ASSERT_EQ(tracker.delays().count(), 1u);
  EXPECT_NEAR(tracker.delays().sorted()[0], 0.1, 1e-9);
}

TEST(OutInDelay, MultipleInboundSampleSameOutbound) {
  // Each inbound packet of the connection yields a sample against the
  // latest outbound packet.
  OutInDelayTracker tracker;
  tracker.on_packet(pkt(out_tuple(), 1.0), Direction::kOutbound);
  tracker.on_packet(pkt(out_tuple().inverse(), 1.2), Direction::kInbound);
  tracker.on_packet(pkt(out_tuple().inverse(), 1.4), Direction::kInbound);
  EXPECT_EQ(tracker.delays().count(), 2u);
}

TEST(OutInDelay, ExpiryDropsStalePairs) {
  OutInDelayTracker tracker{Duration::sec(600.0)};
  tracker.on_packet(pkt(out_tuple(), 0.0), Direction::kOutbound);
  // Reply after the expiry timer: the pair is treated as port reuse.
  tracker.on_packet(pkt(out_tuple().inverse(), 601.0), Direction::kInbound);
  EXPECT_EQ(tracker.delays().count(), 0u);
  EXPECT_EQ(tracker.expired_pairs(), 1u);
}

TEST(OutInDelay, SweepBoundsTrackedPairs) {
  OutInDelayTracker tracker{Duration::sec(10.0)};
  for (int i = 0; i < 1000; ++i) {
    tracker.on_packet(pkt(out_tuple(static_cast<std::uint16_t>(10000 + i)),
                          i * 0.001),
                      Direction::kOutbound);
  }
  EXPECT_EQ(tracker.tracked_pairs(), 1000u);
  // A packet far in the future sweeps everything.
  tracker.on_packet(pkt(out_tuple(9), 100.0), Direction::kOutbound);
  EXPECT_EQ(tracker.tracked_pairs(), 1u);
}

TEST(OutInDelay, DistinctConnectionsIndependent) {
  OutInDelayTracker tracker;
  tracker.on_packet(pkt(out_tuple(1000), 0.0), Direction::kOutbound);
  tracker.on_packet(pkt(out_tuple(2000), 1.0), Direction::kOutbound);
  tracker.on_packet(pkt(out_tuple(2000).inverse(), 1.5),
                    Direction::kInbound);
  tracker.on_packet(pkt(out_tuple(1000).inverse(), 2.0),
                    Direction::kInbound);
  ASSERT_EQ(tracker.delays().count(), 2u);
  EXPECT_DOUBLE_EQ(tracker.delays().sorted()[0], 0.5);
  EXPECT_DOUBLE_EQ(tracker.delays().sorted()[1], 2.0);
}

TEST(OutInDelay, ExpiredPairComesBackOnItsNextOutboundPacket) {
  OutInDelayTracker tracker{Duration::sec(2.0)};
  tracker.on_packet(pkt(out_tuple(), 0.0), Direction::kOutbound);
  tracker.on_packet(pkt(out_tuple(7), 5.0), Direction::kOutbound);  // sweeps
  EXPECT_EQ(tracker.expired_pairs(), 1u);
  EXPECT_EQ(tracker.tracked_pairs(), 1u);
  tracker.on_packet(pkt(out_tuple().inverse(), 5.5), Direction::kInbound);
  EXPECT_EQ(tracker.delays().count(), 0u);  // expired: no sample
  tracker.on_packet(pkt(out_tuple(), 6.0), Direction::kOutbound);
  tracker.on_packet(pkt(out_tuple().inverse(), 6.5), Direction::kInbound);
  EXPECT_EQ(tracker.tracked_pairs(), 2u);
  ASSERT_EQ(tracker.delays().count(), 1u);
  EXPECT_DOUBLE_EQ(tracker.delays().sorted()[0], 0.5);
}

// The documented rule for a timestamp that regressed: the refresh stamps
// the pair with its own (earlier) time and makes it the newest entry, so
// it expires only once every pair refreshed before it has.
TEST(OutInDelay, RegressedRefreshWaitsBehindNewerPairs) {
  OutInDelayTracker tracker{Duration::sec(2.0)};
  const FiveTuple a = out_tuple(1000);
  const FiveTuple b = out_tuple(2000);
  const FiveTuple c = out_tuple(3000);
  tracker.on_packet(pkt(a, 10.0), Direction::kOutbound);
  tracker.on_packet(pkt(b, 11.0), Direction::kOutbound);
  tracker.on_packet(pkt(a, 9.5), Direction::kOutbound);  // regressed
  // At 12.0 a is overdue (9.5 + 2 <= 12) but waits behind b (due 13.0).
  tracker.on_packet(pkt(c, 12.0), Direction::kOutbound);
  EXPECT_EQ(tracker.tracked_pairs(), 3u);
  EXPECT_EQ(tracker.expired_pairs(), 0u);
  // An inbound reply still compares against the stored time: 2.2 s > T_e
  // drops the pair instead of sampling it.
  tracker.on_packet(pkt(a.inverse(), 11.7), Direction::kInbound);
  EXPECT_EQ(tracker.delays().count(), 0u);
  EXPECT_EQ(tracker.expired_pairs(), 1u);
  EXPECT_EQ(tracker.tracked_pairs(), 2u);
  tracker.on_packet(pkt(a, 11.8), Direction::kOutbound);  // a is back
  // At 13.5 b (due 13.0) goes, then c (due 14.0) stops the sweep.
  tracker.on_packet(pkt(c, 13.5), Direction::kOutbound);
  EXPECT_EQ(tracker.expired_pairs(), 2u);
  EXPECT_EQ(tracker.tracked_pairs(), 2u);
  tracker.on_packet(pkt(a.inverse(), 13.6), Direction::kInbound);
  tracker.on_packet(pkt(b.inverse(), 13.6), Direction::kInbound);
  ASSERT_EQ(tracker.delays().count(), 1u);
  EXPECT_NEAR(tracker.delays().sorted()[0], 1.8, 1e-9);
}

/// The tracker as a timestamp map plus a FIFO of every outbound packet:
/// the straightforward form of the three steps, for time-sorted input.
class QueueModel {
 public:
  explicit QueueModel(Duration expiry) : expiry_(expiry) {}

  void on_packet(const PacketRecord& p, Direction dir) {
    while (!queue_.empty() && queue_.front().first + expiry_ <= p.timestamp) {
      const auto it = last_.find(key(queue_.front().second));
      queue_.pop_front();
      if (it != last_.end() && it->second + expiry_ <= p.timestamp) {
        last_.erase(it);
        ++expired;
      }
    }
    if (dir == Direction::kOutbound) {
      last_[key(p.tuple)] = p.timestamp;
      queue_.emplace_back(p.timestamp, p.tuple);
      return;
    }
    const auto it = last_.find(key(p.tuple.inverse()));
    if (it == last_.end()) return;
    const Duration delay = p.timestamp - it->second;
    if (delay > expiry_) {
      last_.erase(it);
      ++expired;
      return;
    }
    delays.push_back(delay.to_sec());
  }

  std::size_t tracked() const { return last_.size(); }

  std::vector<double> delays;
  std::uint64_t expired = 0;

 private:
  using Key =
      std::tuple<std::uint32_t, std::uint16_t, std::uint32_t, std::uint16_t>;

  static Key key(const FiveTuple& t) {
    return {t.src_addr.value(), t.src_port, t.dst_addr.value(), t.dst_port};
  }

  Duration expiry_;
  std::map<Key, SimTime> last_;
  std::deque<std::pair<SimTime, FiveTuple>> queue_;
};

// On time-sorted traces (ties included) the tracker gives the model's
// samples, expirations and live pair count after every packet.
TEST(OutInDelay, MatchesQueueModelOnSortedTraces) {
  Rng rng{1919};
  for (const double expiry : {0.05, 0.5, 2.0, 600.0}) {
    SCOPED_TRACE(expiry);
    OutInDelayTracker tracker{Duration::sec(expiry)};
    QueueModel model{Duration::sec(expiry)};
    std::int64_t usec = 0;
    for (int i = 0; i < 20000; ++i) {
      usec += static_cast<std::int64_t>(rng.next_below(4) == 0
                                            ? 0
                                            : rng.next_below(20000));
      const FiveTuple t = out_tuple(static_cast<std::uint16_t>(
          40000 + rng.next_below(300)));
      const bool outbound = rng.next_bool(0.5);
      PacketRecord p;
      p.timestamp = SimTime::from_usec(usec);
      p.tuple = outbound ? t : t.inverse();
      const Direction dir =
          outbound ? Direction::kOutbound : Direction::kInbound;
      tracker.on_packet(p, dir);
      model.on_packet(p, dir);
      ASSERT_EQ(tracker.tracked_pairs(), model.tracked()) << "packet " << i;
      ASSERT_EQ(tracker.expired_pairs(), model.expired) << "packet " << i;
      ASSERT_EQ(tracker.delays().count(), model.delays.size())
          << "packet " << i;
    }
    std::sort(model.delays.begin(), model.delays.end());
    EXPECT_EQ(tracker.delays().sorted(), model.delays);
    EXPECT_GT(model.delays.size(), 0u);
  }
}

// Pairs whose timer ran out are reclaimed: ten rounds of 10 000 fresh
// pairs, each left to expire, need no more room than one round.
TEST(OutInDelay, ExpiredPairsAreReclaimed) {
  constexpr std::uint32_t kRounds = 10;
  constexpr std::uint32_t kPerRound = 10'000;
  OutInDelayTracker tracker{Duration::sec(1.0)};
  std::size_t one_round = 0;
  for (std::uint32_t round = 0; round < kRounds; ++round) {
    const SimTime start = SimTime::from_sec(10.0 * round);
    for (std::uint32_t i = 0; i < kPerRound; ++i) {
      PacketRecord p;
      p.timestamp = start + Duration::usec(i);
      p.tuple = FiveTuple{Protocol::kTcp, Ipv4Addr{140, 112, 30, 5},
                          static_cast<std::uint16_t>(1024 + i % 60000),
                          Ipv4Addr{(61u << 24) | (round << 16) | i}, 80};
      tracker.on_packet(p, Direction::kOutbound);
    }
    EXPECT_EQ(tracker.tracked_pairs(), kPerRound);
    if (round == 0) one_round = tracker.capacity();
    EXPECT_LE(tracker.capacity(), one_round) << "round " << round;
    tracker.on_packet(pkt(out_tuple(), 10.0 * round + 5.0),
                      Direction::kInbound);
    EXPECT_EQ(tracker.tracked_pairs(), 0u);
    EXPECT_EQ(tracker.expired_pairs(), std::uint64_t{round + 1} * kPerRound);
  }
  EXPECT_GT(one_round, 0u);
}

TEST(OutInDelay, InvalidExpiryThrows) {
  EXPECT_THROW(OutInDelayTracker{Duration::sec(0.0)}, std::invalid_argument);
}

}  // namespace
}  // namespace upbound
