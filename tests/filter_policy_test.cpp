// Tests for RED drop policy (Eq. 1), the bandwidth meter, and the
// blocked-connection store.
#include <gtest/gtest.h>

#include "filter/bandwidth_meter.h"
#include "filter/blocklist.h"
#include "filter/drop_policy.h"

namespace upbound {
namespace {

// ---------------- RedDropPolicy (paper Eq. 1) ----------------

TEST(RedDropPolicy, ZeroBelowLow) {
  RedDropPolicy red{50e6, 100e6};
  EXPECT_DOUBLE_EQ(red.drop_probability(0.0), 0.0);
  EXPECT_DOUBLE_EQ(red.drop_probability(49.9e6), 0.0);
  EXPECT_DOUBLE_EQ(red.drop_probability(50e6), 0.0);  // b <= L
}

TEST(RedDropPolicy, OneAboveHigh) {
  RedDropPolicy red{50e6, 100e6};
  EXPECT_DOUBLE_EQ(red.drop_probability(100e6), 1.0);  // b >= H
  EXPECT_DOUBLE_EQ(red.drop_probability(500e6), 1.0);
}

TEST(RedDropPolicy, LinearRampBetween) {
  RedDropPolicy red{50e6, 100e6};
  EXPECT_DOUBLE_EQ(red.drop_probability(75e6), 0.5);
  EXPECT_DOUBLE_EQ(red.drop_probability(60e6), 0.2);
  EXPECT_DOUBLE_EQ(red.drop_probability(95e6), 0.9);
}

TEST(RedDropPolicy, RampIsMonotone) {
  RedDropPolicy red{10e6, 20e6};
  double prev = -1.0;
  for (double b = 0; b <= 30e6; b += 1e6) {
    const double p = red.drop_probability(b);
    EXPECT_GE(p, prev);
    EXPECT_GE(p, 0.0);
    EXPECT_LE(p, 1.0);
    prev = p;
  }
}

TEST(RedDropPolicy, InvalidThresholdsThrow) {
  EXPECT_THROW(RedDropPolicy(100e6, 50e6), std::invalid_argument);
  EXPECT_THROW(RedDropPolicy(50e6, 50e6), std::invalid_argument);
  EXPECT_THROW(RedDropPolicy(-1.0, 50e6), std::invalid_argument);
}

TEST(ConstantDropPolicy, FixedProbability) {
  ConstantDropPolicy p{0.25};
  EXPECT_DOUBLE_EQ(p.drop_probability(0.0), 0.25);
  EXPECT_DOUBLE_EQ(p.drop_probability(1e12), 0.25);
  EXPECT_THROW(ConstantDropPolicy{1.5}, std::invalid_argument);
  EXPECT_THROW(ConstantDropPolicy{-0.1}, std::invalid_argument);
}

// ---------------- BandwidthMeter ----------------

TEST(BandwidthMeter, SimpleRate) {
  BandwidthMeter meter{Duration::sec(1.0)};
  // 125 KB in one second = 1 Mbps.
  for (int i = 0; i < 10; ++i) {
    meter.add(SimTime::from_sec(i * 0.1), 12'500);
  }
  EXPECT_DOUBLE_EQ(meter.bits_per_sec(SimTime::from_sec(0.95)), 1e6);
}

TEST(BandwidthMeter, OldTrafficAges) {
  BandwidthMeter meter{Duration::sec(1.0)};
  meter.add(SimTime::from_sec(0.0), 100'000);
  EXPECT_GT(meter.bits_per_sec(SimTime::from_sec(0.5)), 0.0);
  // After the window passes, the burst no longer counts.
  EXPECT_DOUBLE_EQ(meter.bits_per_sec(SimTime::from_sec(1.5)), 0.0);
}

TEST(BandwidthMeter, PartialAging) {
  BandwidthMeter meter{Duration::sec(1.0)};
  meter.add(SimTime::from_sec(0.05), 1000);
  meter.add(SimTime::from_sec(0.95), 1000);
  // At t=1.04 the first slot (t in [0, 0.1)) has expired, the second has
  // not.
  const double rate = meter.bits_per_sec(SimTime::from_sec(1.04));
  EXPECT_DOUBLE_EQ(rate, 1000 * 8.0);
}

TEST(BandwidthMeter, LongGapZeroesEverything) {
  BandwidthMeter meter{Duration::sec(1.0)};
  for (int i = 0; i < 100; ++i) meter.add(SimTime::from_sec(i * 0.01), 500);
  EXPECT_GT(meter.bits_per_sec(SimTime::from_sec(1.0)), 0.0);
  EXPECT_DOUBLE_EQ(meter.bits_per_sec(SimTime::from_sec(100.0)), 0.0);
}

TEST(BandwidthMeter, AccumulatesWithinSlot) {
  BandwidthMeter meter{Duration::sec(1.0)};
  meter.add(SimTime::from_sec(0.01), 100);
  meter.add(SimTime::from_sec(0.02), 100);
  meter.add(SimTime::from_sec(0.03), 100);
  EXPECT_DOUBLE_EQ(meter.bits_per_sec(SimTime::from_sec(0.05)), 300 * 8.0);
}

TEST(BandwidthMeter, InvalidConfigThrows) {
  EXPECT_THROW(BandwidthMeter(Duration::sec(0.0)), std::invalid_argument);
  // 1 000 003 us is not divisible into the ring's 10 equal microsecond
  // slots.
  EXPECT_THROW(BandwidthMeter(Duration::usec(1'000'003)),
               std::invalid_argument);
}

TEST(BandwidthMeter, NegativeTimestampsUseFloorSlots) {
  // Regression: slot indexing used truncating division/modulo, which maps
  // pre-origin times (negative usec, legal SimTime values) to the wrong
  // slot -- e.g. t=-0.05s truncates to slot 0 alongside t=+0.05s -- and
  // produces negative (out-of-range) array indexes in add(). With floor
  // semantics the window behaves identically on both sides of the origin.
  BandwidthMeter meter{Duration::sec(1.0)};
  meter.add(SimTime::from_sec(-2.0), 100'000);
  // Still inside the 1 s window at t=-1.5...
  EXPECT_GT(meter.bits_per_sec(SimTime::from_sec(-1.5)), 0.0);
  // ...fully aged out once the window has passed, before the origin.
  EXPECT_DOUBLE_EQ(meter.bits_per_sec(SimTime::from_sec(-0.5)), 0.0);
}

TEST(BandwidthMeter, CrossOriginWindowAgesSlotBySlot) {
  BandwidthMeter meter{Duration::sec(1.0)};
  meter.add(SimTime::from_sec(-0.55), 1000);  // slot [-0.6, -0.5)
  meter.add(SimTime::from_sec(-0.05), 1000);  // slot [-0.1, 0.0)
  // At t=0.04 both contributions are inside the window.
  EXPECT_DOUBLE_EQ(meter.bits_per_sec(SimTime::from_sec(0.04)), 2000 * 8.0);
  // At t=0.44 the first slot has expired, the second has not.
  EXPECT_DOUBLE_EQ(meter.bits_per_sec(SimTime::from_sec(0.44)), 1000 * 8.0);
  // At t=0.94 everything pre-origin has aged out.
  EXPECT_DOUBLE_EQ(meter.bits_per_sec(SimTime::from_sec(0.94)), 0.0);
}

TEST(BandwidthMeter, RegressedTimestampsClampToHighWater) {
  // Regression: a backwards timestamp (clock fault, merge artifact) used
  // to rewind the window cursor, which could misattribute bytes to slots
  // already aged out or spuriously zero live slots. Regressions now clamp
  // to the high-water mark and are counted.
  BandwidthMeter meter{Duration::sec(1.0)};
  meter.add(SimTime::from_sec(5.0), 1000);
  EXPECT_EQ(meter.clamp_events(), 0u);

  meter.add(SimTime::from_sec(4.2), 500);  // regressed: lands at t=5.0
  EXPECT_EQ(meter.clamp_events(), 1u);
  EXPECT_DOUBLE_EQ(meter.bits_per_sec(SimTime::from_sec(5.0)), 1500 * 8.0);

  // A regressed read also clamps instead of aging the window backwards,
  // but is NOT counted: only data-bearing add() regressions are the clock
  // anomaly the health monitor watches for (live mode polls the meter on
  // a tick cadence, and a poll racing a just-metered packet must not
  // register as a fault).
  EXPECT_DOUBLE_EQ(meter.bits_per_sec(SimTime::from_sec(1.0)), 1500 * 8.0);
  EXPECT_EQ(meter.clamp_events(), 1u);

  // Monotonic progress resumes from the high-water mark, not the
  // regressed value: the traffic ages out on the original schedule.
  EXPECT_DOUBLE_EQ(meter.bits_per_sec(SimTime::from_sec(6.5)), 0.0);
}

TEST(BandwidthMeter, AdvanceAgesWithoutBooking) {
  BandwidthMeter meter{Duration::sec(1.0)};
  meter.add(SimTime::from_sec(0.0), 1000);
  // Mid-window advance keeps the traffic; regressed advance is a silent
  // clamp; past-window advance decays everything out.
  meter.advance(SimTime::from_sec(0.5));
  EXPECT_DOUBLE_EQ(meter.bits_per_sec(SimTime::from_sec(0.5)), 1000 * 8.0);
  meter.advance(SimTime::from_sec(0.2));
  EXPECT_EQ(meter.clamp_events(), 0u);
  meter.advance(SimTime::from_sec(2.0));
  EXPECT_DOUBLE_EQ(meter.bits_per_sec(SimTime::from_sec(2.0)), 0.0);
  // A later add() must land in the advanced head slot, not a stale one.
  meter.add(SimTime::from_sec(2.0), 500);
  EXPECT_DOUBLE_EQ(meter.bits_per_sec(SimTime::from_sec(2.0)), 500 * 8.0);
}

TEST(BandwidthMeter, FirstCallNeverCountsAsClamp) {
  BandwidthMeter meter{Duration::sec(1.0)};
  // Pre-origin first touch: nothing to clamp against yet.
  meter.add(SimTime::from_sec(-3.0), 100);
  EXPECT_EQ(meter.clamp_events(), 0u);
}

TEST(BandwidthMeter, NegativeMirrorsPositiveBehaviour) {
  // The same offered pattern shifted by a whole number of windows must
  // yield the same estimates, whether it straddles the origin or not.
  BandwidthMeter positive{Duration::sec(1.0)};
  BandwidthMeter negative{Duration::sec(1.0)};
  const Duration shift = Duration::sec(5.0);
  for (int i = 0; i < 30; ++i) {
    const SimTime t = SimTime::from_sec(i * 0.1);
    positive.add(t, 2500);
    negative.add(t - shift, 2500);
  }
  for (double probe = 0.05; probe < 3.0; probe += 0.3) {
    EXPECT_DOUBLE_EQ(
        positive.bits_per_sec(SimTime::from_sec(probe)),
        negative.bits_per_sec(SimTime::from_sec(probe) - shift))
        << "probe=" << probe;
  }
}

TEST(BandwidthMeter, SteadyStateMatchesOfferedLoad) {
  BandwidthMeter meter{Duration::sec(2.0)};
  // Offer 8 Mbps for 10 seconds in 10 ms packets of 10 KB.
  for (int i = 0; i < 1000; ++i) {
    meter.add(SimTime::from_sec(i * 0.01), 10'000);
  }
  const double rate = meter.bits_per_sec(SimTime::from_sec(9.99));
  EXPECT_NEAR(rate, 8e6, 8e6 * 0.02);
}

// ---------------- BlockList ----------------

FiveTuple sigma() {
  return FiveTuple{Protocol::kTcp, Ipv4Addr{61, 1, 1, 1}, 12345,
                   Ipv4Addr{140, 112, 30, 5}, 6881};
}

TEST(BlockList, BlocksBothDirections) {
  BlockList list;
  list.block(sigma(), SimTime::origin());
  EXPECT_TRUE(list.is_blocked(sigma(), SimTime::from_sec(1.0)));
  EXPECT_TRUE(list.is_blocked(sigma().inverse(), SimTime::from_sec(1.0)));
  EXPECT_EQ(list.size(), 1u);
}

TEST(BlockList, UnrelatedTupleNotBlocked) {
  BlockList list;
  list.block(sigma(), SimTime::origin());
  FiveTuple other = sigma();
  other.src_port = 54321;
  EXPECT_FALSE(list.is_blocked(other, SimTime::from_sec(1.0)));
}

TEST(BlockList, DoubleBlockCountsOnce) {
  BlockList list;
  list.block(sigma(), SimTime::origin());
  list.block(sigma().inverse(), SimTime::from_sec(1.0));
  EXPECT_EQ(list.size(), 1u);
  EXPECT_EQ(list.total_blocked(), 1u);
}

TEST(BlockList, ZeroTtlNeverExpires) {
  BlockList list{Duration{}};
  list.block(sigma(), SimTime::origin());
  EXPECT_TRUE(list.is_blocked(sigma(), SimTime::from_sec(1e6)));
}

TEST(BlockList, TtlExpiresSilentPeers) {
  BlockList list{Duration::sec(60.0)};
  list.block(sigma(), SimTime::origin());
  EXPECT_TRUE(list.is_blocked(sigma(), SimTime::from_sec(59.0)));
  EXPECT_FALSE(list.is_blocked(sigma(), SimTime::from_sec(125.0)));
  EXPECT_EQ(list.size(), 0u);
}

TEST(BlockList, RetriesKeepBlockAlive) {
  BlockList list{Duration::sec(60.0)};
  list.block(sigma(), SimTime::origin());
  // A retry every 30 s keeps refreshing the TTL.
  for (int i = 1; i <= 10; ++i) {
    EXPECT_TRUE(list.is_blocked(sigma(), SimTime::from_sec(i * 30.0)));
  }
  // Silence for > TTL finally clears it.
  EXPECT_FALSE(list.is_blocked(sigma(), SimTime::from_sec(10 * 30.0 + 61.0)));
}

TEST(BlockList, TotalBlockedCountsDistinctConnections) {
  BlockList list;
  for (std::uint16_t p = 1; p <= 50; ++p) {
    FiveTuple t = sigma();
    t.src_port = p;
    list.block(t, SimTime::origin());
  }
  EXPECT_EQ(list.total_blocked(), 50u);
  EXPECT_EQ(list.size(), 50u);
}

}  // namespace
}  // namespace upbound
