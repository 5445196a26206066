// ExpirySet: the expiry rule shared by the blocklist, the out-in tracker,
// the naive and SPI baselines and the FTP expectations.
#include "util/expiry_set.h"

#include <gtest/gtest.h>

#include <cstdint>

#include "util/hash.h"

namespace upbound {
namespace {

struct Mix {
  std::uint64_t operator()(std::uint32_t key) const { return mix64(key); }
};

using Set = ExpirySet<std::uint32_t, Mix>;
using PayloadSet = ExpirySet<std::uint32_t, Mix, int>;

SimTime at(double sec) { return SimTime::from_sec(sec); }

TEST(ExpirySet, KeyExpiresExactlyTtlAfterItsLastTouch) {
  Set set{Duration::sec(10.0)};
  EXPECT_TRUE(set.touch(1, at(0.0)));
  EXPECT_EQ(set.sweep(at(10.0) - Duration::usec(1)), 0u);
  ASSERT_NE(set.find(1), nullptr);
  EXPECT_EQ(set.find(1)->last, at(0.0));
  // `last + ttl == now` has expired.
  EXPECT_EQ(set.sweep(at(10.0)), 1u);
  EXPECT_EQ(set.find(1), nullptr);
  EXPECT_EQ(set.size(), 0u);
}

TEST(ExpirySet, TouchAndRefreshRestartTheTimer) {
  Set set{Duration::sec(10.0)};
  set.touch(1, at(0.0));
  set.touch(2, at(1.0));
  EXPECT_FALSE(set.touch(1, at(5.0)));  // already live
  EXPECT_NE(set.refresh(2, at(6.0)), nullptr);
  EXPECT_EQ(set.refresh(3, at(6.0)), nullptr);  // refresh never inserts
  EXPECT_EQ(set.size(), 2u);
  EXPECT_EQ(set.sweep(at(15.0)), 1u);
  EXPECT_EQ(set.find(1), nullptr);
  EXPECT_NE(set.find(2), nullptr);
  EXPECT_EQ(set.sweep(at(16.0)), 1u);
  EXPECT_EQ(set.size(), 0u);
}

TEST(ExpirySet, NonPositiveTtlNeverExpires) {
  for (const Duration ttl : {Duration{}, Duration::sec(-1.0)}) {
    Set set{ttl};
    set.touch(1, at(0.0));
    set.touch(2, at(5.0));
    EXPECT_EQ(set.sweep(at(1e6)), 0u);
    EXPECT_EQ(set.size(), 2u);
    EXPECT_NE(set.find(1), nullptr);
  }
}

TEST(ExpirySet, RevivedKeyStartsWithAFreshPayload) {
  PayloadSet set{Duration::sec(1.0)};
  set.touch(7, at(0.0));
  set.find(7)->value = 42;
  EXPECT_FALSE(set.touch(7, at(0.5)));
  EXPECT_EQ(set.find(7)->value, 42);  // a live touch keeps it
  set.sweep(at(2.0));
  EXPECT_EQ(set.find(7), nullptr);
  EXPECT_TRUE(set.touch(7, at(3.0)));
  EXPECT_EQ(set.find(7)->value, 0);
}

TEST(ExpirySet, EraseExpiresAKeyNow) {
  PayloadSet set{Duration::sec(1.0)};
  set.touch(1, at(0.0));
  set.touch(2, at(0.1));
  set.find(1)->value = 5;
  EXPECT_TRUE(set.erase(1));
  EXPECT_FALSE(set.erase(1));
  EXPECT_FALSE(set.erase(3));
  EXPECT_EQ(set.size(), 1u);
  EXPECT_EQ(set.find(1), nullptr);
  EXPECT_EQ(set.refresh(1, at(0.2)), nullptr);
  // The erased key left the recency list: only key 2 expires later.
  EXPECT_EQ(set.sweep(at(1.1)), 1u);
  EXPECT_TRUE(set.touch(1, at(1.2)));
  EXPECT_EQ(set.find(1)->value, 0);
}

// Outside the non-decreasing contract, a touch stamps its own time and
// moves the key to the newest end, so the key expires only after every
// key touched before it.
TEST(ExpirySet, KeyTouchedIntoThePastWaitsBehindEarlierTouches) {
  Set set{Duration::sec(10.0)};
  set.touch(1, at(0.0));
  set.touch(2, at(5.0));
  set.touch(1, at(2.0));  // regressed: stamped 2 s, but now the newest
  EXPECT_EQ(set.find(1)->last, at(2.0));
  // Key 1 ran out at 12 s, but it waits behind key 2 (out at 15 s).
  EXPECT_EQ(set.sweep(at(12.0)), 0u);
  EXPECT_EQ(set.size(), 2u);
  EXPECT_EQ(set.sweep(at(15.0)), 2u);
}

// Ten rounds of 10 000 fresh keys, each left to expire, need no more room
// than one round: expired entries are reclaimed.
TEST(ExpirySet, ExpiredEntriesAreReclaimed) {
  constexpr std::uint32_t kRounds = 10;
  constexpr std::uint32_t kPerRound = 10'000;
  Set set{Duration::sec(1.0)};
  std::size_t one_round = 0;
  std::size_t one_round_bytes = 0;
  for (std::uint32_t round = 0; round < kRounds; ++round) {
    const SimTime start = at(10.0 * round);
    for (std::uint32_t i = 0; i < kPerRound; ++i) {
      EXPECT_TRUE(set.touch(round * kPerRound + i, start + Duration::usec(i)));
    }
    EXPECT_EQ(set.size(), kPerRound);
    if (round == 0) {
      one_round = set.capacity();
      one_round_bytes = set.storage_bytes();
    }
    EXPECT_LE(set.capacity(), one_round) << "round " << round;
    EXPECT_LE(set.storage_bytes(), one_round_bytes) << "round " << round;
    EXPECT_EQ(set.sweep(start + Duration::sec(5.0)), kPerRound);
    EXPECT_EQ(set.size(), 0u);
  }
  EXPECT_GT(one_round, 0u);
}

// Keys erased before their TTL runs out (an SPI flow closed by FIN/RST)
// are reclaimed the same way, with no sweep expiring anything.
TEST(ExpirySet, ErasedEntriesAreReclaimed) {
  Set set{Duration::sec(1e6)};
  std::size_t one_round = 0;
  for (std::uint32_t round = 0; round < 10; ++round) {
    for (std::uint32_t i = 0; i < 10'000; ++i) {
      const std::uint32_t key = round * 10'000 + i;
      set.touch(key, at(round));
      EXPECT_TRUE(set.erase(key));
    }
    EXPECT_EQ(set.size(), 0u);
    if (round == 0) one_round = set.capacity();
    EXPECT_LE(set.capacity(), one_round) << "round " << round;
    EXPECT_EQ(set.sweep(at(round)), 0u);
  }
  EXPECT_GT(one_round, 0u);
}

// Below the reclaim floor, expired entries keep their slots and a later
// touch revives them in place.
TEST(ExpirySet, FewExpiredEntriesKeepTheirSlots) {
  Set set{Duration::sec(1.0)};
  for (std::uint32_t key = 0; key < 100; ++key) set.touch(key, at(0.0));
  const std::size_t bytes = set.storage_bytes();
  EXPECT_EQ(set.sweep(at(1.0)), 100u);
  EXPECT_EQ(set.storage_bytes(), bytes);
  for (std::uint32_t key = 0; key < 100; ++key) {
    EXPECT_TRUE(set.touch(key, at(2.0)));
  }
  EXPECT_EQ(set.size(), 100u);
  EXPECT_EQ(set.storage_bytes(), bytes);
}

TEST(ExpirySet, EmptySetAllocatesNothing) {
  const Set set{Duration::sec(1.0)};
  EXPECT_EQ(set.storage_bytes(), 0u);
  EXPECT_EQ(set.capacity(), 0u);
}

}  // namespace
}  // namespace upbound
