// Differential test of the blocked-connection store (Section 5.3) against
// a reference model: one map entry per canonical sigma holding its latest
// block or refresh, plus a FIFO of every block and refresh that the sweep
// pops while `time + ttl <= now`. Under the non-decreasing times the
// router feeds the store, every verdict, size() and total_blocked() must
// equal the model's after every call.
#include "filter/blocklist.h"

#include <gtest/gtest.h>

#include <deque>
#include <unordered_map>
#include <utility>
#include <vector>

#include "util/rng.h"

namespace upbound {
namespace {

class ReferenceBlockList {
 public:
  explicit ReferenceBlockList(Duration ttl) : ttl_(ttl) {}

  void block(const FiveTuple& sigma, SimTime now) {
    sweep(now);
    const auto [it, inserted] = blocked_.try_emplace(sigma, now);
    if (!inserted) {
      it->second = now;
    } else {
      ++total_blocked_;
    }
    if (ttl_ > Duration{}) queue_.emplace_back(now, sigma);
  }

  bool is_blocked(const FiveTuple& sigma, SimTime now) {
    sweep(now);
    const auto it = blocked_.find(sigma);
    if (it == blocked_.end()) return false;
    if (ttl_ > Duration{}) {
      it->second = now;
      queue_.emplace_back(now, sigma);
    }
    return true;
  }

  std::size_t size() const { return blocked_.size(); }
  std::uint64_t total_blocked() const { return total_blocked_; }

 private:
  void sweep(SimTime now) {
    if (ttl_ <= Duration{}) return;
    while (!queue_.empty() && queue_.front().first + ttl_ <= now) {
      const FiveTuple key = queue_.front().second;
      queue_.pop_front();
      const auto it = blocked_.find(key);
      if (it != blocked_.end() && it->second + ttl_ <= now) blocked_.erase(it);
    }
  }

  Duration ttl_;
  std::unordered_map<FiveTuple, SimTime, CanonicalTupleHash, CanonicalTupleEq>
      blocked_;
  std::deque<std::pair<SimTime, FiveTuple>> queue_;
  std::uint64_t total_blocked_ = 0;
};

std::vector<FiveTuple> random_tuples(Rng& rng, std::size_t count) {
  std::vector<FiveTuple> tuples;
  while (tuples.size() < count) {
    FiveTuple t;
    t.protocol = rng.next_bool(0.5) ? Protocol::kTcp : Protocol::kUdp;
    t.src_addr = Ipv4Addr{static_cast<std::uint32_t>(rng.next_u64())};
    t.dst_addr = Ipv4Addr{static_cast<std::uint32_t>(rng.next_u64())};
    t.src_port = static_cast<std::uint16_t>(rng.next_below(65536));
    t.dst_port = static_cast<std::uint16_t>(rng.next_below(65536));
    tuples.push_back(t);
  }
  // A tuple whose endpoints are equal is its own inverse.
  tuples.push_back(FiveTuple{Protocol::kUdp, Ipv4Addr{10, 0, 0, 1}, 53,
                             Ipv4Addr{10, 0, 0, 1}, 53});
  return tuples;
}

struct Workload {
  Duration ttl;
  std::uint64_t seed;
  std::size_t tuples;
  // Time advances on a grid of ttl / grid_divisor.
  std::int64_t grid_divisor = 16;
};

// Refreshes land exactly on the expiry boundary (`last + ttl == now`) as
// well as on both sides of it. Half the calls go to 8 hot tuples,
// revisited well inside the TTL; with 64 tuples the rest come back after
// about 1.5 TTL on average, so entries both survive and expire. Returns
// how often the store's capacity shrank, i.e. rebuilt its index.
std::size_t run_differential(const Workload& w) {
  constexpr std::size_t kCalls = 200'000;
  Rng rng{w.seed};
  const std::vector<FiveTuple> tuples = random_tuples(rng, w.tuples);
  const Duration grid =
      w.ttl > Duration{} ? w.ttl / w.grid_divisor : Duration::msec(250);

  BlockList store{w.ttl};
  ReferenceBlockList model{w.ttl};
  SimTime now = SimTime::origin();
  std::uint64_t hits = 0;
  std::size_t rebuilds = 0;
  for (std::size_t call = 0; call < kCalls; ++call) {
    const std::uint64_t step = rng.next_below(100);
    if (step >= 98) {
      now += grid * static_cast<double>(rng.next_below(40));
    } else if (step >= 80) {
      now += grid;
    }
    const std::size_t index = rng.next_bool(0.5)
                                  ? rng.next_below(8)
                                  : rng.next_below(tuples.size());
    const FiveTuple sigma =
        rng.next_bool(0.5) ? tuples[index] : tuples[index].inverse();
    const std::size_t capacity = store.capacity();
    if (rng.next_below(4) == 0) {
      store.block(sigma, now);
      model.block(sigma, now);
    } else {
      const bool expected = model.is_blocked(sigma, now);
      EXPECT_EQ(store.is_blocked(sigma, now), expected)
          << "call " << call << " at " << now.usec() << " us";
      hits += expected ? 1 : 0;
    }
    rebuilds += store.capacity() < capacity ? 1 : 0;
    EXPECT_EQ(store.size(), model.size()) << "call " << call;
    EXPECT_EQ(store.total_blocked(), model.total_blocked()) << "call " << call;
    if (::testing::Test::HasFailure()) break;
  }
  // The run exercised what it is there for: hits, and (with a TTL)
  // entries that expired and were blocked again.
  EXPECT_GT(hits, kCalls / 10);
  if (w.ttl > Duration{}) {
    EXPECT_GT(model.total_blocked(), 2 * tuples.size());
  } else {
    EXPECT_EQ(model.total_blocked(), model.size());
  }
  return rebuilds;
}

TEST(BlockListDifferential, NoTtlMatchesReferenceModel) {
  run_differential({Duration{}, 0xb10c0001, 64});
}

TEST(BlockListDifferential, HalfSecondTtlMatchesReferenceModel) {
  run_differential({Duration::msec(500), 0xb10c0002, 64});
}

TEST(BlockListDifferential, MinuteTtlMatchesReferenceModel) {
  run_differential({Duration::sec(60.0), 0xb10c0003, 64});
}

// 8 192 tuples, each back only after many TTLs: expired entries pile up
// past the live ones, so the store rebuilds its index again and again,
// and the rebuilt recency order must keep matching the model.
TEST(BlockListDifferential, RebuiltIndexMatchesReferenceModel) {
  const std::size_t rebuilds =
      run_differential({Duration::msec(512), 0xb10c0004, 8192, 256});
  EXPECT_GT(rebuilds, 10u);
}

// A daemon blocks new connections forever; what expired must not keep
// the store's memory. Ten rounds of 10 000 fresh sigma, each left to
// expire, need no more room than one round.
TEST(BlockListMemory, ExpiredEntriesAreReclaimed) {
  constexpr std::uint32_t kRounds = 10;
  constexpr std::uint32_t kPerRound = 10'000;
  const Duration ttl = Duration::sec(1.0);
  BlockList store{ttl};
  std::size_t one_round = 0;
  for (std::uint32_t round = 0; round < kRounds; ++round) {
    const SimTime start = SimTime::from_sec(10.0 * round);
    for (std::uint32_t i = 0; i < kPerRound; ++i) {
      const FiveTuple sigma{Protocol::kTcp,
                            Ipv4Addr{(61u << 24) | (round << 16) | i}, 6881,
                            Ipv4Addr{140, 112, 30, 5}, 40000};
      store.block(sigma, start + Duration::usec(i));
    }
    EXPECT_EQ(store.size(), kPerRound);
    EXPECT_EQ(store.total_blocked(), std::uint64_t{round + 1} * kPerRound);
    if (round == 0) one_round = store.capacity();
    EXPECT_LE(store.capacity(), one_round) << "round " << round;

    const FiveTuple probe{Protocol::kTcp, Ipv4Addr{61, 0, 0, 0}, 6881,
                          Ipv4Addr{140, 112, 30, 5}, 40000};
    EXPECT_FALSE(store.is_blocked(probe, start + Duration::sec(5.0)));
    EXPECT_EQ(store.size(), 0u);
    EXPECT_LE(store.capacity(), one_round) << "round " << round;
  }
  EXPECT_GT(one_round, 0u);
}

// Outside the contract, a regressed time follows one rule: the refresh
// stamps its own time and moves the entry to the newest end, so the entry
// expires only after every entry refreshed before it.
TEST(BlockListRegressedTime, RefreshIntoThePastWaitsBehindNewerEntries) {
  const FiveTuple a{Protocol::kTcp, Ipv4Addr{61, 1, 1, 1}, 12345,
                    Ipv4Addr{140, 112, 30, 5}, 6881};
  const FiveTuple b{Protocol::kTcp, Ipv4Addr{61, 1, 1, 2}, 12345,
                    Ipv4Addr{140, 112, 30, 5}, 6881};
  const FiveTuple absent{Protocol::kUdp, Ipv4Addr{61, 1, 1, 3}, 53,
                         Ipv4Addr{140, 112, 30, 5}, 53};
  BlockList store{Duration::sec(10.0)};
  store.block(a, SimTime::from_sec(0.0));
  store.block(b, SimTime::from_sec(5.0));
  EXPECT_TRUE(store.is_blocked(a.inverse(), SimTime::from_sec(2.0)));
  // a's block ran out at 12 s, but it waits behind b (out at 15 s).
  EXPECT_FALSE(store.is_blocked(absent, SimTime::from_sec(12.0)));
  EXPECT_EQ(store.size(), 2u);
  EXPECT_FALSE(store.is_blocked(absent, SimTime::from_sec(15.0)));
  EXPECT_EQ(store.size(), 0u);
  EXPECT_EQ(store.total_blocked(), 2u);
}

}  // namespace
}  // namespace upbound
