#include "filter/filter_pool.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "filter/filter_registry.h"
#include "util/rng.h"

namespace upbound {
namespace {

using Slot = FilterPool::Slot;

BitmapFilterConfig blocked_config(unsigned log2_bits, unsigned k, unsigned m,
                                  Duration dt) {
  BitmapFilterConfig config;
  config.log2_bits = log2_bits;
  config.vector_count = k;
  config.hash_count = m;
  config.rotate_interval = dt;
  return config;
}

FiveTuple flow(std::uint64_t n) {
  return FiveTuple{Protocol::kUdp,
                   Ipv4Addr{10, 40, 0, static_cast<std::uint8_t>(n % 251)},
                   static_cast<std::uint16_t>(4000 + n),
                   Ipv4Addr{198, 18, 0, 1}, 6881};
}

PacketRecord packet(const FiveTuple& tuple, SimTime t) {
  PacketRecord pkt;
  pkt.timestamp = t;
  pkt.tuple = tuple;
  pkt.payload_size = 100;
  return pkt;
}

/// The first rotation boundary strictly after `t`: boundaries sit at
/// every multiple of dt from the origin.
SimTime next_boundary(SimTime t, Duration dt) {
  const std::int64_t step = dt.count_usec();
  const std::int64_t at = (t - SimTime::origin()).count_usec();
  return SimTime::origin() + Duration::usec((at / step + 1) * step);
}

/// Seeded differential of the native pool against the boxed pool of the
/// same bitmap-blocked spec, driven the way the hierarchical filter
/// drives its fine pool: more tenants than live slots under an LRU cap
/// (so slots are released and reused), every touched slot first advanced
/// to the clock, and clock steps that repeat a time, stop 1 us short of a
/// rotation boundary, land on one, or jump k*dt and more (a full wipe).
/// After every operation the verdicts and every live slot's occupancy and
/// storage must agree.
void run_pool_differential(const BitmapFilterConfig& config,
                           std::uint64_t seed) {
  const FilterSpec spec = blocked_bitmap_filter_spec(config);
  BlockedBitmapPool native{config};
  BoxedFilterPool boxed{spec};
  constexpr std::size_t kTenants = 40;
  constexpr std::size_t kHotTenants = 8;
  constexpr std::size_t kCap = 12;
  constexpr std::uint64_t kFlows = 96;
  const Duration dt = config.rotate_interval;
  const Duration wipe = dt * static_cast<double>(config.vector_count);

  std::map<std::size_t, std::pair<Slot, Slot>> live;  // tenant -> slots
  std::vector<std::size_t> lru;                       // back = most recent
  std::map<std::size_t, std::vector<FiveTuple>> marked;
  Rng rng{seed};
  SimTime now = SimTime::origin();
  std::size_t reuses = 0;
  std::size_t wipes = 0;
  std::size_t admitted = 0;
  std::size_t denied = 0;
  const auto check_live = [&](int step) {
    for (const auto& [tenant, slots] : live) {
      ASSERT_EQ(native.occupancy_fraction(slots.first),
                boxed.occupancy_fraction(slots.second))
          << "step " << step << " tenant " << tenant;
      ASSERT_EQ(native.storage_bytes(slots.first),
                boxed.storage_bytes(slots.second));
    }
  };

  for (int step = 0; step < 8000; ++step) {
    const std::uint64_t clock_move = rng.next_below(100);
    if (clock_move < 5) {
      now = next_boundary(now, dt) - Duration::usec(1);
    } else if (clock_move < 10) {
      now = next_boundary(now, dt);
    } else if (clock_move < 11) {
      now = now + wipe +
            dt * static_cast<double>(rng.next_below(3));
      ++wipes;
    } else if (clock_move < 60) {
      now = now + Duration::usec(static_cast<std::int64_t>(
                      rng.next_below(static_cast<std::uint64_t>(
                          dt.count_usec() / 50))));
    }  // else: a repeated time

    const std::size_t tenant = rng.next_bool(0.8)
                                   ? rng.next_below(kHotTenants)
                                   : rng.next_below(kTenants);
    auto it = live.find(tenant);
    if (it == live.end()) {
      if (live.size() >= kCap) {
        const std::size_t victim = lru.front();
        lru.erase(lru.begin());
        native.release(live.at(victim).first);
        boxed.release(live.at(victim).second);
        live.erase(victim);
        marked.erase(victim);
        ++reuses;
      }
      it = live.emplace(tenant, std::pair{native.acquire(now),
                                          boxed.acquire(now)})
               .first;
    } else {
      native.advance_time(it->second.first, now);
      boxed.advance_time(it->second.second, now);
      lru.erase(std::find(lru.begin(), lru.end(), tenant));
    }
    lru.push_back(tenant);
    const auto [a, b] = it->second;
    std::vector<FiveTuple>& flows = marked[tenant];
    if (rng.next_bool(0.5)) {
      const FiveTuple tuple = flow(rng.next_below(kFlows));
      native.record_outbound(a, packet(tuple, now));
      boxed.record_outbound(b, packet(tuple, now));
      flows.push_back(tuple);
    } else {
      const FiveTuple tuple = !flows.empty() && rng.next_bool(0.7)
                                  ? flows[rng.next_below(flows.size())]
                                  : flow(rng.next_below(kFlows));
      const PacketRecord probe = packet(tuple.inverse(), now);
      const bool verdict = native.admits_inbound(a, probe);
      ASSERT_EQ(verdict, boxed.admits_inbound(b, probe)) << "step " << step;
      ++(verdict ? admitted : denied);
    }
    check_live(step);
    if (step % 97 == 0) {
      // The hierarchical filter's occupancy report: every live slot
      // caught up to the clock first.
      for (const auto& [t, slots] : live) {
        native.advance_time(slots.first, now);
        boxed.advance_time(slots.second, now);
      }
      check_live(step);
    }
  }
  EXPECT_GT(reuses, 500u);
  EXPECT_GT(wipes, 40u);
  EXPECT_GT(admitted, 500u);
  EXPECT_GT(denied, 500u);
}

TEST(BlockedBitmapPool, MatchesTheBoxedPoolOfTheSameSpec) {
  // Sparse probes (targeted bit ops), two blocks per column.
  run_pool_differential(blocked_config(10, 4, 3, Duration::sec(1.0)), 1);
  // Dense probes (whole-line masks), one block, an odd column count.
  run_pool_differential(blocked_config(9, 5, 7, Duration::sec(0.5)), 2);
  // The benchmark's fine geometry.
  run_pool_differential(blocked_config(12, 4, 3, Duration::sec(2.0)), 3);
}

TEST(BlockedBitmapPool, AReusedSlotStartsEmpty) {
  BlockedBitmapPool pool{blocked_config(12, 4, 3, Duration::sec(1.0))};
  const SimTime t = SimTime::from_sec(0.5);
  const Slot first = pool.acquire(t);
  const Slot second = pool.acquire(t);
  pool.record_outbound(first, packet(flow(7), t));
  EXPECT_TRUE(pool.admits_inbound(first, packet(flow(7).inverse(), t)));
  EXPECT_FALSE(pool.admits_inbound(second, packet(flow(7).inverse(), t)));
  EXPECT_GT(*pool.occupancy_fraction(first), 0.0);

  pool.release(first);
  const Slot again = pool.acquire(t);
  EXPECT_EQ(again, first);  // the free list hands the slot back
  EXPECT_FALSE(pool.admits_inbound(again, packet(flow(7).inverse(), t)));
  EXPECT_EQ(*pool.occupancy_fraction(again), 0.0);
}

// 200 000 tenants through an LRU cap of 1 024 live slots: released slots
// are reused, so the pool never holds more chunks than the cap needs.
TEST(BlockedBitmapPool, MemoryFollowsTheLiveSlotsNotTheTenantsSeen) {
  BlockedBitmapPool pool{blocked_config(12, 4, 3, Duration::sec(2.0))};
  ASSERT_EQ(pool.slots_per_chunk(), 64u);  // 2 KiB slots, 128 KiB chunks
  constexpr std::size_t kCap = 1024;
  const std::size_t chunk_bound =
      (kCap + pool.slots_per_chunk() - 1) / pool.slots_per_chunk();
  std::deque<Slot> live;
  for (std::uint64_t tenant = 0; tenant < 200'000; ++tenant) {
    const SimTime t = SimTime::from_usec(static_cast<std::int64_t>(tenant));
    if (live.size() >= kCap) {
      pool.release(live.front());
      live.pop_front();
    }
    live.push_back(pool.acquire(t));
    pool.record_outbound(live.back(), packet(flow(tenant), t));
    ASSERT_LE(pool.chunk_count(), chunk_bound) << "tenant " << tenant;
    ASSERT_LT(live.back(), kCap);
  }
  EXPECT_EQ(pool.chunk_count(), chunk_bound);
}

// A slot larger than the chunk budget (2^20 bits x 4 columns = 512 KiB)
// gets a chunk of its own.
TEST(BlockedBitmapPool, OversizedSlotsGetOneChunkEach) {
  BlockedBitmapPool pool{blocked_config(20, 4, 3, Duration::sec(5.0))};
  EXPECT_EQ(pool.slots_per_chunk(), 1u);
  const SimTime t = SimTime::from_sec(1.0);
  std::vector<Slot> slots;
  for (int i = 0; i < 3; ++i) slots.push_back(pool.acquire(t));
  EXPECT_EQ(pool.chunk_count(), 3u);
  EXPECT_EQ(pool.storage_bytes(slots[0]), std::size_t{512} << 10);
  for (std::size_t i = 0; i < slots.size(); ++i) {
    pool.record_outbound(slots[i], packet(flow(i), t));
  }
  for (std::size_t i = 0; i < slots.size(); ++i) {
    for (std::size_t j = 0; j < slots.size(); ++j) {
      EXPECT_EQ(pool.admits_inbound(slots[i], packet(flow(j).inverse(), t)),
                i == j)
          << "slot " << i << " flow " << j;
    }
  }
  pool.release(slots[1]);
  EXPECT_EQ(pool.acquire(t), slots[1]);
  EXPECT_EQ(pool.chunk_count(), 3u);
}

// The native pool is chosen by descriptor identity. A caller's copy of
// the bitmap-blocked descriptor with its own make -- what a tracing
// decorator builds -- gets the boxed pool, which builds every instance
// through that make; so does every other backend.
TEST(FilterPool, OnlyTheRegistrysBlockedDescriptorGetsTheNativePool) {
  const FilterSpec spec =
      blocked_bitmap_filter_spec(blocked_config(12, 4, 3, Duration::sec(1)));
  EXPECT_NE(dynamic_cast<BlockedBitmapPool*>(make_filter_pool(spec).get()),
            nullptr);

  BackendDescriptor copy = *spec.backend;
  int made = 0;
  copy.make = [&made, make = spec.backend->make](const FilterSpec& s) {
    ++made;
    return make(s);
  };
  FilterSpec wrapped = spec;
  wrapped.backend = &copy;
  const std::unique_ptr<FilterPool> pool = make_filter_pool(wrapped);
  EXPECT_NE(dynamic_cast<BoxedFilterPool*>(pool.get()), nullptr);
  const Slot slot = pool->acquire(SimTime::origin());
  EXPECT_EQ(made, 1);
  pool->release(slot);
  pool->acquire(SimTime::origin());
  EXPECT_EQ(made, 2);

  for (const BackendDescriptor& backend :
       FilterRegistry::instance().descriptors()) {
    if (backend.name == "bitmap-blocked" || backend.name == "hierarchical") {
      continue;
    }
    SCOPED_TRACE(backend.name);
    const FilterSpec other = backend.parse(MapFilterArgs{});
    EXPECT_NE(dynamic_cast<BoxedFilterPool*>(make_filter_pool(other).get()),
              nullptr);
  }
}

}  // namespace
}  // namespace upbound
