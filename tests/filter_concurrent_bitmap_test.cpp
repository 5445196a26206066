#include "filter/concurrent_bitmap.h"

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <thread>

#include "net/packet_batch.h"
#include "util/rng.h"

namespace upbound {
namespace {

BitmapFilterConfig small_config() {
  BitmapFilterConfig config;
  config.log2_bits = 16;
  config.vector_count = 4;
  config.hash_count = 3;
  config.rotate_interval = Duration::sec(5.0);
  return config;
}

FiveTuple tuple_n(std::uint32_t n) {
  return FiveTuple{Protocol::kTcp, Ipv4Addr{0x0a000000u + n},
                   static_cast<std::uint16_t>(1024 + n % 60000),
                   Ipv4Addr{0x3d000000u + n * 2654435761u},
                   static_cast<std::uint16_t>(80 + n % 40000)};
}

PacketRecord pkt_of(const FiveTuple& t, double t_sec = 0.0) {
  PacketRecord pkt;
  pkt.timestamp = SimTime::from_sec(t_sec);
  pkt.tuple = t;
  return pkt;
}

TEST(ConcurrentBitmap, SingleThreadSemanticsMatchSequentialFilter) {
  // Identical config and seed: decisions must agree with BitmapFilter on
  // a random single-threaded workload.
  BitmapFilter sequential{small_config()};
  ConcurrentBitmapFilter concurrent{small_config()};
  Rng rng{5};
  double t = 0.0;
  for (int step = 0; step < 20'000; ++step) {
    t += rng.exponential(0.01);
    const SimTime now = SimTime::from_sec(t);
    sequential.advance_time(now);
    concurrent.advance_time(now);
    const FiveTuple tuple = tuple_n(rng.next_below(500));
    if (rng.next_bool(0.5)) {
      sequential.record_outbound(pkt_of(tuple, t));
      concurrent.record_outbound(pkt_of(tuple, t));
    } else {
      PacketRecord probe = pkt_of(tuple, t);
      probe.tuple = probe.tuple.inverse();
      ASSERT_EQ(sequential.admits_inbound(probe),
                concurrent.admits_inbound(probe))
          << "divergence at t=" << t;
    }
  }
  EXPECT_EQ(sequential.rotations(), concurrent.rotations());
}

TEST(ConcurrentBitmap, ParallelMarkersAllVisible) {
  ConcurrentBitmapFilter filter{small_config()};
  constexpr int kThreads = 8;
  constexpr std::uint32_t kPerThread = 2'000;
  std::vector<std::thread> workers;
  for (int w = 0; w < kThreads; ++w) {
    workers.emplace_back([&filter, w] {
      for (std::uint32_t i = 0; i < kPerThread; ++i) {
        filter.record_outbound(
            pkt_of(tuple_n(static_cast<std::uint32_t>(w) * kPerThread + i)));
      }
    });
  }
  for (auto& worker : workers) worker.join();

  // Every mark from every thread must be visible.
  for (std::uint32_t n = 0; n < kThreads * kPerThread; ++n) {
    PacketRecord probe = pkt_of(tuple_n(n));
    probe.tuple = probe.tuple.inverse();
    ASSERT_TRUE(filter.admits_inbound(probe)) << "lost mark " << n;
  }
}

TEST(ConcurrentBitmap, ReadersWritersAndRotatorDoNotLoseFreshMarks) {
  ConcurrentBitmapFilter filter{small_config()};
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> false_negatives{0};
  std::atomic<std::uint64_t> checked_probes{0};
  std::atomic<double> sim_now{0.0};
  // Odd while the rotator is inside an advance_time that crosses a dt
  // boundary; bumped twice per such call.
  std::atomic<std::uint64_t> rotation_seq{0};

  // Rotator: advances simulated time continuously.
  std::thread rotator{[&] {
    const std::int64_t dt = small_config().rotate_interval.count_usec();
    std::int64_t t = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      const std::int64_t next = t + 370'000;
      const bool rotates = next / dt != t / dt;
      if (rotates) rotation_seq.fetch_add(1);
      t = next;
      sim_now.store(static_cast<double>(t) / 1e6, std::memory_order_relaxed);
      filter.advance_time(SimTime::from_usec(t));
      if (rotates) rotation_seq.fetch_add(1);
      std::this_thread::yield();
    }
  }};

  // Workers: mark then immediately probe their own tuples. A mark made
  // "now" is within Te by construction, so a miss with no rotation
  // between mark and probe is a real lost update. A rotation in that
  // window may legitimately eat the mark (the documented publish-then-
  // clear straggler race, or k rotations while the worker is
  // descheduled), so such probes are not counted.
  std::vector<std::thread> workers;
  for (int w = 0; w < 6; ++w) {
    workers.emplace_back([&, w] {
      Rng rng{static_cast<std::uint64_t>(w) + 100};
      while (!stop.load(std::memory_order_relaxed)) {
        const FiveTuple tuple =
            tuple_n(static_cast<std::uint32_t>(rng.next_below(100'000)));
        const std::uint64_t seq = rotation_seq.load();
        const double t = sim_now.load(std::memory_order_relaxed);
        filter.record_outbound(pkt_of(tuple, t));
        PacketRecord probe = pkt_of(tuple, t);
        probe.tuple = probe.tuple.inverse();
        const bool admitted = filter.admits_inbound(probe);
        if (seq % 2 != 0 || rotation_seq.load() != seq) continue;
        checked_probes.fetch_add(1, std::memory_order_relaxed);
        if (!admitted) false_negatives.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  stop.store(true);
  for (auto& worker : workers) worker.join();
  rotator.join();

  // Only rotation-free probes are counted, so any miss is a lost update;
  // the bound of 2 is slack, not an expected count.
  EXPECT_LE(false_negatives.load(), 2u);
  EXPECT_GT(checked_probes.load(), 0u);
  EXPECT_GT(filter.rotations(), 0u);
}

TEST(ConcurrentBitmap, ParallelBatchMarkersAllVisibleToBatchLookup) {
  // The batch entry points keep their hash scratch on the stack, so
  // concurrent batch calls from many threads must neither race nor lose
  // marks. Threads mark disjoint tuple ranges in chunks through
  // record_outbound_batch; afterwards a batched lookup must admit all.
  ConcurrentBitmapFilter filter{small_config()};
  constexpr int kThreads = 8;
  constexpr std::uint32_t kPerThread = 2'000;
  constexpr std::size_t kChunk = 64;
  std::vector<std::thread> workers;
  for (int w = 0; w < kThreads; ++w) {
    workers.emplace_back([&filter, w] {
      Trace chunk;
      for (std::uint32_t i = 0; i < kPerThread; ++i) {
        chunk.push_back(
            pkt_of(tuple_n(static_cast<std::uint32_t>(w) * kPerThread + i)));
        if (chunk.size() == kChunk || i + 1 == kPerThread) {
          filter.record_outbound_batch(PacketBatch{chunk});
          chunk.clear();
        }
      }
    });
  }
  for (auto& worker : workers) worker.join();

  Trace probes;
  for (std::uint32_t n = 0; n < kThreads * kPerThread; ++n) {
    PacketRecord probe = pkt_of(tuple_n(n));
    probe.tuple = probe.tuple.inverse();
    probes.push_back(probe);
  }
  std::unique_ptr<bool[]> admits{new bool[probes.size()]};
  filter.admits_inbound_batch(PacketBatch{probes},
                              std::span<bool>{admits.get(), probes.size()});
  for (std::size_t n = 0; n < probes.size(); ++n) {
    ASSERT_TRUE(admits[n]) << "lost batched mark " << n;
  }
}

TEST(ConcurrentBitmap, StorageMatchesSequential) {
  EXPECT_EQ(ConcurrentBitmapFilter{small_config()}.storage_bytes(),
            BitmapFilter{small_config()}.storage_bytes());
}

TEST(ConcurrentBitmap, InvalidConfigRejected) {
  BitmapFilterConfig config;
  config.vector_count = 1;
  EXPECT_THROW(ConcurrentBitmapFilter{config}, std::invalid_argument);
}

}  // namespace
}  // namespace upbound
