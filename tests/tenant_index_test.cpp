#include "tenant/tenant_index.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <stdexcept>
#include <vector>

#include "util/rng.h"

namespace upbound {
namespace {

TEST(TenantIndex, EmptyIndexFindsNothing) {
  TenantIndex<int> index;
  EXPECT_EQ(index.size(), 0u);
  EXPECT_EQ(index.slot_count(), 0u);
  EXPECT_EQ(index.find(0), nullptr);
  EXPECT_EQ(index.find(0xffffffffu), nullptr);
  EXPECT_EQ(index.max_probe_length(), 0u);
}

TEST(TenantIndex, KeysZeroAndAllOnesAreOrdinaryKeys) {
  TenantIndex<int> index;
  index.find_or_insert(0, 10);
  index.find_or_insert(0xffffffffu, 20);
  ASSERT_EQ(index.size(), 2u);
  ASSERT_NE(index.find(0), nullptr);
  ASSERT_NE(index.find(0xffffffffu), nullptr);
  EXPECT_EQ(*index.find(0), 10);
  EXPECT_EQ(*index.find(0xffffffffu), 20);
  EXPECT_EQ(index.find(1), nullptr);
  EXPECT_EQ(index.find(0xfffffffeu), nullptr);
  EXPECT_EQ(index.key_at(0), 0u);
  EXPECT_EQ(index.key_at(1), 0xffffffffu);

  // A present key is found, not re-inserted: the constructor argument is
  // ignored and the size does not change.
  EXPECT_EQ(index.find_or_insert(0, 99), 10);
  EXPECT_EQ(index.size(), 2u);
}

TEST(TenantIndex, GrowthKeepsEveryEntryAndItsPosition) {
  TenantIndex<std::uint64_t> index;
  std::map<TenantId, std::uint64_t> model;
  std::vector<TenantId> order;
  Rng rng{77};
  std::size_t rehashes = 0;
  std::size_t slots = index.slot_count();
  while (order.size() < 5000) {
    const auto key = static_cast<TenantId>(rng.next_u64());
    if (model.count(key) != 0) continue;
    const std::uint64_t value = rng.next_u64();
    index.find_or_insert(key, value);
    model.emplace(key, value);
    order.push_back(key);
    if (index.slot_count() != slots) {
      ++rehashes;
      slots = index.slot_count();
      // Right after a rehash every earlier entry is still reachable.
      for (const auto& [k, v] : model) {
        const std::uint64_t* found = index.find(k);
        ASSERT_NE(found, nullptr) << "key " << k;
        ASSERT_EQ(*found, v);
      }
    }
    ASSERT_LE(2 * index.size(), index.slot_count());
  }
  EXPECT_GE(rehashes, 8u);  // 16 -> 16384 slots
  ASSERT_EQ(index.size(), order.size());
  for (std::size_t pos = 0; pos < order.size(); ++pos) {
    const auto p = static_cast<TenantIndex<std::uint64_t>::Position>(pos);
    EXPECT_EQ(index.key_at(p), order[pos]);
    EXPECT_EQ(index.value_at(p), model.at(order[pos]));
    EXPECT_EQ(index.position_of(*index.find(order[pos])), p);
  }
}

// A value constructor that throws leaves the index as it was, also when
// the insertion that throws is the one that grew the table.
TEST(TenantIndex, ThrowingConstructorInsertsNothing) {
  struct Picky {
    explicit Picky(int v) : value(v) {
      if (v < 0) throw std::invalid_argument("negative");
    }
    int value;
  };
  TenantIndex<Picky> index;
  for (TenantId key = 0; key < 8; ++key) {
    index.find_or_insert(key, static_cast<int>(key));
  }
  const std::size_t slots = index.slot_count();
  EXPECT_THROW(index.find_or_insert(100, -1), std::invalid_argument);
  EXPECT_GT(index.slot_count(), slots);  // the failed insert grew the table
  EXPECT_EQ(index.size(), 8u);
  EXPECT_EQ(index.find(100), nullptr);
  index.find_or_insert(100, 100);
  ASSERT_EQ(index.size(), 9u);
  EXPECT_EQ(index.key_at(8), 100u);
  EXPECT_EQ(index.value_at(8).value, 100);
  for (TenantId key = 0; key < 8; ++key) {
    ASSERT_NE(index.find(key), nullptr);
    EXPECT_EQ(index.find(key)->value, static_cast<int>(key));
  }
}

// A hit never grows the table: the router's ledger, the analyzer's
// connection table and every ExpirySet call find_or_insert per packet,
// mostly for present keys. At exactly half full (8 keys in 16 slots)
// finding a present key must leave the slot array as it is; the next new
// key still doubles it.
TEST(TenantIndex, HitOnAHalfFullTableDoesNotGrow) {
  TenantIndex<int> index;
  for (TenantId key = 0; key < 8; ++key) index.find_or_insert(key, 1);
  ASSERT_EQ(index.slot_count(), 16u);
  const std::size_t bytes = index.storage_bytes();
  for (TenantId key = 0; key < 8; ++key) {
    EXPECT_EQ(index.find_or_insert(key, 2), 1);
  }
  EXPECT_EQ(index.slot_count(), 16u);
  EXPECT_EQ(index.storage_bytes(), bytes);
  index.find_or_insert(8, 3);
  EXPECT_EQ(index.slot_count(), 32u);
  EXPECT_EQ(index.size(), 9u);
}

// Consecutive subscriber addresses (and /24 network ids, which step by
// 256) must spread over the slots instead of forming one long cluster.
TEST(TenantIndex, SequentialAddressesKeepProbesShort) {
  constexpr std::uint32_t kKeys = 1'000'000;
  for (const std::uint32_t step : {1u, 256u}) {
    SCOPED_TRACE(step);
    TenantIndex<std::uint32_t> index;
    const std::uint32_t base = 0x0a000000u;  // 10.0.0.0
    for (std::uint32_t i = 0; i < kKeys; ++i) {
      index.find_or_insert(base + i * step, i);
    }
    ASSERT_EQ(index.size(), kKeys);
    EXPECT_LE(index.max_probe_length(), 4u);
    for (std::uint32_t i = 0; i < kKeys; i += 997) {
      const std::uint32_t* found = index.find(base + i * step);
      ASSERT_NE(found, nullptr);
      EXPECT_EQ(*found, i);
    }
    EXPECT_EQ(index.find(base + kKeys * step), nullptr);
  }
}

}  // namespace
}  // namespace upbound
