#include "tenant/hierarchical_filter.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <list>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "filter/filter_registry.h"
#include "sim/tenant_scenarios.h"
#include "util/rng.h"

namespace upbound {
namespace {

TenantScenarioConfig small_scenario() {
  TenantScenarioConfig config;
  config.tenants = 5;
  config.duration = Duration::sec(30.0);
  config.seed = 11;
  config.exchanges_per_sec = 3.0;
  config.unsolicited_prob = 0.3;
  config.flash_tenant_multiple = 1.0;
  return config;
}

MapFilterArgs fine_args(const std::string& backend) {
  MapFilterArgs margs;
  margs.set("bits", "12");
  margs.set("k", "4");
  margs.set("m", "3");
  margs.set("dt", "2.0");
  if (backend == "spi") {
    margs.set("timeout", "240");
  } else if (backend == "naive") {
    margs.set("timeout", "8.0");  // the bitmap design's k*dt expiry
  }
  return margs;
}

/// Replays a tenant scenario through the hierarchical wrap of `backend`
/// and a flat one-filter-per-tenant oracle of the same spec, asserting
/// verdict equality on every inbound packet.
void run_differential(const std::string& backend_name) {
  const TenantScenarioTrace trace =
      generate_tenant_scenario(TenantScenarioKind::kFlashCrowd,
                               small_scenario());
  const FilterRegistry& registry = FilterRegistry::instance();
  const BackendDescriptor& backend = registry.at(backend_name);

  const FilterSpec fine = backend.parse(fine_args(backend_name));
  MapFilterArgs hier_args = fine_args(backend_name);
  hier_args.set("fine", backend_name);
  hier_args.set("tenant-cap", "100000");  // exactness needs no evictions
  const FilterSpec hier_spec = registry.at("hierarchical").parse(hier_args);
  const std::unique_ptr<StateFilter> hier = make_state_filter(hier_spec);

  const TenantTable table{TenantTableConfig{TenantMode::kPerSubscriber}};
  std::map<TenantId, std::unique_ptr<StateFilter>> oracle;
  const auto oracle_for = [&](TenantId tenant) -> StateFilter& {
    auto& slot = oracle[tenant];
    if (slot == nullptr) slot = make_state_filter(fine);
    return *slot;
  };

  std::size_t inbound_checked = 0;
  for (std::size_t i = 0; i < trace.packets.size(); ++i) {
    const PacketRecord& pkt = trace.packets[i];
    const Direction dir = trace.network.classify(pkt);
    if (dir == Direction::kOutbound) {
      hier->advance_time(pkt.timestamp);
      hier->record_outbound(pkt);
      StateFilter& fine_filter = oracle_for(table.tenant_of_outbound(pkt.tuple));
      fine_filter.advance_time(pkt.timestamp);
      fine_filter.record_outbound(pkt);
      continue;
    }
    ASSERT_EQ(dir, Direction::kInbound);
    hier->advance_time(pkt.timestamp);
    const bool hier_admits = hier->admits_inbound(pkt);
    StateFilter& fine_filter = oracle_for(table.tenant_of_inbound(pkt.tuple));
    fine_filter.advance_time(pkt.timestamp);
    const bool oracle_admits = fine_filter.admits_inbound(pkt);
    ASSERT_EQ(hier_admits, oracle_admits)
        << "backend " << backend_name << " diverged from the flat oracle "
        << "at packet " << i << " (tenant "
        << table.label(table.tenant_of_inbound(pkt.tuple)) << ")";
    ++inbound_checked;
  }
  EXPECT_GT(inbound_checked, 100u) << "scenario produced too few inbounds";
}

TEST(HierarchicalDifferential, MatchesFlatOracleForEveryFineBackend) {
  for (const BackendDescriptor& backend :
       FilterRegistry::instance().descriptors()) {
    if (backend.name == "hierarchical") continue;  // cannot nest
    SCOPED_TRACE(backend.name);
    run_differential(backend.name);
  }
}

HierarchicalFilterConfig config_for(const std::string& fine_backend,
                                    std::size_t cap) {
  MapFilterArgs margs = fine_args(fine_backend);
  margs.set("fine", fine_backend);
  margs.set("tenant-cap", std::to_string(cap));
  const FilterSpec spec =
      FilterRegistry::instance().at("hierarchical").parse(margs);
  return spec.config_as<HierarchicalFilterConfig>();
}

PacketRecord udp(const FiveTuple& tuple, double t_sec,
                 std::uint32_t payload = 100) {
  PacketRecord pkt;
  pkt.timestamp = SimTime::from_sec(t_sec);
  pkt.tuple = tuple;
  pkt.payload_size = payload;
  return pkt;
}

FiveTuple client_conn(std::uint8_t host, std::uint16_t sport) {
  return FiveTuple{Protocol::kUdp, Ipv4Addr{10, 40, 0, host}, sport,
                   Ipv4Addr{198, 18, 0, 1}, 6881};
}

// Run for a boxed fine tier (bitmap) and for the native pool
// (bitmap-blocked), where an eviction releases a pool slot and the
// returning tenant takes it over, zeroed.
void check_lru_cap_evicts_least_recent_tenant(const std::string& fine) {
  SCOPED_TRACE(fine);
  HierarchicalFilter hier{config_for(fine, 2)};
  for (std::uint8_t host = 2; host < 8; ++host) {
    hier.advance_time(SimTime::from_sec(host * 0.1));
    hier.record_outbound(udp(client_conn(host, 4000), host * 0.1));
  }
  EXPECT_EQ(hier.tenant_count(), 6u);
  EXPECT_LE(hier.live_fine_filters(), 2u);
  EXPECT_EQ(hier.fine_instantiations(), 6u);
  EXPECT_EQ(hier.fine_evictions(), 4u);

  // The most recent tenants keep their state; an evicted tenant lost its
  // marks (the counted false-negative source).
  hier.advance_time(SimTime::from_sec(1.0));
  EXPECT_TRUE(hier.admits_inbound(udp(client_conn(7, 4000).inverse(), 1.0)));
  EXPECT_FALSE(hier.admits_inbound(udp(client_conn(2, 4000).inverse(), 1.0)));

  // Eviction drops the tenant's digest with its fine filter; a tenant
  // that comes back starts a fresh one.
  const TenantTable table{TenantTableConfig{TenantMode::kPerSubscriber}};
  const TenantId evicted = table.tenant_of(Ipv4Addr{10, 40, 0, 2});
  EXPECT_FALSE(hier.local_digest(evicted).has_value());
  EXPECT_TRUE(hier.local_digest(table.tenant_of(Ipv4Addr{10, 40, 0, 7}))
                  .has_value());
  hier.record_outbound(udp(client_conn(2, 4001), 1.0));
  const std::optional<StateDigest> fresh = hier.local_digest(evicted);
  ASSERT_TRUE(fresh.has_value());
  EXPECT_FALSE(fresh->contains_inbound(client_conn(2, 4000).inverse()));
  EXPECT_TRUE(fresh->contains_inbound(client_conn(2, 4001).inverse()));
  EXPECT_FALSE(hier.admits_inbound(udp(client_conn(2, 4000).inverse(), 1.0)));
  EXPECT_TRUE(hier.admits_inbound(udp(client_conn(2, 4001).inverse(), 1.0)));
  EXPECT_EQ(hier.fine_evictions(), 5u);
}

TEST(HierarchicalFilter, LruCapEvictsLeastRecentTenant) {
  check_lru_cap_evicts_least_recent_tenant("bitmap");
  check_lru_cap_evicts_least_recent_tenant("bitmap-blocked");
}

// Seeded LRU-order differential against a std::list reference model:
// marks instantiate or refresh a tenant's fine filter, and lookups of
// recently marked flows pass the front tier, so they refresh recency too.
// After every step the filter's evictions, live count and the tenants
// listed by tenant_occupancies() must match the model.
TEST(HierarchicalFilter, LruOrderMatchesListModel) {
  constexpr std::size_t kCap = 8;
  constexpr std::uint8_t kHosts = 24;
  HierarchicalFilter hier{config_for("bitmap-blocked", kCap)};
  ASSERT_TRUE(hier.front_short_circuit());

  std::list<TenantId> lru;  // front = most recently used
  std::set<TenantId> seen;
  std::uint64_t evictions = 0;
  const auto touch = [&lru](TenantId tenant) {
    const auto it = std::find(lru.begin(), lru.end(), tenant);
    if (it == lru.end()) return false;
    lru.splice(lru.begin(), lru, it);
    return true;
  };

  const TenantTable table{TenantTableConfig{TenantMode::kPerSubscriber}};
  Rng rng{20260117};
  std::vector<FiveTuple> recent;  // flows marked in the last few steps
  std::size_t refreshing_lookups = 0;
  for (int step = 0; step < 3000; ++step) {
    const double t = step * 0.001;
    hier.advance_time(SimTime::from_sec(t));
    if (recent.empty() || rng.next_bool(0.5)) {
      const auto host = static_cast<std::uint8_t>(2 + rng.next_below(kHosts));
      const FiveTuple conn = client_conn(
          host, static_cast<std::uint16_t>(4000 + rng.next_below(64)));
      hier.record_outbound(udp(conn, t));
      const TenantId tenant = table.tenant_of_outbound(conn);
      seen.insert(tenant);
      if (!touch(tenant)) {
        if (lru.size() >= kCap) {
          lru.pop_back();
          ++evictions;
        }
        lru.push_front(tenant);
      }
      recent.push_back(conn);
      if (recent.size() > 32) recent.erase(recent.begin());
    } else {
      const FiveTuple& conn = recent[rng.next_below(recent.size())];
      hier.admits_inbound(udp(conn.inverse(), t));
      if (touch(table.tenant_of_outbound(conn))) ++refreshing_lookups;
    }
    ASSERT_EQ(hier.fine_evictions(), evictions) << "step " << step;
    ASSERT_EQ(hier.live_fine_filters(), lru.size()) << "step " << step;
    ASSERT_EQ(hier.tenant_count(), seen.size()) << "step " << step;
    std::set<TenantId> listed;
    for (const auto& [tenant, occupancy] : hier.tenant_occupancies()) {
      listed.insert(tenant);
    }
    ASSERT_EQ(listed, std::set<TenantId>(lru.begin(), lru.end()))
        << "step " << step;
  }
  EXPECT_GT(evictions, 100u);
  EXPECT_GT(refreshing_lookups, 100u);
}

// An idle tenant's fine filter is only advanced when it is next touched,
// so occupancies are reported after advancing each one to the filter
// clock: tenant .2's marks expired k*dt = 8 s after t = 0.5 s, and it must
// not report them at t = 99 s.
TEST(HierarchicalFilter, OccupanciesOfIdleTenantsAreCurrent) {
  HierarchicalFilter hier{config_for("bitmap-blocked", 64)};
  for (int flow = 0; flow < 50; ++flow) {
    const double t = flow * 0.01;
    hier.advance_time(SimTime::from_sec(t));
    hier.record_outbound(
        udp(client_conn(2, static_cast<std::uint16_t>(4000 + flow)), t));
  }
  for (int second = 1; second <= 99; ++second) {
    hier.advance_time(SimTime::from_sec(second));
    hier.record_outbound(udp(client_conn(3, 5000), second));
  }
  const TenantTable table{TenantTableConfig{TenantMode::kPerSubscriber}};
  std::map<TenantId, double> occupancy;
  for (const auto& [tenant, occ] : hier.tenant_occupancies()) {
    occupancy[tenant] = occ;
  }
  ASSERT_EQ(occupancy.size(), 2u);
  EXPECT_EQ(occupancy.at(table.tenant_of(Ipv4Addr{10, 40, 0, 2})), 0.0);
  EXPECT_GT(occupancy.at(table.tenant_of(Ipv4Addr{10, 40, 0, 3})), 0.0);
}

TEST(HierarchicalFilter, FrontAbsorbsUnsolicitedWithoutInstantiating) {
  HierarchicalFilter hier{config_for("bitmap", 64)};
  ASSERT_TRUE(hier.front_short_circuit());
  for (std::uint8_t host = 2; host < 12; ++host) {
    hier.advance_time(SimTime::from_sec(host * 0.01));
    EXPECT_FALSE(
        hier.admits_inbound(udp(client_conn(host, 5000).inverse(),
                                host * 0.01)));
  }
  // All ten probes died on the shared front tier: no fine filter was ever
  // built for tenants that only ever receive unsolicited traffic.
  EXPECT_EQ(hier.live_fine_filters(), 0u);
  EXPECT_EQ(hier.fine_instantiations(), 0u);
  EXPECT_EQ(hier.front_absorbed(), 10u);
}

TEST(HierarchicalFilter, ImpureFineTierDisablesTheShortCircuit) {
  HierarchicalFilter hier{config_for("spi", 64)};
  EXPECT_FALSE(hier.front_short_circuit());
  // Verdicts still work; the fine tier alone decides.
  hier.advance_time(SimTime::from_sec(0.0));
  hier.record_outbound(udp(client_conn(2, 4000), 0.0));
  hier.advance_time(SimTime::from_sec(0.1));
  EXPECT_TRUE(hier.admits_inbound(udp(client_conn(2, 4000).inverse(), 0.1)));
}

TEST(HierarchicalFilter, DigestRoamsStateBetweenRouters) {
  const HierarchicalFilterConfig config = config_for("bitmap", 64);
  ASSERT_TRUE(config.digest.has_value());
  HierarchicalFilter router_a{config};
  HierarchicalFilter router_b{config};

  const FiveTuple conn = client_conn(2, 4100);
  router_a.advance_time(SimTime::from_sec(0.0));
  router_a.record_outbound(udp(conn, 0.0));
  router_b.advance_time(SimTime::from_sec(0.1));

  // Without the exchange, router B denies the roamed client's response.
  EXPECT_FALSE(router_b.admits_inbound(udp(conn.inverse(), 0.1)));

  const TenantTable table{config.table};
  const TenantId tenant = table.tenant_of_outbound(conn);
  const std::optional<StateDigest> digest = router_a.local_digest(tenant);
  ASSERT_TRUE(digest.has_value());
  ASSERT_EQ(router_b.apply_digest(*digest), DigestError::kNone);

  router_b.advance_time(SimTime::from_sec(0.2));
  EXPECT_TRUE(router_b.admits_inbound(udp(conn.inverse(), 0.2)));
  EXPECT_EQ(router_b.digest_admits(), 1u);
}

TEST(HierarchicalFilter, CombinedDigestsConvergeByteIdentically) {
  const HierarchicalFilterConfig config = config_for("bitmap", 64);
  HierarchicalFilter router_a{config};
  HierarchicalFilter router_b{config};
  router_a.advance_time(SimTime::from_sec(0.0));
  router_b.advance_time(SimTime::from_sec(0.0));
  router_a.record_outbound(udp(client_conn(2, 4000), 0.0));
  router_b.record_outbound(udp(client_conn(2, 4001), 0.0));

  const TenantTable table{config.table};
  const TenantId tenant = table.tenant_of(Ipv4Addr{10, 40, 0, 2});
  ASSERT_EQ(router_a.apply_digest(*router_b.local_digest(tenant)),
            DigestError::kNone);
  ASSERT_EQ(router_b.apply_digest(*router_a.local_digest(tenant)),
            DigestError::kNone);

  const std::optional<StateDigest> from_a = router_a.combined_digest(tenant);
  const std::optional<StateDigest> from_b = router_b.combined_digest(tenant);
  ASSERT_TRUE(from_a.has_value());
  ASSERT_TRUE(from_b.has_value());
  EXPECT_EQ(from_a->serialize(), from_b->serialize());
}

TEST(HierarchicalFilter, StaleDigestEpochIsRejected) {
  const HierarchicalFilterConfig config = config_for("bitmap", 64);
  HierarchicalFilter router{config};
  // Advance well past several digest epochs, then offer an epoch-0 digest.
  router.advance_time(SimTime::from_sec(10.0 * config.fine_window.to_sec()));
  StateDigest ancient{TenantTable{config.table}.tenant_of(
                          Ipv4Addr{10, 40, 0, 2}),
                      0, *config.digest};
  EXPECT_EQ(router.apply_digest(ancient), DigestError::kEpochMismatch);
}

TEST(HierarchicalFilter, RegistryDescriptorDeclaresTenancy) {
  const BackendDescriptor& backend =
      FilterRegistry::instance().at("hierarchical");
  EXPECT_TRUE(backend.has(kCapTenancy));
  EXPECT_TRUE(backend.has(kCapOccupancy));
  // Exactly one backend carries the tenancy capability.
  int tenancy_backends = 0;
  for (const BackendDescriptor& d :
       FilterRegistry::instance().descriptors()) {
    if (d.has(kCapTenancy)) ++tenancy_backends;
  }
  EXPECT_EQ(tenancy_backends, 1);
}

}  // namespace
}  // namespace upbound
