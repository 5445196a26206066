// Cache hints are invisible. For every registered backend, a filter that
// receives StateFilter::prefetch before every operation behaves exactly
// like a twin that never does: same verdicts, occupancy and storage. The
// hierarchical backend is driven under LRU evictions and with traffic for
// tenants it has never seen, and the router's prefetch pass must leave its
// stats -- per-tenant slices included -- unchanged.
#include <gtest/gtest.h>

#include <array>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "filter/drop_policy.h"
#include "filter/filter_registry.h"
#include "sim/edge_router.h"
#include "sim/tenant_scenarios.h"
#include "tenant/hierarchical_filter.h"
#include "util/rng.h"

namespace upbound {
namespace {

constexpr std::uint32_t kClientNet = 0x8c701e00u;  // 140.112.30.0/24

/// An outbound conversation of client `host` in 140.112.30.0/24.
FiveTuple client_tuple(Rng& rng, std::uint32_t host) {
  return FiveTuple{rng.next_bool(0.5) ? Protocol::kTcp : Protocol::kUdp,
                   Ipv4Addr{kClientNet | host},
                   static_cast<std::uint16_t>(rng.next_range(1024, 65535)),
                   Ipv4Addr{static_cast<std::uint32_t>(rng.next_u64())},
                   static_cast<std::uint16_t>(rng.next_range(1, 65535))};
}

/// Data packet with no TCP flags: never triggers close-side deletion.
PacketRecord packet(const FiveTuple& t, double t_sec) {
  PacketRecord pkt;
  pkt.timestamp = SimTime::from_sec(t_sec);
  pkt.tuple = t;
  pkt.payload_size = 100;
  return pkt;
}

MapFilterArgs twin_args(const std::string& backend) {
  MapFilterArgs args;
  args.set("bits", "12").set("k", "4").set("m", "3").set("dt", "2");
  if (backend == "hierarchical") {
    // 32 sending hosts over 8 live fine filters: constant eviction.
    args.set("fine", "bitmap-blocked").set("tenant-cap", "8");
  }
  return args;
}

std::vector<std::string> backend_names() {
  std::vector<std::string> out;
  for (const BackendDescriptor& backend :
       FilterRegistry::instance().descriptors()) {
    out.push_back(backend.name);
  }
  return out;
}

class PrefetchTwin : public ::testing::TestWithParam<std::string> {};

TEST_P(PrefetchTwin, HintedFilterMatchesUnhintedTwin) {
  constexpr std::uint32_t kSeenHosts = 32;
  const FilterSpec spec =
      FilterRegistry::instance().parse(GetParam(), twin_args(GetParam()));
  const std::unique_ptr<StateFilter> hinted = make_state_filter(spec);
  const std::unique_ptr<StateFilter> twin = make_state_filter(spec);

  Rng rng{20261017};
  std::vector<FiveTuple> marked;
  int admitted = 0;
  double t = 0.0;
  for (int op = 0; op < 20000; ++op) {
    t += rng.exponential(0.005);
    hinted->advance_time(SimTime::from_sec(t));
    twin->advance_time(SimTime::from_sec(t));
    const std::uint64_t kind = marked.empty() ? 0 : rng.next_below(4);
    if (kind == 0) {
      const FiveTuple conn = client_tuple(
          rng, 2 + static_cast<std::uint32_t>(rng.next_below(kSeenHosts)));
      const PacketRecord pkt = packet(conn, t);
      hinted->prefetch(pkt, Direction::kOutbound);
      hinted->record_outbound(pkt);
      twin->record_outbound(pkt);
      marked.push_back(conn);
      continue;
    }
    // A marked flow's response, unsolicited traffic to a host that never
    // sent anything, or a hint for a direction the filter ignores.
    const FiveTuple conn =
        kind == 1 ? marked[rng.next_below(marked.size())]
                  : client_tuple(rng, 100 + static_cast<std::uint32_t>(
                                                rng.next_below(64)));
    const PacketRecord pkt = packet(conn.inverse(), t);
    hinted->prefetch(pkt, kind == 3 ? Direction::kTransit
                                    : Direction::kInbound);
    const bool verdict = hinted->admits_inbound(pkt);
    ASSERT_EQ(verdict, twin->admits_inbound(pkt)) << "op " << op;
    if (verdict) ++admitted;
    ASSERT_EQ(hinted->occupancy_fraction(), twin->occupancy_fraction())
        << "op " << op;
    ASSERT_EQ(hinted->storage_bytes(), twin->storage_bytes()) << "op " << op;
  }
  EXPECT_GT(admitted, 0);
  EXPECT_EQ(hinted->expiry_generations(), twin->expiry_generations());
}

INSTANTIATE_TEST_SUITE_P(Registry, PrefetchTwin,
                         ::testing::ValuesIn(backend_names()),
                         [](const ::testing::TestParamInfo<std::string>& i) {
                           std::string name = i.param;
                           for (char& c : name) {
                             if (c == '-') c = '_';
                           }
                           return name;
                         });

// The hierarchical hint reads the tenant index but never writes it: no
// entry for a never-seen tenant, no fine filter instantiated, no LRU
// refresh (which would change who is evicted next).
TEST(HierarchicalPrefetch, HintsCreateNoTenantsAndKeepLruOrder) {
  const HierarchicalFilterConfig config =
      FilterRegistry::instance()
          .parse("hierarchical", twin_args("hierarchical"))
          .config_as<HierarchicalFilterConfig>();
  HierarchicalFilter hinted{config};
  HierarchicalFilter twin{config};

  Rng rng{5150};
  std::set<std::uint32_t> senders;
  double t = 0.0;
  for (int op = 0; op < 5000; ++op) {
    t += 0.002;
    hinted.advance_time(SimTime::from_sec(t));
    twin.advance_time(SimTime::from_sec(t));
    // Hint every host, sending or not, in both directions: only the
    // operation that follows may touch recency.
    const auto any_host = static_cast<std::uint32_t>(2 + rng.next_below(64));
    const FiveTuple hint_conn = client_tuple(rng, any_host);
    hinted.prefetch(packet(hint_conn, t), Direction::kOutbound);
    hinted.prefetch(packet(hint_conn.inverse(), t), Direction::kInbound);

    const auto host = static_cast<std::uint32_t>(2 + rng.next_below(32));
    const PacketRecord pkt = packet(client_tuple(rng, host), t);
    if (rng.next_bool(0.5)) {
      hinted.record_outbound(pkt);
      twin.record_outbound(pkt);
      senders.insert(host);
    } else {
      const PacketRecord response = packet(pkt.tuple.inverse(), t);
      ASSERT_EQ(hinted.admits_inbound(response), twin.admits_inbound(response));
    }
    ASSERT_EQ(hinted.tenant_count(), senders.size()) << "op " << op;
    ASSERT_EQ(hinted.live_fine_filters(), twin.live_fine_filters());
    ASSERT_EQ(hinted.fine_instantiations(), twin.fine_instantiations());
    ASSERT_EQ(hinted.fine_evictions(), twin.fine_evictions()) << "op " << op;
  }
  EXPECT_GT(hinted.fine_evictions(), 100u);
  EXPECT_EQ(hinted.tenant_occupancies(), twin.tenant_occupancies());
  EXPECT_EQ(hinted.storage_bytes(), twin.storage_bytes());
}

/// A swarm-join trace plus unsolicited inbound packets to client hosts
/// that never send: the router's prefetch pass hints them ahead of time.
Trace trace_with_unseen_tenants(const TenantScenarioTrace& scenario) {
  Trace trace = scenario.packets;
  Rng rng{404};
  for (std::size_t i = 50; i < trace.size(); i += 50) {
    PacketRecord pkt = trace[i];
    pkt.tuple = FiveTuple{Protocol::kUdp,
                          Ipv4Addr{static_cast<std::uint32_t>(rng.next_u64())},
                          6881,
                          Ipv4Addr{Ipv4Addr{10, 40, 200, 0}.value() |
                                   static_cast<std::uint32_t>(
                                       rng.next_below(16))},
                          7000};
    trace[i] = pkt;
  }
  return trace;
}

TEST(RouterPrefetchPass, AddsNoTenantsAndMatchesPerPacketProcessing) {
  TenantScenarioConfig scenario_config;
  scenario_config.tenants = 24;
  scenario_config.duration = Duration::sec(20.0);
  scenario_config.seed = 3;
  const TenantScenarioTrace scenario =
      generate_tenant_scenario(TenantScenarioKind::kSwarmJoin,
                               scenario_config);
  const Trace trace = trace_with_unseen_tenants(scenario);

  EdgeRouterConfig config;
  config.network = scenario.network;
  config.tenancy.enabled = true;
  MapFilterArgs args;
  args.set("fine", "bitmap-blocked").set("bits", "12").set("tenant-cap", "8");
  const FilterSpec spec =
      FilterRegistry::instance().parse("hierarchical", args);
  const auto make_router = [&] {
    return EdgeRouter{config, make_state_filter(spec),
                      std::make_unique<RedDropPolicy>(1e5, 4e5)};
  };
  EdgeRouter batched = make_router();
  EdgeRouter single = make_router();

  std::array<RouterDecision, 256> decisions;
  for (std::size_t start = 0; start < trace.size(); start += decisions.size()) {
    const std::size_t n = std::min(decisions.size(), trace.size() - start);
    batched.process_batch(PacketBatch{trace.data() + start, n},
                          std::span<RouterDecision>{decisions.data(), n});
  }
  for (const PacketRecord& pkt : trace) single.process(pkt);

  // The tenants in the stats are exactly the ones decisions were
  // attributed to, and the hierarchical filter only knows the senders.
  const TenantTable table{config.tenancy.table};
  std::set<TenantId> attributed;
  std::set<TenantId> senders;
  for (const PacketRecord& pkt : trace) {
    const Direction dir = config.network.classify(pkt);
    if (dir == Direction::kOutbound) {
      attributed.insert(table.tenant_of_outbound(pkt.tuple));
      senders.insert(table.tenant_of_outbound(pkt.tuple));
    } else if (dir == Direction::kInbound) {
      attributed.insert(table.tenant_of_inbound(pkt.tuple));
    }
  }
  ASSERT_GT(attributed.size(), senders.size());
  const EdgeRouterStats stats = batched.stats();
  std::set<TenantId> reported;
  for (const auto& [tenant, slice] : stats.tenants) reported.insert(tenant);
  EXPECT_EQ(reported, attributed);
  EXPECT_EQ(stats, single.stats());
  ASSERT_NE(batched.hierarchical_filter(), nullptr);
  EXPECT_EQ(batched.hierarchical_filter()->tenant_count(), senders.size());
  EXPECT_GT(batched.hierarchical_filter()->fine_evictions(), 0u);
  const TenantId unseen = Ipv4Addr{10, 40, 200, 0}.value();
  EXPECT_EQ(batched.tenant_uplink_bits_per_sec(unseen, SimTime::from_sec(20)),
            0.0);
}

}  // namespace
}  // namespace upbound
