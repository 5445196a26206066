// Multi-tenant isolation: one subscriber's swarm must not move a
// neighbour's drop rate when the Eq. 1 input is the tenant's own uplink
// meter -- and, by contrast, does exactly that under aggregate metering.
// Also locks in that per-tenant stats are shard-local under parallel
// replay (thread-count invariant, fault plane included) and that the
// attack evaluator reports the per-tenant Eq. 1 bound.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>

#include "attack/evaluator.h"
#include "fault/fault_injector.h"
#include "filter/drop_policy.h"
#include "filter/filter_registry.h"
#include "sim/parallel_replay.h"
#include "sim/replay.h"
#include "sim/tenant_scenarios.h"

namespace upbound {
namespace {

// Thresholds sized so an idle tenant (~20 kbit/s uplink) always reads
// P_d = 0 while the swarm's ramp (~1.5 Mbit/s at the end) pins P_d = 1
// for most of the trace.
constexpr double kLow = 100e3;
constexpr double kHigh = 400e3;

TenantScenarioConfig swarm_config(double final_multiple) {
  TenantScenarioConfig config;
  config.tenants = 6;
  config.duration = Duration::sec(40.0);
  config.seed = 5;
  config.swarm_final_multiple = final_multiple;
  return config;
}

/// The ramping subscriber is always the pool's first address.
TenantId swarm_tenant() { return Ipv4Addr{10, 40, 0, 2}.value(); }

FilterSpec hierarchical_spec() {
  MapFilterArgs margs;
  margs.set("fine", "bitmap");
  return FilterRegistry::instance().at("hierarchical").parse(margs);
}

ReplayResult replay_per_tenant(const TenantScenarioTrace& trace) {
  EdgeRouterConfig config;
  config.network = trace.network;
  config.seed = 7;
  config.tenancy.enabled = true;
  EdgeRouter router{config, make_state_filter(hierarchical_spec()),
                    std::make_unique<RedDropPolicy>(kLow, kHigh)};
  return replay_trace(trace.packets, router, trace.network);
}

TEST(TenantIsolation, SwarmTenantCannotRaiseNeighbourDropRates) {
  const TenantScenarioTrace swarm =
      generate_tenant_scenario(TenantScenarioKind::kSwarmJoin,
                               swarm_config(32.0));
  const ReplayResult result = replay_per_tenant(swarm);

  const auto swarm_it = result.stats.tenants.find(swarm_tenant());
  ASSERT_NE(swarm_it, result.stats.tenants.end());
  // The swarm pushed its own meter past H: its stateless inbound dies.
  EXPECT_GT(swarm_it->second.policy_drops, 0u);

  // Every neighbour's meter stayed below L, so their Eq. 1 input reads
  // P_d = 0: zero drops of any kind, regardless of the swarm next door.
  ASSERT_GT(result.stats.tenants.size(), 1u);
  for (const auto& [tenant, stats] : result.stats.tenants) {
    if (tenant == swarm_tenant()) continue;
    EXPECT_EQ(stats.policy_drops, 0u);
    EXPECT_EQ(stats.blocked_drops, 0u);
    EXPECT_EQ(stats.inbound_dropped_packets, 0u);
  }

  // And the neighbours' own traffic is untouched by the swarm's size:
  // the quiet-swarm trace carries the identical per-neighbour upload.
  const TenantScenarioTrace quiet =
      generate_tenant_scenario(TenantScenarioKind::kSwarmJoin,
                               swarm_config(1.0));
  const ReplayResult baseline = replay_per_tenant(quiet);
  for (const auto& [tenant, stats] : result.stats.tenants) {
    if (tenant == swarm_tenant()) continue;
    const auto it = baseline.stats.tenants.find(tenant);
    ASSERT_NE(it, baseline.stats.tenants.end());
    EXPECT_EQ(stats.outbound_packets, it->second.outbound_packets);
    EXPECT_EQ(stats.outbound_bytes, it->second.outbound_bytes);
    EXPECT_EQ(it->second.inbound_dropped_packets, 0u);
  }
}

TEST(TenantIsolation, AggregateMeteringLeaksTheSwarmIntoNeighbours) {
  const TenantScenarioTrace swarm =
      generate_tenant_scenario(TenantScenarioKind::kSwarmJoin,
                               swarm_config(32.0));

  // Same thresholds, but the classic single-meter deployment: b is the
  // whole uplink, which the swarm pins above H.
  EdgeRouterConfig config;
  config.network = swarm.network;
  config.seed = 7;
  EdgeRouter router{config,
                    make_state_filter(
                        FilterRegistry::instance().parse("bitmap",
                                                         MapFilterArgs{})),
                    std::make_unique<RedDropPolicy>(kLow, kHigh)};

  const TenantTable table{TenantTableConfig{TenantMode::kPerSubscriber}};
  std::uint64_t neighbour_drops = 0;
  for (const PacketRecord& pkt : swarm.packets) {
    const RouterDecision decision = router.process(pkt);
    if (decision == RouterDecision::kDroppedByPolicy &&
        table.tenant_of_inbound(pkt.tuple) != swarm_tenant()) {
      ++neighbour_drops;
    }
  }
  // The collateral the per-tenant meter eliminates.
  EXPECT_GT(neighbour_drops, 0u);
}

ShardRouterFactory tenant_factory() {
  return [](const ClientNetwork& network, std::size_t shard) {
    EdgeRouterConfig config;
    config.network = network;
    config.seed = shard_seed(7, shard);
    config.tenancy.enabled = true;
    return std::make_unique<EdgeRouter>(
        config, make_state_filter(hierarchical_spec()),
        std::make_unique<RedDropPolicy>(kLow, kHigh));
  };
}

TEST(TenantIsolation, ShardedTenantStatsAreThreadCountInvariant) {
  const TenantScenarioTrace trace =
      generate_tenant_scenario(TenantScenarioKind::kSwarmJoin,
                               swarm_config(32.0));
  ParallelReplayConfig config;
  config.threads = 1;
  const ParallelReplayResult reference =
      parallel_replay(trace.packets, trace.network, tenant_factory(), config);
  ASSERT_FALSE(reference.merged.stats.tenants.empty());
  EXPECT_EQ(reference.merged.stats.tenants.size(), trace.truth.size());

  config.threads = 4;
  const ParallelReplayResult result =
      parallel_replay(trace.packets, trace.network, tenant_factory(), config);
  EXPECT_EQ(result.merged.stats, reference.merged.stats);
  EXPECT_EQ(result.shard_stats, reference.shard_stats);

  // The merge is also the sum of the shard-local slices, tenant by
  // tenant -- no cross-shard tenant state to reconcile.
  std::map<TenantId, TenantStats> recount;
  for (const EdgeRouterStats& shard : reference.shard_stats) {
    for (const auto& [tenant, stats] : shard.tenants) {
      recount[tenant].merge(stats);
    }
  }
  EXPECT_EQ(recount, reference.merged.stats.tenants);
}

TEST(TenantIsolation, FaultFailoverKeepsTenantMergeDeterministic) {
  const TenantScenarioTrace trace =
      generate_tenant_scenario(TenantScenarioKind::kSwarmJoin,
                               swarm_config(32.0));

  const auto run = [&](std::size_t threads) {
    FaultInjector injector{FaultSpec::parse("kill-shard:2@100"), 7};
    ParallelReplayConfig config;
    config.threads = threads;
    config.shards = 8;
    config.fault_injector = &injector;
    return parallel_replay(trace.packets, trace.network, tenant_factory(),
                           config);
  };
  const ParallelReplayResult reference = run(1);
  ASSERT_EQ(reference.shard_failed[2], 1u);
  ASSERT_FALSE(reference.merged.stats.tenants.empty());
  for (const std::size_t threads : {2u, 4u}) {
    const ParallelReplayResult result = run(threads);
    EXPECT_EQ(result.merged.stats, reference.merged.stats)
        << "threads=" << threads;
  }
}

TEST(TenantIsolation, AttackEvaluatorReportsPerTenantEq1Rows) {
  TenantScenarioConfig legit_config;
  legit_config.tenants = 4;
  legit_config.duration = Duration::sec(20.0);
  legit_config.seed = 3;
  const TenantScenarioTrace legit =
      generate_tenant_scenario(TenantScenarioKind::kFlashCrowd, legit_config);

  AttackEvaluatorConfig config;
  config.filters = {"bitmap"};
  config.tenancy.enabled = true;
  const AttackScenarioKind scenarios[] = {
      AttackScenarioKind::kSaturationFlooding};
  const AttackReport report =
      evaluate_attacks(legit.packets, legit.network, scenarios, config);

  ASSERT_FALSE(report.outcomes.empty());
  for (const AttackOutcome& outcome : report.outcomes) {
    ASSERT_FALSE(outcome.tenants.empty()) << outcome.scenario;
    EXPECT_TRUE(std::is_sorted(
        outcome.tenants.begin(), outcome.tenants.end(),
        [](const TenantAttackRow& a, const TenantAttackRow& b) {
          return a.tenant < b.tenant;
        }));
    // The rows partition the aggregate tally: attribution loses nothing.
    std::uint64_t legit_inbound = 0;
    std::uint64_t probes = 0;
    for (const TenantAttackRow& row : outcome.tenants) {
      EXPECT_FALSE(row.label.empty());
      EXPECT_GE(row.upload_vs_bound, 0.0);
      legit_inbound += row.tally.legit_inbound_packets;
      probes += row.tally.probe_packets;
    }
    EXPECT_EQ(legit_inbound, outcome.tally.legit_inbound_packets)
        << outcome.scenario;
    EXPECT_EQ(probes, outcome.tally.probe_packets) << outcome.scenario;
  }
  EXPECT_FALSE(report.tenant_table().empty());
}

}  // namespace
}  // namespace upbound
