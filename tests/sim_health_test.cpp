// The health monitor and the degraded-operation stance: occupancy and
// clamped-clock signals drive a hysteretic healthy/degraded state
// machine, and a degraded router changes exactly one thing -- the
// stateless-inbound verdict (fail-open admits, fail-closed drops).
#include <gtest/gtest.h>

#include "fault/health_monitor.h"
#include "filter/bitmap_filter.h"
#include "filter/drop_policy.h"
#include "filter/filter_registry.h"
#include "sim/edge_router.h"

namespace upbound {
namespace {

TEST(HealthMonitor, OccupancyEntersAndExitsWithHysteresis) {
  HealthConfig config;
  config.stance = UnhealthyStance::kFailOpen;
  config.occupancy_enter = 0.5;
  config.occupancy_exit = 0.35;
  HealthMonitor monitor{config};
  EXPECT_FALSE(monitor.degraded());

  monitor.note_occupancy(0.4, SimTime::from_sec(1.0));
  EXPECT_FALSE(monitor.degraded());  // below enter: still healthy
  monitor.note_occupancy(0.6, SimTime::from_sec(2.0));
  EXPECT_TRUE(monitor.degraded());
  monitor.note_occupancy(0.4, SimTime::from_sec(3.0));
  EXPECT_TRUE(monitor.degraded());  // inside the hysteresis band
  monitor.note_occupancy(0.3, SimTime::from_sec(4.0));
  EXPECT_FALSE(monitor.degraded());  // below exit: recovered

  EXPECT_EQ(monitor.transitions_to_degraded(), 1u);
  EXPECT_EQ(monitor.transitions_to_healthy(), 1u);
}

TEST(HealthMonitor, ClampBurstTripsAndHoldExpires) {
  HealthConfig config;
  config.stance = UnhealthyStance::kFailClosed;
  config.clamp_threshold = 3;
  config.clamp_hold = Duration::sec(5.0);
  HealthMonitor monitor{config};

  monitor.note_clock_clamp(SimTime::from_sec(1.0));
  monitor.note_clock_clamp(SimTime::from_sec(1.1));
  EXPECT_FALSE(monitor.degraded());  // below threshold
  monitor.note_clock_clamp(SimTime::from_sec(1.2));
  EXPECT_TRUE(monitor.degraded());
  EXPECT_EQ(monitor.clamp_events(), 3u);

  // Signal holds while time stays inside the window ...
  monitor.note_occupancy(0.0, SimTime::from_sec(4.0));
  EXPECT_TRUE(monitor.degraded());
  // ... and clears once the hold expires with no further clamps.
  monitor.note_occupancy(0.0, SimTime::from_sec(12.0));
  EXPECT_FALSE(monitor.degraded());
}

TEST(HealthMonitor, ZeroClampThresholdDisablesTheClockSignal) {
  HealthConfig config;
  config.stance = UnhealthyStance::kFailOpen;
  config.clamp_threshold = 0;
  HealthMonitor monitor{config};
  for (int i = 0; i < 100; ++i) {
    monitor.note_clock_clamp(SimTime::from_sec(1.0));
  }
  EXPECT_FALSE(monitor.degraded());
  EXPECT_EQ(monitor.clamp_events(), 100u);
}

// ---------------- Router integration ----------------

ClientNetwork campus() {
  return ClientNetwork{{*Cidr::parse("140.112.30.0/24")}};
}

PacketRecord pkt(const FiveTuple& t, double t_sec) {
  PacketRecord p;
  p.timestamp = SimTime::from_sec(t_sec);
  p.tuple = t;
  p.flags.ack = true;
  p.payload_size = 100;
  return p;
}

FiveTuple out_conn(std::uint32_t n) {
  return FiveTuple{Protocol::kTcp, Ipv4Addr{140, 112, 30, 5},
                   static_cast<std::uint16_t>(1024 + n % 60000),
                   Ipv4Addr{0x3d000000u + n}, 80};
}

FiveTuple unknown_inbound(std::uint16_t sport = 3333) {
  return FiveTuple{Protocol::kTcp, Ipv4Addr{99, 88, 77, 66}, sport,
                   Ipv4Addr{140, 112, 30, 9}, 44444};
}

std::unique_ptr<EdgeRouter> health_router(UnhealthyStance stance,
                                          double enter = 0.2) {
  EdgeRouterConfig config;
  config.network = campus();
  config.health.stance = stance;
  config.health.occupancy_enter = enter;
  config.health.occupancy_exit = enter * 0.5;
  config.health.occupancy_sample_batches = 1;  // sample every packet
  BitmapFilterConfig filter_config;
  filter_config.log2_bits = 8;  // 256 bits/vector: easy to saturate
  filter_config.vector_count = 4;
  filter_config.hash_count = 3;
  return std::make_unique<EdgeRouter>(
      config, make_state_filter(bitmap_filter_spec(filter_config)),
      std::make_unique<ConstantDropPolicy>(1.0));
}

/// Drives enough distinct outbound connections through the tiny bitmap to
/// push its current-vector occupancy past `enter`.
void saturate(EdgeRouter& router, int connections = 60) {
  for (int i = 0; i < connections; ++i) {
    router.process(pkt(out_conn(static_cast<std::uint32_t>(i)),
                       0.001 * static_cast<double>(i)));
  }
}

std::uint64_t counter_value(const MetricsSnapshot& snap,
                            const std::string& name) {
  for (const CounterSample& sample : snap.counters) {
    if (sample.name == name) return sample.value;
  }
  return 0;
}

TEST(RouterHealth, DisabledStanceExposesNoHealthSurface) {
  auto router = health_router(UnhealthyStance::kDisabled);
  saturate(*router);
  EXPECT_EQ(router->health(), nullptr);
  const MetricsSnapshot snap = router->metrics_snapshot();
  for (const CounterSample& sample : snap.counters) {
    EXPECT_EQ(sample.name.rfind("health.", 0), std::string::npos)
        << sample.name;
  }
  for (const GaugeSample& gauge : snap.gauges) {
    EXPECT_NE(gauge.name, "health.state");
  }
}

TEST(RouterHealth, SaturationDegradesTheRouter) {
  auto router = health_router(UnhealthyStance::kFailOpen);
  ASSERT_NE(router->health(), nullptr);
  EXPECT_FALSE(router->health()->degraded());
  saturate(*router);
  // The poll runs at the head of each batch, so one more packet observes
  // the saturated occupancy and trips the transition.
  router->process(pkt(out_conn(1000), 1.0));
  EXPECT_TRUE(router->health()->degraded());

  const MetricsSnapshot snap = router->metrics_snapshot();
  EXPECT_GE(counter_value(snap, "health.transitions_degraded"), 1u);
  bool saw_state = false;
  for (const GaugeSample& gauge : snap.gauges) {
    if (gauge.name == "health.state") {
      saw_state = true;
      EXPECT_DOUBLE_EQ(gauge.value, 1.0);
    }
  }
  EXPECT_TRUE(saw_state);
}

TEST(RouterHealth, FailOpenAdmitsStatelessInboundWhileDegraded) {
  auto router = health_router(UnhealthyStance::kFailOpen);
  saturate(*router);
  router->process(pkt(out_conn(1000), 1.0));
  ASSERT_TRUE(router->health()->degraded());

  // P_d = 1 would normally drop this; the fail-open stance waives it.
  EXPECT_EQ(router->process(pkt(unknown_inbound(), 1.1)),
            RouterDecision::kPassedInbound);
  const MetricsSnapshot snap = router->metrics_snapshot();
  EXPECT_GE(counter_value(snap, "health.fail_open_admits"), 1u);
}

TEST(RouterHealth, FailClosedDropsWithoutPolicyOrBlocklistSideEffects) {
  auto router = health_router(UnhealthyStance::kFailClosed);
  saturate(*router);
  router->process(pkt(out_conn(1000), 1.0));
  ASSERT_TRUE(router->health()->degraded());

  const EdgeRouterStats before = router->stats();
  EXPECT_EQ(router->process(pkt(unknown_inbound(), 1.1)),
            RouterDecision::kDroppedByPolicy);
  const EdgeRouterStats after = router->stats();
  EXPECT_EQ(after.inbound_dropped_packets,
            before.inbound_dropped_packets + 1);

  // The drop bypassed Eq. 1 and the blocklist: the policy stage ran zero
  // evaluations for it, and a repeat of the same connection is dropped by
  // the degraded stance again, not by a blocklist hit.
  const MetricsSnapshot snap = router->metrics_snapshot();
  EXPECT_EQ(counter_value(snap, "policy.evaluations"),
            counter_value(snap, "policy.drops") +
                counter_value(snap, "policy.passes"));
  EXPECT_GE(counter_value(snap, "health.fail_closed_drops"), 1u);
  EXPECT_EQ(router->process(pkt(unknown_inbound(), 1.2)),
            RouterDecision::kDroppedByPolicy);
  EXPECT_EQ(router->stats().blocked_drops, before.blocked_drops);
}

TEST(RouterHealth, HealthyRouterBehavesExactlyLikeDisabled) {
  // With a sky-high threshold the monitor never trips; decisions and
  // stats must match a router with the feature off entirely.
  auto enabled = health_router(UnhealthyStance::kFailClosed, 0.99);
  auto disabled = health_router(UnhealthyStance::kDisabled, 0.99);
  for (int i = 0; i < 200; ++i) {
    const PacketRecord p =
        i % 3 == 2 ? pkt(unknown_inbound(static_cast<std::uint16_t>(i)),
                         0.01 * static_cast<double>(i))
                   : pkt(out_conn(static_cast<std::uint32_t>(i / 2)),
                         0.01 * static_cast<double>(i));
    ASSERT_EQ(enabled->process(p), disabled->process(p)) << "packet " << i;
  }
  EXPECT_FALSE(enabled->health()->degraded());
  const EdgeRouterStats a = enabled->stats();
  EdgeRouterStats b = disabled->stats();
  // The enabled router's snapshot additionally carries the (all-zero)
  // health.* counters; compare everything else field by field.
  b.stage_counters = a.stage_counters;
  EdgeRouterStats a_copy = a;
  a_copy.stage_counters = b.stage_counters;
  EXPECT_EQ(a_copy, b);
  for (const CounterSample& sample : a.stage_counters) {
    if (sample.name.rfind("health.", 0) == 0) {
      EXPECT_EQ(sample.value, 0u) << sample.name;
    }
  }
}

TEST(RouterHealth, OccupancyBlindBackendCountsSkippedSamples) {
  // The aging backend has no kCapOccupancy: an armed health monitor runs
  // blind on the saturation signal and says so via a counter instead of
  // silently reporting "healthy".
  EdgeRouterConfig config;
  config.network = campus();
  config.health.stance = UnhealthyStance::kFailOpen;
  config.health.occupancy_enter = 0.2;
  config.health.occupancy_exit = 0.1;
  config.health.occupancy_sample_batches = 1;
  auto router = std::make_unique<EdgeRouter>(
      config,
      make_state_filter(FilterRegistry::instance().parse("aging",
                                                         MapFilterArgs{})),
      std::make_unique<ConstantDropPolicy>(1.0));
  ASSERT_NE(router->health(), nullptr);
  saturate(*router);
  router->process(pkt(out_conn(1000), 1.0));

  const MetricsSnapshot snap = router->metrics_snapshot();
  EXPECT_GT(counter_value(snap, "health.occupancy_unsupported"), 0u);
  // Blind, not degraded: the occupancy signal never fired.
  EXPECT_FALSE(router->health()->degraded());
  EXPECT_EQ(counter_value(snap, "health.transitions_degraded"), 0u);

  // An occupancy-capable backend under the identical setup never counts a
  // skipped sample.
  auto seeing = health_router(UnhealthyStance::kFailOpen);
  saturate(*seeing);
  seeing->process(pkt(out_conn(1000), 1.0));
  EXPECT_EQ(counter_value(seeing->metrics_snapshot(),
                          "health.occupancy_unsupported"),
            0u);
}

TEST(RouterHealth, RegressedClocksCanDegradeTheRouter) {
  EdgeRouterConfig config;
  config.network = campus();
  config.health.stance = UnhealthyStance::kFailClosed;
  config.health.occupancy_enter = 0.99;  // occupancy signal out of play
  config.health.clamp_threshold = 2;
  config.health.clamp_hold = Duration::sec(60.0);
  BitmapFilterConfig filter_config;
  filter_config.log2_bits = 12;
  auto router = std::make_unique<EdgeRouter>(
      config, make_state_filter(bitmap_filter_spec(filter_config)),
      std::make_unique<ConstantDropPolicy>(1.0));

  router->process(pkt(out_conn(1), 5.0));
  EXPECT_FALSE(router->health()->degraded());
  // Two regressed timestamps: clamped, counted, and past the threshold.
  router->process(pkt(out_conn(2), 1.0));
  router->process(pkt(out_conn(3), 1.5));
  router->process(pkt(out_conn(4), 5.1));
  EXPECT_TRUE(router->health()->degraded());
  EXPECT_EQ(router->stats().out_of_order_packets, 2u);
}

}  // namespace
}  // namespace upbound
