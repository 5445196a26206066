#include "filter/filter_registry.h"
#include "sim/edge_router.h"

#include <gtest/gtest.h>

#include <array>

#include "filter/bitmap_filter.h"
#include "filter/naive_filter.h"
#include "sim/replay.h"

namespace upbound {
namespace {

ClientNetwork campus() {
  return ClientNetwork{{*Cidr::parse("140.112.30.0/24")}};
}

FiveTuple out_conn(std::uint16_t sport = 40000) {
  return FiveTuple{Protocol::kTcp, Ipv4Addr{140, 112, 30, 5}, sport,
                   Ipv4Addr{61, 2, 3, 4}, 80};
}

FiveTuple in_conn(std::uint16_t speer = 12345) {
  return FiveTuple{Protocol::kTcp, Ipv4Addr{61, 2, 3, 4}, speer,
                   Ipv4Addr{140, 112, 30, 5}, 30000};
}

PacketRecord pkt(const FiveTuple& t, double t_sec,
                 std::uint32_t payload = 0) {
  PacketRecord p;
  p.timestamp = SimTime::from_sec(t_sec);
  p.tuple = t;
  p.flags.ack = true;
  p.payload_size = payload;
  return p;
}

std::unique_ptr<EdgeRouter> make_router(
    double drop_p = 1.0, bool blocklist = true,
    EdgeRouterConfig config = EdgeRouterConfig{}) {
  config.network = campus();
  config.track_blocked_connections = blocklist;
  BitmapFilterConfig filter_config;
  filter_config.log2_bits = 16;
  return std::make_unique<EdgeRouter>(
      config, make_state_filter(bitmap_filter_spec(filter_config)),
      std::make_unique<ConstantDropPolicy>(drop_p));
}

TEST(EdgeRouter, OutboundAlwaysPasses) {
  auto router = make_router();
  EXPECT_EQ(router->process(pkt(out_conn(), 0.0, 100)),
            RouterDecision::kPassedOutbound);
  EXPECT_EQ(router->stats().outbound_packets, 1u);
}

TEST(EdgeRouter, SolicitedInboundPasses) {
  auto router = make_router();
  router->process(pkt(out_conn(), 0.0, 10));
  EXPECT_EQ(router->process(pkt(out_conn().inverse(), 0.1, 500)),
            RouterDecision::kPassedInbound);
}

TEST(EdgeRouter, UnsolicitedInboundDroppedAtPdOne) {
  auto router = make_router(1.0);
  EXPECT_EQ(router->process(pkt(in_conn(), 0.0, 100)),
            RouterDecision::kDroppedByPolicy);
  EXPECT_EQ(router->stats().inbound_dropped_packets, 1u);
}

TEST(EdgeRouter, UnsolicitedInboundPassesAtPdZero) {
  auto router = make_router(0.0);
  EXPECT_EQ(router->process(pkt(in_conn(), 0.0, 100)),
            RouterDecision::kPassedInbound);
}

TEST(EdgeRouter, BlockedConnectionStaysBlocked) {
  auto router = make_router(1.0);
  router->process(pkt(in_conn(), 0.0, 100));  // dropped + blocked
  // Even the outbound reply direction of the blocked pair is suppressed.
  EXPECT_EQ(router->process(pkt(in_conn().inverse(), 0.1, 50)),
            RouterDecision::kDroppedBlocked);
  EXPECT_EQ(router->process(pkt(in_conn(), 0.2, 100)),
            RouterDecision::kDroppedBlocked);
  EXPECT_EQ(router->stats().suppressed_outbound_packets, 1u);
  EXPECT_EQ(router->stats().blocked_drops, 1u);
}

TEST(EdgeRouter, PaperReplaySemanticsKeepBlockedOutboundFlowing) {
  // suppress_blocked_outbound = false reproduces the paper's replay
  // limitation: the blocked connection's inbound packets drop, but its
  // outbound (upload) packets keep flowing and keep marking state.
  EdgeRouterConfig config;
  config.network = campus();
  config.track_blocked_connections = true;
  config.suppress_blocked_outbound = false;
  BitmapFilterConfig filter_config;
  filter_config.log2_bits = 16;
  EdgeRouter router{config, make_state_filter(bitmap_filter_spec(filter_config)),
                    std::make_unique<ConstantDropPolicy>(1.0)};

  router.process(pkt(in_conn(), 0.0, 100));  // dropped + blocked
  // Outbound reply direction still passes (paper replay semantics)...
  EXPECT_EQ(router.process(pkt(in_conn().inverse(), 0.1, 50)),
            RouterDecision::kPassedOutbound);
  EXPECT_EQ(router.stats().suppressed_outbound_packets, 0u);
  // ...and because it marked the bitmap, a subsequent inbound packet of
  // the pair would be admitted by the FILTER -- but the blocklist still
  // catches it first.
  EXPECT_EQ(router.process(pkt(in_conn(), 0.2, 100)),
            RouterDecision::kDroppedBlocked);
}

TEST(EdgeRouter, BlocklistDisabledRetriesConsultFilter) {
  auto router = make_router(1.0, /*blocklist=*/false);
  router->process(pkt(in_conn(), 0.0, 100));
  // The retry is evaluated afresh; having since sent outbound traffic on
  // the pair admits it.
  router->process(pkt(in_conn().inverse(), 0.1, 10));
  EXPECT_EQ(router->process(pkt(in_conn(), 0.2, 100)),
            RouterDecision::kPassedInbound);
}

TEST(EdgeRouter, LocalAndTransitIgnored) {
  auto router = make_router();
  FiveTuple local{Protocol::kTcp, Ipv4Addr{140, 112, 30, 1}, 1,
                  Ipv4Addr{140, 112, 30, 2}, 2};
  FiveTuple transit{Protocol::kTcp, Ipv4Addr{1, 1, 1, 1}, 1,
                    Ipv4Addr{2, 2, 2, 2}, 2};
  EXPECT_EQ(router->process(pkt(local, 0.0)), RouterDecision::kIgnored);
  EXPECT_EQ(router->process(pkt(transit, 0.1)), RouterDecision::kIgnored);
  EXPECT_EQ(router->stats().ignored_packets, 2u);
}

TEST(EdgeRouter, MeterSeesOutboundBytes) {
  auto router = make_router();
  router->process(pkt(out_conn(), 0.0, 10000));
  EXPECT_GT(router->uplink_bits_per_sec(SimTime::from_sec(0.5)), 0.0);
}

TEST(EdgeRouter, RedPolicyKicksInWithThroughput) {
  // L = 1 Kbps, H = 2 Kbps: one outbound packet saturates the ramp.
  EdgeRouterConfig config;
  config.network = campus();
  BitmapFilterConfig filter_config;
  filter_config.log2_bits = 16;
  EdgeRouter router{config, make_state_filter(bitmap_filter_spec(filter_config)),
                    std::make_unique<RedDropPolicy>(1e3, 2e3)};
  // Below L: unsolicited inbound passes.
  EXPECT_EQ(router.process(pkt(in_conn(1), 0.0, 100)),
            RouterDecision::kPassedInbound);
  // Push uplink above H.
  router.process(pkt(out_conn(), 0.1, 5000));
  EXPECT_EQ(router.process(pkt(in_conn(2), 0.2, 100)),
            RouterDecision::kDroppedByPolicy);
}

TEST(EdgeRouter, SeriesAccumulatePassedBytes) {
  auto router = make_router(0.0);
  const Trace trace{pkt(out_conn(), 0.5, 1000), pkt(in_conn(), 1.5, 2000)};
  const ReplayResult result = replay_trace(trace, *router, campus());
  EXPECT_DOUBLE_EQ(result.passed_outbound.bucket_value(0), 1000.0 + 54.0);
  EXPECT_DOUBLE_EQ(result.passed_inbound.bucket_value(1), 2000.0 + 54.0);
}

TEST(EdgeRouter, ImpureFilterClockAdvancesWithinInboundRun) {
  // hierarchical's lookup touches its LRU, so the router looks it up
  // inline rather than batched; its clock must still advance packet by
  // packet, or a mark would outlive its k*dt window inside one long
  // inbound run.
  EdgeRouterConfig config;
  config.network = campus();
  EdgeRouter router{config,
                    make_state_filter(FilterRegistry::instance().parse(
                        "hierarchical", MapFilterArgs{})),
                    std::make_unique<ConstantDropPolicy>(1.0)};
  router.process(pkt(out_conn(), 0.0));
  const Trace run{pkt(out_conn().inverse(), 0.5),
                  pkt(out_conn().inverse(), 60.0)};
  std::array<RouterDecision, 2> decisions;
  router.process_batch(run, decisions);
  EXPECT_EQ(decisions[0], RouterDecision::kPassedInbound);
  EXPECT_EQ(decisions[1], RouterDecision::kDroppedByPolicy);
}

TEST(EdgeRouter, DropRateComputation) {
  auto router = make_router(1.0);
  router->process(pkt(out_conn(), 0.0, 10));
  router->process(pkt(out_conn().inverse(), 0.05, 10));  // solicited: pass
  router->process(pkt(in_conn(1), 0.1, 10));             // drop
  router->process(pkt(in_conn(2), 0.2, 10));             // drop
  EXPECT_DOUBLE_EQ(router->stats().inbound_drop_rate(), 2.0 / 3.0);
}

TEST(EdgeRouter, NullFilterRejected) {
  EdgeRouterConfig config;
  config.network = campus();
  EXPECT_THROW(EdgeRouter(config, nullptr,
                          std::make_unique<ConstantDropPolicy>(1.0)),
               std::invalid_argument);
  EXPECT_THROW(EdgeRouter(config,
                          make_state_filter(naive_filter_spec(NaiveFilterConfig{})),
                          nullptr),
               std::invalid_argument);
}

TEST(EdgeRouter, DropDecisionsDeterministicPerSeed) {
  auto run = [&](std::uint64_t seed) {
    EdgeRouterConfig config;
    config.network = campus();
    config.seed = seed;
    BitmapFilterConfig filter_config;
    filter_config.log2_bits = 16;
    EdgeRouter router{config,
                      make_state_filter(bitmap_filter_spec(filter_config)),
                      std::make_unique<ConstantDropPolicy>(0.5)};
    std::string decisions;
    for (int i = 0; i < 64; ++i) {
      decisions += router.process(pkt(in_conn(static_cast<std::uint16_t>(
                                          1000 + i)),
                                      i * 0.01, 10)) ==
                           RouterDecision::kDroppedByPolicy
                       ? 'D'
                       : 'P';
    }
    return decisions;
  };
  EXPECT_EQ(run(5), run(5));
  EXPECT_NE(run(5), run(6));
}

}  // namespace
}  // namespace upbound
