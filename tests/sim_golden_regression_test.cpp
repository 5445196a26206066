// End-to-end golden regression: a FilterBank guarding one campus site,
// driven over a fixed-seed calibrated trace. The metrics below were
// produced by this exact configuration and are locked; a change in any
// layer underneath (trace generator, hashing, filter, meter, policy, RNG,
// batching) that shifts aggregate behaviour shows up here as a diff.
//
// Exact-integer quantities (packet conservation, decision totals) are
// asserted exactly; byte-level quantities get a narrow relative tolerance
// so a deliberate, behaviour-preserving change (e.g. a header-size
// accounting tweak) reads as a small drift, not an avalanche of failures.
#include "sim/filter_bank.h"

#include <gtest/gtest.h>

#include <array>
#include <sstream>
#include <string>

#include "filter/filter_registry.h"
#include "sim/replay.h"
#include "trace/campus.h"
#include "util/hash.h"
#include "util/metrics_export.h"

namespace upbound {
namespace {

constexpr double kRedLow = 3e6;
constexpr double kRedHigh = 6e6;

const GeneratedTrace& golden_trace() {
  static const GeneratedTrace trace = [] {
    CampusTraceConfig config;
    config.duration = Duration::sec(40.0);
    config.connections_per_sec = 60.0;
    config.bandwidth_bps = 12e6;
    config.seed = 11;
    return generate_campus_trace(config);
  }();
  return trace;
}

struct GoldenMetrics {
  std::uint64_t total_packets = 0;
  std::uint64_t passed_outbound = 0;
  std::uint64_t passed_inbound = 0;
  std::uint64_t dropped = 0;  // policy + blocklist drops
  std::uint64_t ignored = 0;  // suppressed at the router or unguarded
  std::uint64_t outbound_bytes = 0;
  std::uint64_t inbound_passed_bytes = 0;
  std::uint64_t inbound_dropped_bytes = 0;
  double drop_rate = 0.0;
};

GoldenMetrics run_bank(bool batched) {
  const GeneratedTrace& trace = golden_trace();
  FilterBank bank;
  bank.add_bitmap_site("campus", trace.network, BitmapFilterConfig{}, kRedLow,
                       kRedHigh);

  GoldenMetrics m;
  m.total_packets = trace.packets.size();
  std::array<std::uint64_t, 5> decisions{};
  if (batched) {
    constexpr std::size_t kBatch = 256;
    std::array<RouterDecision, kBatch> buf;
    for (std::size_t start = 0; start < trace.packets.size();
         start += kBatch) {
      const std::size_t n = std::min(kBatch, trace.packets.size() - start);
      bank.process_batch(PacketBatch{trace.packets.data() + start, n},
                         std::span<RouterDecision>{buf.data(), n});
      for (std::size_t i = 0; i < n; ++i) {
        ++decisions[static_cast<std::size_t>(buf[i])];
      }
    }
  } else {
    for (const PacketRecord& pkt : trace.packets) {
      ++decisions[static_cast<std::size_t>(bank.process(pkt))];
    }
  }
  m.passed_outbound =
      decisions[static_cast<std::size_t>(RouterDecision::kPassedOutbound)];
  m.passed_inbound =
      decisions[static_cast<std::size_t>(RouterDecision::kPassedInbound)];
  m.dropped =
      decisions[static_cast<std::size_t>(RouterDecision::kDroppedByPolicy)] +
      decisions[static_cast<std::size_t>(RouterDecision::kDroppedBlocked)];
  m.ignored = decisions[static_cast<std::size_t>(RouterDecision::kIgnored)];

  const EdgeRouterStats stats = bank.site_router(0).stats();
  m.outbound_bytes = stats.outbound_bytes;
  m.inbound_passed_bytes = stats.inbound_passed_bytes;
  m.inbound_dropped_bytes = stats.inbound_dropped_bytes;
  m.drop_rate = stats.inbound_drop_rate();
  return m;
}

// --- The golden values (locked from a reference run of this test) ---
constexpr std::uint64_t kGoldenTotalPackets = 84'155;
constexpr std::uint64_t kGoldenPassedOutbound = 34'928;
constexpr std::uint64_t kGoldenPassedInbound = 25'812;
constexpr std::uint64_t kGoldenDropped = 23'415;
constexpr std::uint64_t kGoldenOutboundBytes = 33'090'216;
constexpr std::uint64_t kGoldenInboundPassedBytes = 6'548'099;
constexpr double kGoldenDropRate = 0.261818;

TEST(SimGoldenRegression, BatchedBankMatchesLockedMetrics) {
  const GoldenMetrics m = run_bank(/*batched=*/true);
  std::printf("golden actuals: total=%llu out=%llu in=%llu drop=%llu "
              "ignored=%llu outB=%llu inB=%llu dropB=%llu rate=%.6f\n",
              (unsigned long long)m.total_packets,
              (unsigned long long)m.passed_outbound,
              (unsigned long long)m.passed_inbound,
              (unsigned long long)m.dropped, (unsigned long long)m.ignored,
              (unsigned long long)m.outbound_bytes,
              (unsigned long long)m.inbound_passed_bytes,
              (unsigned long long)m.inbound_dropped_bytes, m.drop_rate);

  // Conservation is exact by construction.
  EXPECT_EQ(m.passed_outbound + m.passed_inbound + m.dropped + m.ignored,
            m.total_packets);

  // Locked counts: the trace and every decision above it are fixed-seed
  // deterministic, so these are exact on a healthy build.
  EXPECT_EQ(m.total_packets, kGoldenTotalPackets);
  EXPECT_EQ(m.passed_outbound, kGoldenPassedOutbound);
  EXPECT_EQ(m.passed_inbound, kGoldenPassedInbound);
  EXPECT_EQ(m.dropped, kGoldenDropped);

  // Byte totals with a 0.5% relative band, drop rate within one point.
  EXPECT_NEAR(static_cast<double>(m.outbound_bytes),
              static_cast<double>(kGoldenOutboundBytes),
              0.005 * static_cast<double>(kGoldenOutboundBytes));
  EXPECT_NEAR(static_cast<double>(m.inbound_passed_bytes),
              static_cast<double>(kGoldenInboundPassedBytes),
              0.005 * static_cast<double>(kGoldenInboundPassedBytes));
  EXPECT_NEAR(m.drop_rate, kGoldenDropRate, 0.01);

  // The RED limiter must be visibly active on this overloaded site but far
  // from starving it.
  EXPECT_GT(m.drop_rate, 0.0);
  EXPECT_LT(m.drop_rate, 0.9);
}

// --- Locked per-stage counters (same reference run; exact) ---
// These pin the datapath's internal event accounting, not just its
// outcomes: a refactor that preserves decisions but changes how often a
// stage fires (e.g. counting speculative filter lookups for packets the
// blocklist drops) shows up here. state.lookups counts only packets that
// survive the blocklist, so lookups == hits + misses by construction.
constexpr std::uint64_t kGoldenStateLookups = 26'227;
constexpr std::uint64_t kGoldenStateHits = 25'050;
constexpr std::uint64_t kGoldenStateMisses = 1'177;
constexpr std::uint64_t kGoldenStateMarks = 34'928;
constexpr std::uint64_t kGoldenBlocklistHits = 23'000;
constexpr std::uint64_t kGoldenPolicyDrops = 415;

TEST(SimGoldenRegression, StageCountersMatchLockedSnapshot) {
  const GeneratedTrace& trace = golden_trace();
  FilterBank bank;
  bank.add_bitmap_site("campus", trace.network, BitmapFilterConfig{},
                       kRedLow, kRedHigh);
  constexpr std::size_t kBatch = 256;
  std::array<RouterDecision, kBatch> buf;
  for (std::size_t start = 0; start < trace.packets.size(); start += kBatch) {
    const std::size_t n = std::min(kBatch, trace.packets.size() - start);
    bank.process_batch(PacketBatch{trace.packets.data() + start, n},
                       std::span<RouterDecision>{buf.data(), n});
  }

  const CounterSnapshot counters =
      bank.site_router(0).stats().stage_counters;
  const auto value = [&counters](std::string_view name) -> std::uint64_t {
    for (const CounterSample& sample : counters) {
      if (sample.name == name) return sample.value;
    }
    ADD_FAILURE() << "missing counter " << name;
    return 0;
  };
  std::printf("golden stage counters:\n");
  for (const CounterSample& sample : counters) {
    std::printf("  %-28s %llu\n", sample.name.c_str(),
                (unsigned long long)sample.value);
  }

  EXPECT_EQ(value("state.lookups"), kGoldenStateLookups);
  EXPECT_EQ(value("state.hits"), kGoldenStateHits);
  EXPECT_EQ(value("state.misses"), kGoldenStateMisses);
  EXPECT_EQ(value("state.marks"), kGoldenStateMarks);
  EXPECT_EQ(value("blocklist.hits"), kGoldenBlocklistHits);
  EXPECT_EQ(value("policy.drops"), kGoldenPolicyDrops);

  // Structural invariants, independent of the locked values.
  EXPECT_EQ(value("state.lookups"),
            value("state.hits") + value("state.misses"));
  EXPECT_EQ(value("policy.evaluations"),
            value("policy.drops") + value("policy.passes"));
  EXPECT_LE(value("blocklist.hits"), value("blocklist.lookups"));
}

// --- Locked router paths (exact) ---
// One row per way a packet can travel through EdgeRouter besides the
// blocklisted pure-filter run above: filters whose inbound lookup has
// side effects (spi, hierarchical), a pure filter with the blocklist off,
// traces with timestamps stepped backwards (clamped packets), a
// hierarchical filter whose tenant cap (16) sits below the trace's 200
// client hosts, so fine filters are evicted and re-instantiated, and a
// blocklist TTL (2 s) short enough for entries to expire and be blocked
// again inside the 40 s trace (the default 120 s never expires one). Each
// row locks the whole EdgeRouterStats -- fields, stage counters, tenant
// slices -- and the deterministic metrics as digests of their canonical
// text, plus the replay series totals.
struct PathRow {
  const char* filter;
  bool blocklist;
  bool reorder;
  std::uint64_t stats_digest;
  std::uint64_t metrics_digest;
  std::array<std::uint64_t, 4> series_totals;  // offered out/in, passed out/in
  std::size_t tenant_cap = 0;  // hierarchical --tenant-cap; 0 = default
  Duration blocklist_ttl{};    // 0 = the router default (120 s)
  const char* fine = nullptr;  // hierarchical --fine; nullptr = default
  unsigned fine_bits = 0;      // --bits of the fine tier; 0 = default (20)
};

std::string stats_text(const EdgeRouterStats& s) {
  std::ostringstream out;
  out << s.outbound_packets << ' ' << s.outbound_bytes << ' '
      << s.inbound_passed_packets << ' ' << s.inbound_passed_bytes << ' '
      << s.inbound_dropped_packets << ' ' << s.inbound_dropped_bytes << ' '
      << s.blocked_drops << ' ' << s.suppressed_outbound_packets << ' '
      << s.suppressed_outbound_bytes << ' ' << s.ignored_packets << ' '
      << s.out_of_order_packets << '\n';
  for (const CounterSample& c : s.stage_counters) {
    out << c.name << ' ' << c.value << '\n';
  }
  for (const auto& [id, t] : s.tenants) {
    out << id << ": " << t.outbound_packets << ' ' << t.outbound_bytes << ' '
        << t.inbound_passed_packets << ' ' << t.inbound_passed_bytes << ' '
        << t.inbound_dropped_packets << ' ' << t.inbound_dropped_bytes << ' '
        << t.blocked_drops << ' ' << t.policy_drops << ' '
        << t.suppressed_outbound_packets << ' '
        << t.suppressed_outbound_bytes << '\n';
  }
  return out.str();
}

std::uint64_t digest(const std::string& text) {
  return fnv1a64({reinterpret_cast<const std::uint8_t*>(text.data()),
                  text.size()});
}

class SimGoldenPaths : public ::testing::TestWithParam<PathRow> {};

TEST_P(SimGoldenPaths, RouterPathMatchesLockedStats) {
  const PathRow& row = GetParam();
  Trace trace = golden_trace().packets;
  if (row.reorder) {
    // Every 97th packet steps 1.5 s back, as a rewritten capture would;
    // every 89th is sent to its own source, so the router ignores it
    // (some of those are clamped too).
    for (std::size_t i = 40; i < trace.size(); i += 97) {
      trace[i].timestamp = trace[i].timestamp - Duration::sec(1.5);
    }
    for (std::size_t i = 3; i < trace.size(); i += 89) {
      trace[i].tuple.dst_addr = trace[i].tuple.src_addr;
    }
  }
  EdgeRouterConfig config;
  config.network = golden_trace().network;
  config.track_blocked_connections = row.blocklist;
  config.tenancy.enabled = true;
  if (row.blocklist_ttl > Duration{}) {
    config.blocklist_ttl = row.blocklist_ttl;
  }
  MapFilterArgs args;
  if (row.tenant_cap > 0) {
    args.set("tenant-cap", std::to_string(row.tenant_cap));
  }
  if (row.fine != nullptr) args.set("fine", row.fine);
  if (row.fine_bits > 0) args.set("bits", std::to_string(row.fine_bits));
  EdgeRouter router{config,
                    make_state_filter(
                        FilterRegistry::instance().parse(row.filter, args)),
                    std::make_unique<RedDropPolicy>(2e5, 8e5)};
  const ReplayResult result = replay_trace(trace, router, config.network);

  const std::string text = stats_text(result.stats);
  const std::string metrics = metrics_to_json(
      result.metrics.deterministic(), "final", SimTime::origin());
  std::printf("%s: stats %#llx metrics %#llx\n", row.filter,
              (unsigned long long)digest(text),
              (unsigned long long)digest(metrics));
  EXPECT_EQ(digest(text), row.stats_digest) << text;
  EXPECT_EQ(digest(metrics), row.metrics_digest) << metrics;
  const std::array<std::uint64_t, 4> totals{
      static_cast<std::uint64_t>(result.offered_outbound.total()),
      static_cast<std::uint64_t>(result.offered_inbound.total()),
      static_cast<std::uint64_t>(result.passed_outbound.total()),
      static_cast<std::uint64_t>(result.passed_inbound.total())};
  EXPECT_EQ(totals, row.series_totals);

  // Each row exercises what it is there for.
  EXPECT_GT(result.stats.inbound_dropped_packets, 0u);
  EXPECT_GT(result.stats.tenants.size(), 1u);
  EXPECT_EQ(result.stats.out_of_order_packets > 0, row.reorder);
  EXPECT_EQ(result.stats.ignored_packets > 0, row.reorder);
  EXPECT_EQ(result.stats.blocked_drops > 0, row.blocklist);
  if (row.tenant_cap > 0) {
    double evictions = 0;
    for (const GaugeSample& g : result.metrics.gauges) {
      if (g.name == "tenancy.fine_evictions") evictions = g.value;
    }
    EXPECT_GT(evictions, 0.0);
  }
  if (row.blocklist_ttl > Duration{}) {
    // Some entry expired: without expiry every insertion stays live.
    EXPECT_LT(router.blocklist().size(), router.blocklist().total_blocked());
  }
}

INSTANTIATE_TEST_SUITE_P(
    Locked, SimGoldenPaths,
    ::testing::Values(
        PathRow{"spi", true, false, 0x829fb26af78dccc1, 0x77ce318afcf9d817,
                {49'864'846, 7'259'228, 46'545'205, 7'125'058}},
        PathRow{"hierarchical", true, false, 0x686e6d9cc3e25be3,
                0x61e3ca1609f375a2,
                {49'864'846, 7'259'228, 46'102'777, 7'119'783}},
        PathRow{"bitmap-blocked", false, false, 0xc39ae661c6bd2e4e,
                0x53d685979c536799,
                {49'864'846, 7'259'228, 49'864'846, 7'253'481}},
        PathRow{"bitmap-blocked", true, true, 0xf853ae00b9b54c98,
                0xfbec60ec12e7dc5b,
                {49'329'739, 7'166'131, 46'039'095, 7'042'793}},
        PathRow{"spi", true, true, 0xa8fce5691739b02b, 0xde7a157f8abbc1aa,
                {49'329'739, 7'166'131, 45'681'100, 7'023'506}},
        PathRow{"hierarchical", false, true, 0xa2406f612a11c0dd,
                0xeecda9f755331733,
                {49'329'739, 7'166'131, 49'329'739, 7'160'438}},
        // At most 32 live fine filters: the metrics carry per-tenant
        // tenancy.occupancy.* gauges, read after advancing each filter to
        // the filter clock.
        PathRow{"hierarchical", true, false, 0x90ad497db7ffb942,
                0xdf0faf89e5828043,
                {49'864'846, 7'259'228, 34'768'432, 6'113'119}, 16},
        // Blocklist TTL 2 s: entries expire and are blocked again.
        PathRow{"bitmap-blocked", true, false, 0xc073712017085d31,
                0x11528237f943a78f,
                {49'864'846, 7'259'228, 47'240'101, 7'146'674}, 0,
                Duration::sec(2.0)},
        // The production fine tier and geometry (the benchmark's
        // --tenants run: bitmap-blocked at 2^12 bits, 64 tenants to a
        // pool chunk): sorted with the blocklist, reordered without it,
        // and under a tenant cap of 16 so pool slots are released and
        // reused. Verdicts match the default-tier rows above; the
        // metrics differ in storage.
        PathRow{"hierarchical", true, false, 0x686e6d9cc3e25be3,
                0xf80beb09f70b5969,
                {49'864'846, 7'259'228, 46'102'777, 7'119'783}, 0,
                Duration{}, "bitmap-blocked", 12},
        PathRow{"hierarchical", false, true, 0xa2406f612a11c0dd,
                0x19cccc23a6f9e4e2,
                {49'329'739, 7'166'131, 49'329'739, 7'160'438}, 0,
                Duration{}, "bitmap-blocked", 12},
        PathRow{"hierarchical", true, false, 0x90ad497db7ffb942,
                0xd7efbdf65d6a16e3,
                {49'864'846, 7'259'228, 34'768'432, 6'113'119}, 16,
                Duration{}, "bitmap-blocked", 12}));

TEST(SimGoldenRegression, ScalarAndBatchedBankAgreeExactly) {
  const GoldenMetrics batched = run_bank(/*batched=*/true);
  const GoldenMetrics scalar = run_bank(/*batched=*/false);
  EXPECT_EQ(batched.passed_outbound, scalar.passed_outbound);
  EXPECT_EQ(batched.passed_inbound, scalar.passed_inbound);
  EXPECT_EQ(batched.dropped, scalar.dropped);
  EXPECT_EQ(batched.ignored, scalar.ignored);
  EXPECT_EQ(batched.outbound_bytes, scalar.outbound_bytes);
  EXPECT_EQ(batched.inbound_passed_bytes, scalar.inbound_passed_bytes);
  EXPECT_EQ(batched.inbound_dropped_bytes, scalar.inbound_dropped_bytes);
}

}  // namespace
}  // namespace upbound
