// Self-tests for the benchmark's own code: percentile arithmetic, verdict
// matching across a dropped datagram, decorator transparency (a decorated
// filter, capture source or policy yields the same verdicts and still
// reaches the batch entry points), and the peak-RSS baseline. Run with
//   python3 benchmark/run.py --selftest
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <memory>
#include <vector>

#include "decorators.h"
#include "filter/filter_registry.h"
#include "net/live/event_loop.h"
#include "net/live/live_datapath.h"
#include "net/live/udp_tap.h"
#include "rss.h"
#include "sim/replay.h"
#include "sim/tenant_scenarios.h"
#include "stats.h"
#include "tenant/hierarchical_filter.h"
#include "trace/campus.h"
#include "tracing.h"
#include "util/clock.h"
#include "verdict_matcher.h"

namespace upbound::bench {
namespace {

int failures = 0;

#define CHECK(cond)                                                  \
  do {                                                               \
    if (!(cond)) {                                                   \
      ++failures;                                                    \
      std::printf("FAIL %s:%d: %s\n", __FILE__, __LINE__, #cond);    \
    }                                                                \
  } while (0)

bool near(double a, double b, double tol = 1e-9) {
  return std::fabs(a - b) <= tol;
}

void test_percentiles() {
  std::vector<double> v{4, 1, 3, 2};
  CHECK(near(percentile(v, 50), 2.5));
  CHECK(near(percentile(v, 0), 1));
  CHECK(near(percentile(v, 100), 4));
  CHECK(near(percentile(v, 25), 1.75));
  std::vector<double> one{7};
  CHECK(near(percentile(one, 90), 7));
  std::vector<double> none;
  CHECK(near(percentile(none, 50), 0));
  CHECK(near(median({5, 1, 9}), 5));
  CHECK(near(best_high({2, 7, 3}), 7));
  CHECK(near(best_high({}), 0));
}

Trace numbered_trace(std::size_t n) {
  Trace trace;
  for (std::size_t i = 0; i < n; ++i) {
    PacketRecord pkt;
    // Pairs share a timestamp so matching must look at the tuple too.
    pkt.timestamp = SimTime::from_usec(static_cast<std::int64_t>(i / 2));
    pkt.tuple = FiveTuple{Protocol::kUdp, Ipv4Addr{10, 0, 0, 1},
                          static_cast<std::uint16_t>(1000 + i),
                          Ipv4Addr{1, 2, 3, 4}, 53};
    trace.push_back(pkt);
  }
  return trace;
}

void test_verdict_matching() {
  const Trace trace = numbered_trace(64);
  VerdictMatcher matcher{trace};
  // Datagram 1 (records 16..31) is dropped; record 40 fails to decode.
  for (std::size_t i = 0; i < 64; ++i) {
    if ((i >= 16 && i < 32) || i == 40) continue;
    CHECK(matcher.match(trace[i]) == i);
  }
  // A packet that is not in the trace leaves the cursor where it was.
  VerdictMatcher fresh{trace};
  PacketRecord stranger = trace[5];
  stranger.tuple.src_port = 9;
  CHECK(fresh.match(stranger) == VerdictMatcher::kNoMatch);
  CHECK(fresh.match(trace[0]) == 0);
}

/// Counts which entry points the router reaches.
class CountingFilter final : public StateFilter {
 public:
  void advance_time(SimTime) override {}
  void record_outbound(const PacketRecord&) override { ++scalar; }
  bool admits_inbound(const PacketRecord&) override {
    ++scalar;
    return true;
  }
  void record_outbound_batch(PacketBatch) override { ++batch; }
  void admits_inbound_batch(PacketBatch b, std::span<bool> admits) override {
    ++batch;
    for (std::size_t i = 0; i < b.size(); ++i) admits[i] = true;
  }
  bool inbound_lookup_is_pure() const override { return true; }
  std::size_t storage_bytes() const override { return 0; }
  std::string name() const override { return "counting-test"; }

  int scalar = 0;
  int batch = 0;
};

const GeneratedTrace& small_campus() {
  static const GeneratedTrace trace = [] {
    CampusTraceConfig config;
    config.duration = Duration::sec(10.0);
    config.connections_per_sec = 60.0;
    config.bandwidth_bps = 8e6;
    config.seed = 5;
    return generate_campus_trace(config);
  }();
  return trace;
}

EdgeRouterConfig campus_router(const ClientNetwork& network) {
  EdgeRouterConfig config;
  config.network = network;
  config.track_blocked_connections = true;
  return config;
}

void test_filter_and_policy_transparency() {
  auto counting = std::make_unique<CountingFilter>();
  CountingFilter* inner = counting.get();
  TracedFilter traced{std::move(counting),
                      {SpanName::kFilterMark, SpanName::kFilterLookup}};
  const Trace trace = numbered_trace(8);
  const PacketBatch batch{trace.data(), trace.size()};
  bool admits[8];
  traced.record_outbound_batch(batch);
  traced.admits_inbound_batch(batch, std::span<bool>{admits, 8});
  CHECK(inner->batch == 2);
  CHECK(inner->scalar == 0);

  const GeneratedTrace& campus = small_campus();
  const FilterSpec spec =
      FilterRegistry::instance().parse("bitmap-blocked", MapFilterArgs{});
  EdgeRouter plain{campus_router(campus.network), make_state_filter(spec),
                   std::make_unique<RedDropPolicy>(1e6, 2e6)};
  const ReplayResult expected =
      replay_trace(campus.packets, plain, campus.network);

  Tracer::instance().reset();
  TracedBackends backends;
  const FilterSpec wrapped =
      backends.wrap(spec, {SpanName::kFilterMark, SpanName::kFilterLookup});
  EdgeRouter decorated{campus_router(campus.network),
                       make_state_filter(wrapped),
                       std::make_unique<TracedPolicy>(
                           std::make_unique<RedDropPolicy>(1e6, 2e6))};
  const ReplayResult got =
      replay_trace(campus.packets, decorated, campus.network);
  CHECK(got == expected);
  CHECK(got.stats.inbound_dropped_packets > 0);
  const SpanTable spans = Tracer::instance().totals();
  const SpanTotals& mark = span_at(spans, SpanName::kFilterMark);
  const SpanTotals& lookup =
      span_at(spans, SpanName::kFilterLookup);
  // Batched calls: several keys per call on average.
  CHECK(mark.items > mark.count);
  CHECK(mark.items == got.stats.outbound_packets);
  CHECK(lookup.count > 0);
  CHECK(span_at(spans, SpanName::kPolicy).count > 0);

  const RedDropPolicy red{1e6, 2e6};
  const TracedPolicy traced_policy{std::make_unique<RedDropPolicy>(1e6, 2e6)};
  for (const double b : {0.0, 1e6, 1.5e6, 2e6, 3e6}) {
    CHECK(traced_policy.drop_probability(b) == red.drop_probability(b));
  }
}

void test_tenant_tier_transparency() {
  TenantScenarioConfig config;
  config.tenants = 24;
  config.duration = Duration::sec(20.0);
  config.seed = 3;
  const TenantScenarioTrace scenario =
      generate_tenant_scenario(TenantScenarioKind::kSwarmJoin, config);
  MapFilterArgs args;
  args.set("fine", "bitmap-blocked").set("bits", "12").set("tenants", "24");
  const FilterSpec spec =
      FilterRegistry::instance().parse("hierarchical", args);
  EdgeRouterConfig router;
  router.network = scenario.network;
  router.tenancy.enabled = true;

  EdgeRouter plain{router, make_state_filter(spec),
                   std::make_unique<RedDropPolicy>(2e4, 8e4)};
  const ReplayResult expected =
      replay_trace(scenario.packets, plain, scenario.network);

  TracedBackends backends;
  HierarchicalFilterConfig hier = spec.config_as<HierarchicalFilterConfig>();
  hier.front =
      backends.wrap(hier.front, {SpanName::kFrontMark, SpanName::kFrontLookup});
  hier.fine =
      backends.wrap(hier.fine, {SpanName::kFineMark, SpanName::kFineLookup});
  const FilterSpec wrapped =
      backends.wrap(hierarchical_filter_spec(hier),
                    {SpanName::kFilterMark, SpanName::kFilterLookup});
  Tracer::instance().reset();
  EdgeRouter decorated{router, make_state_filter(wrapped),
                       std::make_unique<RedDropPolicy>(2e4, 8e4)};
  const ReplayResult got =
      replay_trace(scenario.packets, decorated, scenario.network);
  CHECK(got == expected);
  CHECK(got.stats.tenants == expected.stats.tenants);
  const SpanTable spans = Tracer::instance().totals();
  // Fine filters were instantiated through the wrapped fine spec.
  CHECK(span_at(spans, SpanName::kFineMark).count > 0);
  CHECK(span_at(spans, SpanName::kFrontLookup).count > 0);
  // The tiers run inside the hierarchical filter's spans.
  const SpanTotals& lookup =
      span_at(spans, SpanName::kFilterLookup);
  CHECK(lookup.self_ns < lookup.total_ns);
}

/// Lockstep loopback replay through LiveDatapath (one burst processed
/// before the next is sent, so nothing is dropped), optionally with the
/// capture source decorated.
std::string live_report(const GeneratedTrace& campus, bool traced,
                        std::uint64_t* decode_spans) {
  using namespace live;
  VirtualClock clock;
  EventLoop loop;
  UdpTapSource::Config tap;
  tap.port = 0;
  tap.timestamp_mode = TapTimestampMode::kFromFrames;
  auto udp = std::make_unique<UdpTapSource>(tap);
  const std::uint16_t port = udp->local_port();
  std::unique_ptr<CaptureSource> source = std::move(udp);
  if (traced) source = std::make_unique<TracedCapture>(std::move(source));
  LiveConfig config;
  config.router = campus_router(campus.network);
  config.policy_low = 1e6;
  config.policy_high = 2e6;
  config.clock = &clock;
  const FilterSpec spec =
      FilterRegistry::instance().parse("bitmap-blocked", MapFilterArgs{});
  Tracer::instance().reset();
  LiveDatapath datapath{config, spec, std::move(source), loop};
  UdpTapSender sender{port};
  const Trace& trace = campus.packets;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(20);
  for (std::size_t start = 0; start < trace.size(); start += 32) {
    const std::size_t n = std::min<std::size_t>(32, trace.size() - start);
    for (std::size_t p = 0; p < n; ++p) sender.send_packet(trace[start + p]);
    while (datapath.source().frames_received() < start + n &&
           std::chrono::steady_clock::now() < deadline) {
      loop.poll_once(1);
    }
  }
  datapath.finalize();
  *decode_spans =
      span_at(Tracer::instance().totals(), SpanName::kDecode).count;
  CHECK(datapath.stats().packets == trace.size());
  return conformance_report(datapath.result(), trace.back().timestamp);
}

void test_capture_transparency() {
  const GeneratedTrace& campus = small_campus();
  std::uint64_t plain_spans = 0;
  std::uint64_t traced_spans = 0;
  const std::string plain = live_report(campus, false, &plain_spans);
  const std::string traced = live_report(campus, true, &traced_spans);
  CHECK(plain == traced);
  CHECK(plain_spans == 0);
  CHECK(traced_spans == campus.packets.size());
}

void test_rss_baseline() {
  constexpr std::size_t kMiB = 1024 * 1024;
  std::vector<char> inputs(64 * kMiB);
  std::memset(inputs.data(), 1, inputs.size());  // touched before baseline
  PeakRssProbe probe;
  probe.start();
  CHECK(probe.peak_growth_mib() < 8.0);
  {
    std::vector<char> program(32 * kMiB);
    std::memset(program.data(), 1, program.size());
    CHECK(program[kMiB] == 1);
  }
  // Freed again, but the peak remembers it.
  const double growth = probe.peak_growth_mib();
  CHECK(growth >= 30.0 && growth < 40.0);
  CHECK(inputs[kMiB] == 1);
}

}  // namespace
}  // namespace upbound::bench

int main() {
  using namespace upbound::bench;
  test_percentiles();
  test_verdict_matching();
  test_filter_and_policy_transparency();
  test_tenant_tier_transparency();
  test_capture_transparency();
  test_rss_baseline();
  std::printf("%s: %d failure(s)\n", failures == 0 ? "PASS" : "FAIL",
              failures);
  return failures == 0 ? 0 : 1;
}
