// replay-swarm: multi-tenant offline replay. The swarm-join scenario (one
// subscriber ramps to 24x its 4 999 quiet neighbours) is written to pcap,
// read back and replayed the way
//   upbound filter --tenants 5000 --bits 12 --blocklist --low 1e5
//                  --high 4e5 --threads 2 --network 10.40.0.0/16
// does: a hierarchical filter (shared bitmap-blocked front, per-tenant
// bitmap-blocked fine filters) with per-subscriber Eq. 1 meters, 8 shards
// on 2 workers plus the partitioning thread.
#include <unistd.h>

#include <algorithm>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "cpus.h"
#include "decorators.h"
#include "filter/drop_policy.h"
#include "filter/filter_registry.h"
#include "net/pcap.h"
#include "router_layers.h"
#include "rss.h"
#include "sim/parallel_replay.h"
#include "sim/tenant_scenarios.h"
#include "stats.h"
#include "tenant/hierarchical_filter.h"
#include "tracing.h"
#include "workload.h"

namespace upbound::bench {

namespace {

constexpr std::uint64_t kTenants = 5000;
constexpr double kPolicyLow = 1e5;
constexpr double kPolicyHigh = 4e5;
constexpr std::size_t kWorkers = 2;

struct Input {
  std::unique_ptr<ScratchFile> pcap;
  ClientNetwork network;
  std::map<TenantId, TenantGroundTruth> truth;
  TenantId swarm_tenant = 0;
  std::uint64_t packets = 0;
  EdgeRouterConfig router;
  FilterSpec spec;
};

Input make_input(const RunOptions& options) {
  Input in;
  TenantScenarioConfig config;
  config.tenants = kTenants;
  config.duration = Duration::sec(60.0);
  config.seed = options.seed;
  TenantScenarioTrace scenario =
      generate_tenant_scenario(TenantScenarioKind::kSwarmJoin, config);
  in.pcap = std::make_unique<ScratchFile>(options.work_dir + "/replay-swarm-" +
                                          std::to_string(::getpid()) + ".pcap");
  {
    PcapWriter writer{in.pcap->path()};
    writer.write_all(scenario.packets);
    writer.close();
  }
  in.packets = scenario.packets.size();
  in.network = scenario.network;
  in.truth = std::move(scenario.truth);
  std::uint64_t top = 0;
  for (const auto& [tenant, truth] : in.truth) {
    if (truth.outbound_bytes > top) {
      top = truth.outbound_bytes;
      in.swarm_tenant = tenant;
    }
  }

  in.router.network = in.network;
  in.router.track_blocked_connections = true;
  in.router.seed = 7;
  in.router.tenancy.enabled = true;
  in.router.tenancy.table.mode = TenantMode::kPerSubscriber;
  MapFilterArgs args;
  args.set("fine", "bitmap-blocked")
      .set("bits", "12")
      .set("tenants", std::to_string(kTenants));
  in.spec = FilterRegistry::instance().parse("hierarchical", args);
  return in;
}

struct Rep {
  bool traced = false;
  std::size_t workers = kWorkers;
  double read_s = 0;
  double factory_s = 0;
  double replay_s = 0;  // parallel_replay wall time minus the factory
  double rss_mib = 0;
  std::uint64_t skipped = 0;
  std::uint64_t packets = 0;
  SpanTable spans{};
  ParallelReplayResult result{Duration::sec(1.0)};

  double setup_s() const { return read_s + factory_s; }
  double mpps() const {
    return replay_s > 0 ? static_cast<double>(packets) / replay_s / 1e6 : 0;
  }
};

Rep run_rep(const Input& in, bool traced, std::size_t workers,
            const std::vector<int>& cpus) {
  Rep rep;
  rep.traced = traced;
  rep.workers = workers;
  // The partitioner and the workers it starts inherit this mask.
  pin_current_thread(cpus);
  Tracer::instance().reset();
  PeakRssProbe rss;
  rss.start();

  std::uint64_t t = now_ns();
  Trace trace;
  {
    PcapReader reader{in.pcap->path()};
    if (traced) {
      ScopedSpan span{SpanName::kPcapRead};
      trace = reader.read_all();
      span.set_items(trace.size());
    } else {
      trace = reader.read_all();
    }
    rep.skipped = reader.frames_skipped();
  }
  rep.read_s = static_cast<double>(now_ns() - t) / 1e9;
  rep.packets = trace.size();

  // Traced: the whole hierarchical filter is the filter layer; its front
  // and fine tiers are the tenant layer.
  TracedBackends backends;
  FilterSpec spec = in.spec;
  if (traced) {
    HierarchicalFilterConfig config =
        spec.config_as<HierarchicalFilterConfig>();
    config.front = backends.wrap(
        config.front, {SpanName::kFrontMark, SpanName::kFrontLookup});
    config.fine = backends.wrap(config.fine,
                                {SpanName::kFineMark, SpanName::kFineLookup});
    spec = backends.wrap(hierarchical_filter_spec(config),
                         {SpanName::kFilterMark, SpanName::kFilterLookup});
  }
  const std::size_t shards = kDefaultShardCount;
  std::uint64_t factory_ns = 0;
  const ShardRouterFactory factory = [&](const ClientNetwork& network,
                                         std::size_t shard) {
    const std::uint64_t f0 = now_ns();
    std::unique_ptr<EdgeRouter> router;
    {
      std::optional<ScopedSpan> span;
      if (traced) span.emplace(SpanName::kFactory);
      EdgeRouterConfig config = in.router;
      config.network = network;
      config.seed = shard_seed(in.router.seed, shard);
      // Each shard meters its share of a tenant against its share of L
      // and H, exactly as the CLI's make_policy(spec, shards) does.
      std::unique_ptr<DropPolicy> policy = std::make_unique<RedDropPolicy>(
          kPolicyLow / static_cast<double>(shards),
          kPolicyHigh / static_cast<double>(shards));
      if (traced) policy = std::make_unique<TracedPolicy>(std::move(policy));
      router = std::make_unique<EdgeRouter>(config, make_state_filter(spec),
                                            std::move(policy));
    }
    factory_ns += now_ns() - f0;
    return router;
  };
  ParallelReplayConfig config;
  config.threads = workers;
  t = now_ns();
  rep.result = parallel_replay(trace, in.network, factory, config);
  const std::uint64_t replay_ns = now_ns() - t;
  rep.factory_s = static_cast<double>(factory_ns) / 1e9;
  rep.replay_s = static_cast<double>(replay_ns - factory_ns) / 1e9;
  rep.rss_mib = rss.peak_growth_mib();
  if (traced) rep.spans = Tracer::instance().totals();
  return rep;
}

void check_rep(const Input& in, const Rep& rep, RunReport& report) {
  const std::string tag = std::string{rep.traced ? "traced " : ""} +
                          std::to_string(rep.workers) + "-worker replay: ";
  report.attempted += in.packets;
  const ParallelReplayResult& r = rep.result;
  const std::uint64_t unrouted =
      r.failover_packets + r.unroutable_packets + r.lost_packets;
  report.failed += rep.skipped +
                   (in.packets - std::min(in.packets, rep.packets)) + unrouted;
  report.check(rep.skipped == 0 && rep.packets == in.packets,
               tag + "pcap read " + std::to_string(rep.packets) + " of " +
                   std::to_string(in.packets) + " packets (" +
                   std::to_string(rep.skipped) + " skipped)");
  report.check(unrouted == 0, tag + std::to_string(unrouted) +
                                  " packets failed over, unroutable or lost");
  const EdgeRouterStats& stats = r.merged.stats;
  report.check(stats.tenants.size() == in.truth.size(),
               tag + std::to_string(stats.tenants.size()) + " tenants, " +
                   std::to_string(in.truth.size()) + " in the ground truth");
  std::size_t mismatched = 0;
  for (const auto& [tenant, truth] : in.truth) {
    const auto it = stats.tenants.find(tenant);
    if (it == stats.tenants.end()) {
      ++mismatched;
      continue;
    }
    const TenantStats& s = it->second;
    // Everything a tenant sent reached the router: passed or suppressed.
    if (s.outbound_packets + s.suppressed_outbound_packets !=
            truth.outbound_packets ||
        s.outbound_bytes + s.suppressed_outbound_bytes !=
            truth.outbound_bytes ||
        s.inbound_passed_packets + s.inbound_dropped_packets !=
            truth.inbound_packets) {
      ++mismatched;
    }
  }
  report.check(mismatched == 0,
               tag + std::to_string(mismatched) +
                   " tenants' packet/byte counts differ from ground truth");
  const auto swarm = stats.tenants.find(in.swarm_tenant);
  report.check(swarm != stats.tenants.end() && swarm->second.policy_drops > 0,
               tag + "the swarm tenant took no policy drops");
}

double neighbour_drop_rate(const Input& in, const EdgeRouterStats& stats) {
  std::uint64_t dropped = 0;
  std::uint64_t inbound = 0;
  for (const auto& [tenant, s] : stats.tenants) {
    if (tenant == in.swarm_tenant) continue;
    dropped += s.inbound_dropped_packets;
    inbound += s.inbound_passed_packets + s.inbound_dropped_packets;
  }
  return inbound == 0 ? 0.0
                      : static_cast<double>(dropped) /
                            static_cast<double>(inbound);
}

double span_ns(const SpanTable& spans, SpanName name) {
  return span_at(spans, name).self_ns_per_item();
}

}  // namespace

RunReport run_replay_swarm(const RunOptions& options) {
  RunReport report;
  const Input in = make_input(options);
  report.note("trace", std::to_string(in.packets) + " packets, " +
                           std::to_string(in.truth.size()) + " tenants");

  // Each repetition leaves out one allowed CPU in turn (see cpus.h); the
  // three replay threads share the rest.
  const std::vector<int> all = allowed_cpus();
  const auto placement = [&](std::size_t k) {
    std::vector<int> order = rotated(all, k);
    if (order.size() > kWorkers + 1) order.pop_back();
    return order;
  };
  std::vector<Rep> reps;
  const std::uint64_t begin = now_ns();
  if (!options.trace) {
    while (reps.empty() ||
           static_cast<double>(now_ns() - begin) / 1e9 < options.seconds) {
      reps.push_back(run_rep(in, false, kWorkers, placement(reps.size())));
      check_rep(in, reps.back(), report);
    }
  } else {
    reps.push_back(run_rep(in, false, kWorkers, placement(0)));
    // Same CPUs as the untraced replay: the overhead compares like for like.
    reps.push_back(run_rep(in, true, kWorkers, placement(0)));
    reps.push_back(run_rep(in, true, 1, placement(2)));
    for (const Rep& rep : reps) check_rep(in, rep, report);
    report.check(reps[1].result.merged.stats == reps[0].result.merged.stats,
                 "traced replay stats differ from the untraced replay");
    report.check(
        reps[2].result.merged.stats == reps[1].result.merged.stats &&
            reps[2].result.merged.metrics.deterministic() ==
                reps[1].result.merged.metrics.deterministic(),
        "merged deterministic stats differ between 1 and 2 workers");

    const Rep& base = reps[0];
    const Rep& traced = reps[1];
    const SpanTable& s = traced.spans;
    report.set("net.pcap.ns_per_pkt", span_ns(s, SpanName::kPcapRead));
    report_router_layers(base.result.merged.metrics, base.packets, report);
    std::vector<double> per_shard;
    for (const std::uint64_t p : base.result.shard_packets) {
      per_shard.push_back(static_cast<double>(p));
    }
    const double mean = static_cast<double>(base.packets) /
                        static_cast<double>(per_shard.size());
    report.set("sim.parallel.shard_imbalance",
               *std::max_element(per_shard.begin(), per_shard.end()) / mean);
    const HistogramSample* batch =
        find_histogram(base.result.merged.metrics, "latency.batch_ns");
    report.set("sim.parallel.router_busy_ratio",
               batch == nullptr
                   ? 0.0
                   : static_cast<double>(batch->sum) / 1e9 /
                         (static_cast<double>(kWorkers) * base.replay_s));
    const HistogramSample* backpressure =
        find_histogram(base.result.merged.metrics, "ring.backpressure_ns");
    report.set("sim.parallel.backpressure_ms",
               backpressure == nullptr
                   ? 0.0
                   : static_cast<double>(backpressure->sum) / 1e6);
    report.set("sim.parallel.factory_s", base.factory_s);
    report_filter_spans(s, report);
    report.set("tenant.front.lookup_ns", span_ns(s, SpanName::kFrontLookup));
    report.set("tenant.front.mark_ns", span_ns(s, SpanName::kFrontMark));
    report.set("tenant.fine.lookup_ns", span_ns(s, SpanName::kFineLookup));
    report.set("tenant.fine.mark_ns", span_ns(s, SpanName::kFineMark));
    // The routers publish their hierarchical filters' counters as tenancy.*
    // gauges, which the shard merge sums.
    const MetricsSnapshot& metrics = base.result.merged.metrics;
    const double lookups =
        static_cast<double>(counter_value(metrics, "state.lookups"));
    report.set("tenant.front_absorbed_ratio",
               lookups == 0 ? 0.0
                            : gauge_value(metrics, "tenancy.front_absorbed") /
                                  lookups);
    report.set("tenant.fine_instantiations",
               gauge_value(metrics, "tenancy.fine_instantiations"));
    report.set("tenant.fine_evictions",
               gauge_value(metrics, "tenancy.fine_evictions"));
    const FilterSpec& fine = in.spec.config_as<HierarchicalFilterConfig>().fine;
    report.set("tenant.fine_kib_per_tenant",
               static_cast<double>(make_state_filter(fine)->storage_bytes()) /
                   1024.0);
    report.set("util.trace_overhead_pct",
               traced.mpps() > 0 ? (base.mpps() / traced.mpps() - 1.0) * 100.0
                                 : 0.0);
    report.set("neighbour_drop_rate",
               neighbour_drop_rate(in, base.result.merged.stats));
    report.set("loss_ratio", report.loss_ratio());
    report.note("mpps traced / untraced",
                fmt(traced.mpps()) + " / " + fmt(base.mpps()));
  }
  std::vector<double> mpps, setup, rss, read, factory;
  for (const Rep& rep : reps) {
    setup.push_back(rep.setup_s());
    rss.push_back(rep.rss_mib);
    read.push_back(rep.read_s);
    factory.push_back(rep.factory_s);
    if (!rep.traced) mpps.push_back(rep.mpps());
  }
  report.note("replays", std::to_string(reps.size()));
  report.note("untraced mpps median / best",
              fmt(median(mpps)) + " / " + fmt(best_high(mpps)) + " Mpkt/s");
  report.note("loss_ratio", fmt(report.loss_ratio()) + " fraction");
  report.note("neighbour_drop_rate",
              fmt(neighbour_drop_rate(in, reps[0].result.merged.stats)) +
                  " fraction");
  const auto swarm = reps[0].result.merged.stats.tenants.find(in.swarm_tenant);
  if (swarm != reps[0].result.merged.stats.tenants.end()) {
    report.note("swarm tenant policy drops",
                std::to_string(swarm->second.policy_drops));
  }
  report.note("pcap read s / factory s (median)",
              fmt(median(read)) + " / " + fmt(median(factory)));
  if (!options.trace) {
    report.set("mpps", best_high(mpps));
    report.set("setup_s", median(setup));
    report.set("peak_rss_mb", median(rss));
  }
  return report;
}

}  // namespace upbound::bench
