#include "cli/commands.h"

#include <algorithm>
#include <array>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <memory>
#include <thread>
#include <utility>

#include "analyzer/analyzer.h"
#include "analyzer/host_stats.h"
#include "analyzer/netflow.h"
#include "attack/evaluator.h"
#include "attack/scenario.h"
#include "fault/fault_injector.h"
#include "fault/fault_spec.h"
#include "filter/filter_registry.h"
#include "filter/params.h"
#include "filter/snapshot.h"
#include "net/live/af_packet.h"
#include "net/live/event_loop.h"
#include "net/live/live_datapath.h"
#include "net/live/udp_tap.h"
#include "net/pcap.h"
#include "net/pcapng.h"
#include "sim/parallel_replay.h"
#include "sim/replay.h"
#include "sim/report.h"
#include "sim/tenant_scenarios.h"
#include "tenant/hierarchical_filter.h"
#include "tenant/tenant_table.h"
#include "trace/campus.h"
#include "util/clock.h"
#include "util/metrics_export.h"

namespace upbound::cli {

namespace {

/// The one replay seed knob shared by filter/compare/attack: every
/// command reads --seed with the same default, so a seed that reproduces
/// one command's run reproduces the whole pipeline.
std::uint64_t seed_from(const Args& args) { return args.get_u64("seed", 7); }

/// --threads (>= 1) for the replay engine, which clamps it to the shards.
std::size_t threads_from(const Args& args) {
  const std::int64_t threads = args.get_int("threads", 1);
  if (threads < 1) throw ArgError("--threads must be >= 1");
  return static_cast<std::size_t>(threads);
}

/// --shards for the replay engine: 0 (the default count) to kMaxShardCount.
std::size_t shards_from(const Args& args) {
  const std::int64_t shards = args.get_int("shards", 0);
  if (shards < 0 || shards > std::int64_t{kMaxShardCount}) {
    throw ArgError("--shards must be in [0, " +
                   std::to_string(kMaxShardCount) + "]");
  }
  return static_cast<std::size_t>(shards);
}

ClientNetwork network_from(const Args& args) {
  const std::string spec =
      args.get_string("network", "140.112.30.0/24");
  ClientNetwork network;
  std::size_t start = 0;
  while (start < spec.size()) {
    const std::size_t comma = spec.find(',', start);
    const std::string one = spec.substr(
        start, comma == std::string::npos ? std::string::npos
                                          : comma - start);
    const auto cidr = Cidr::parse(one);
    if (!cidr) throw ArgError("bad CIDR '" + one + "' in --network");
    network.add_prefix(*cidr);
    start = comma == std::string::npos ? spec.size() : comma + 1;
  }
  return network;
}

BitmapFilterConfig bitmap_from(const Args& args) {
  BitmapFilterConfig config;
  config.log2_bits = static_cast<unsigned>(args.get_int("bits", 20));
  config.vector_count = static_cast<unsigned>(args.get_int("k", 4));
  config.hash_count = static_cast<unsigned>(args.get_int("m", 3));
  config.rotate_interval = Duration::sec(args.get_double("dt", 5.0));
  if (args.get_flag("hole-punching")) {
    config.key_mode = KeyMode::kHolePunching;
  }
  config.validate();
  return config;
}

// Hands each packet of a capture of either format to `visit` as it is
// read, sniffing the magic number; returns the skipped frames (pcap) or
// blocks (pcapng).
template <typename Visit>
std::uint64_t for_each_captured_packet(const std::string& path,
                                       Visit&& visit) {
  std::uint8_t magic[4] = {0, 0, 0, 0};
  {
    std::FILE* f = std::fopen(path.c_str(), "rb");
    if (f == nullptr) throw PcapError("cannot open for reading: " + path);
    const std::size_t got = std::fread(magic, 1, sizeof(magic), f);
    std::fclose(f);
    if (got != sizeof(magic)) throw PcapError("capture too short: " + path);
  }
  const std::uint32_t value = static_cast<std::uint32_t>(magic[0]) |
                              (static_cast<std::uint32_t>(magic[1]) << 8) |
                              (static_cast<std::uint32_t>(magic[2]) << 16) |
                              (static_cast<std::uint32_t>(magic[3]) << 24);
  if (value == kPcapngShb) {
    PcapngReader reader{path};
    while (auto pkt = reader.next()) visit(*pkt);
    return reader.blocks_skipped();
  }
  PcapReader reader{path};
  while (auto pkt = reader.next()) visit(*pkt);
  return reader.frames_skipped();
}

// Reads a whole capture of either format.
Trace read_capture(const std::string& path, std::uint64_t* skipped) {
  Trace trace;
  const std::uint64_t skips = for_each_captured_packet(
      path, [&trace](PacketRecord& pkt) { trace.push_back(std::move(pkt)); });
  if (skipped != nullptr) *skipped = skips;
  return trace;
}

/// Telemetry export options of the filter command (--metrics-*).
struct MetricsOptions {
  std::string out;
  Duration interval{};  // zero = only the final snapshot
  bool prometheus = false;
  bool deterministic = false;

  bool enabled() const { return !out.empty(); }
};

MetricsOptions metrics_options_from(const Args& args, bool parallel_engine) {
  MetricsOptions opts;
  opts.out = args.get_string("metrics-out", "");
  const double interval_sec = args.get_double("metrics-interval", 0.0);
  const std::string format = args.get_string("metrics-format", "jsonl");
  opts.deterministic = args.get_flag("metrics-deterministic");
  if (format == "prom") {
    opts.prometheus = true;
  } else if (format != "jsonl") {
    throw ArgError("--metrics-format must be jsonl or prom");
  }
  if (opts.out.empty()) {
    if (interval_sec != 0.0 || opts.deterministic) {
      throw ArgError("--metrics-interval/--metrics-deterministic require "
                     "--metrics-out");
    }
    return opts;
  }
  if (interval_sec < 0.0) throw ArgError("--metrics-interval must be >= 0");
  if (interval_sec > 0.0) {
    // Interval snapshots walk sim time inside the single-thread replay
    // loop; the parallel engine only yields one merged final snapshot.
    if (parallel_engine) {
      throw ArgError("--metrics-interval requires the single-thread engine "
                     "(--threads 1, no --fault-spec)");
    }
    if (opts.prometheus) {
      throw ArgError("--metrics-interval requires --metrics-format jsonl");
    }
    opts.interval = Duration::sec(interval_sec);
  }
  return opts;
}

/// Writes the final (possibly deterministic-only) snapshot in the chosen
/// format. Interval snapshots are handled inline by the replay loop.
void write_final_metrics(const MetricsOptions& opts,
                         MetricsJsonlWriter* jsonl_writer,
                         const MetricsSnapshot& snapshot, SimTime end_time) {
  const MetricsSnapshot exported =
      opts.deterministic ? snapshot.deterministic() : snapshot;
  if (opts.prometheus) {
    std::FILE* f = std::fopen(opts.out.c_str(), "wb");
    if (f == nullptr) {
      throw std::runtime_error("cannot open metrics output: " + opts.out);
    }
    const std::string text = metrics_to_prometheus(exported);
    std::fwrite(text.data(), 1, text.size(), f);
    std::fclose(f);
    return;
  }
  jsonl_writer->write(exported, "final", end_time);
}

int reject_unconsumed(const Args& args) {
  const auto leftovers = args.unconsumed();
  if (leftovers.empty()) return 0;
  for (const auto& key : leftovers) {
    std::fprintf(stderr, "error: unknown option --%s\n", key.c_str());
  }
  return 2;
}

/// FilterArgs view over cli::Args. The registry's backend parsers consume
/// exactly the keys they understand through this adapter, so
/// reject_unconsumed() still catches typos and keys the selected backend
/// does not take.
class CliFilterArgs final : public FilterArgs {
 public:
  explicit CliFilterArgs(const Args& args) : args_(args) {}

  std::optional<std::string> value(const std::string& key) const override {
    if (!args_.has(key)) return std::nullopt;
    return args_.get_string(key, "");
  }
  bool flag(const std::string& key) const override {
    return args_.get_flag(key);
  }

 private:
  const Args& args_;
};

/// Resolves --filter through the registry and parses the backend's
/// arguments, mapping registry errors onto ArgError (exit code 2).
FilterSpec parse_filter_spec(const Args& args, const std::string& kind) {
  const FilterRegistry& registry = FilterRegistry::instance();
  const BackendDescriptor* backend = registry.find(kind);
  if (backend == nullptr) {
    throw ArgError("unknown --filter '" + kind + "' (" +
                   registry.names_joined("|") + ")");
  }
  try {
    return backend->parse(CliFilterArgs{args});
  } catch (const std::invalid_argument& e) {
    throw ArgError(e.what());
  }
}

/// Parsed --tenants/--tenant-mode/--tenant-cap, shared by filter, compare,
/// attack, and live. --tenants switches per-subscriber enforcement on and
/// doubles as the hierarchical filter's sizing hint.
struct TenancySpec {
  TenancyConfig router;       // goes into EdgeRouterConfig::tenancy
  std::uint64_t tenants = 0;  // sizing hint (0 = not given)
  std::uint64_t cap = 0;      // live fine-filter cap (0 = backend default)

  bool enabled() const { return router.enabled; }
};

TenancySpec tenancy_from(const Args& args) {
  TenancySpec spec;
  if (!args.has("tenants")) {
    if (args.has("tenant-mode") || args.has("tenant-cap")) {
      throw ArgError("--tenant-mode/--tenant-cap require --tenants");
    }
    return spec;
  }
  spec.router.enabled = true;
  spec.tenants = args.get_u64("tenants", 0);
  const std::string mode = args.get_string("tenant-mode", "subscriber");
  const std::optional<TenantMode> parsed = parse_tenant_mode(mode);
  if (!parsed.has_value()) {
    throw ArgError("--tenant-mode must be subscriber or prefix24");
  }
  spec.router.table.mode = *parsed;
  spec.cap = args.get_u64("tenant-cap", 0);
  return spec;
}

/// The CLI args with the hierarchical wrap's "fine" key layered on top:
/// --tenants turns "--filter X" into "--filter hierarchical --fine X"
/// without the user spelling the wrap, while every other key (including
/// --tenant-mode/--tenant-cap/--tenants themselves) still reads through
/// to the command line, so reject_unconsumed keeps catching typos.
class TenantOverlayArgs final : public FilterArgs {
 public:
  TenantOverlayArgs(const Args& args, std::string fine)
      : cli_(args), fine_(std::move(fine)) {}

  std::optional<std::string> value(const std::string& key) const override {
    if (key == "fine") return fine_;
    return cli_.value(key);
  }
  bool flag(const std::string& key) const override { return cli_.flag(key); }

 private:
  CliFilterArgs cli_;
  std::string fine_;
};

/// Parses the backend named by --filter; with --tenants, the named
/// backend becomes the fine tier of the hierarchical tenant filter.
FilterSpec parse_effective_filter_spec(const Args& args,
                                       const std::string& kind,
                                       const TenancySpec& tenancy) {
  if (!tenancy.enabled() || kind == "hierarchical") {
    return parse_filter_spec(args, kind);
  }
  if (FilterRegistry::instance().find(kind) == nullptr) {
    throw ArgError("unknown --filter '" + kind + "' (" +
                   FilterRegistry::instance().names_joined("|") + ")");
  }
  try {
    return FilterRegistry::instance().at("hierarchical").parse(
        TenantOverlayArgs{args, kind});
  } catch (const std::invalid_argument& e) {
    throw ArgError(e.what());
  }
}

/// Per-tenant attribution of a finished run, heaviest uploaders first.
/// Truncation is announced in the heading, never silent.
void print_tenant_stats(const EdgeRouterStats& stats,
                        const TenantTable& table) {
  if (stats.tenants.empty()) return;
  std::vector<std::pair<TenantId, const TenantStats*>> order;
  order.reserve(stats.tenants.size());
  for (const auto& [tenant, slice] : stats.tenants) {
    order.emplace_back(tenant, &slice);
  }
  std::sort(order.begin(), order.end(), [](const auto& a, const auto& b) {
    if (a.second->outbound_bytes != b.second->outbound_bytes) {
      return a.second->outbound_bytes > b.second->outbound_bytes;
    }
    return a.first < b.first;
  });
  constexpr std::size_t kMaxTenantRows = 16;
  const std::size_t shown = std::min(order.size(), kMaxTenantRows);
  std::vector<std::vector<std::string>> rows{
      {"tenant", "out pkts", "out bytes", "in passed", "in dropped",
       "drop rate", "suppressed"}};
  for (std::size_t i = 0; i < shown; ++i) {
    const TenantStats& t = *order[i].second;
    rows.push_back({table.label(order[i].first),
                    std::to_string(t.outbound_packets),
                    std::to_string(t.outbound_bytes),
                    std::to_string(t.inbound_passed_packets),
                    std::to_string(t.inbound_dropped_packets),
                    report::percent(t.inbound_drop_rate()),
                    std::to_string(t.suppressed_outbound_packets)});
  }
  std::printf("\nper-tenant breakdown (%zu tenants, top %zu by upload):\n%s",
              stats.tenants.size(), shown, report::table(rows).c_str());
}

/// One-line hierarchical-filter health summary (instantiation/LRU churn
/// plus how much traffic the shared front tier absorbed).
void print_hierarchical_summary(const HierarchicalFilter& hier) {
  std::printf("tenancy: %zu tenants, %zu live fine filters "
              "(%llu instantiated, %llu evicted), front absorbed %llu, "
              "digest admits %llu\n",
              hier.tenant_count(), hier.live_fine_filters(),
              static_cast<unsigned long long>(hier.fine_instantiations()),
              static_cast<unsigned long long>(hier.fine_evictions()),
              static_cast<unsigned long long>(hier.front_absorbed()),
              static_cast<unsigned long long>(hier.digest_admits()));
}

/// Parsed drop-policy parameters; RED thresholds are divided by the shard
/// count in parallel mode, since each shard meters only its own slice of
/// the uplink.
struct PolicySpec {
  bool red = false;
  double low = 50e6;
  double high = 100e6;
  double pd = 1.0;
};

PolicySpec policy_spec_from(const Args& args) {
  PolicySpec spec;
  if (args.has("low") || args.has("high")) {
    spec.red = true;
    spec.low = args.get_double("low", 50e6);
    spec.high = args.get_double("high", 100e6);
  } else {
    spec.pd = args.get_double("pd", 1.0);
  }
  return spec;
}

std::unique_ptr<DropPolicy> make_policy(const PolicySpec& spec,
                                        std::size_t shards) {
  if (spec.red) {
    const double scale = static_cast<double>(shards == 0 ? 1 : shards);
    return std::make_unique<RedDropPolicy>(spec.low / scale,
                                           spec.high / scale);
  }
  return std::make_unique<ConstantDropPolicy>(spec.pd);
}

/// --on-unhealthy/--health-occupancy, shared by the replay and live
/// datapaths: arms the router's health monitor (degraded stance).
void apply_health_args(const Args& args, EdgeRouterConfig& config) {
  const std::string on_unhealthy = args.get_string("on-unhealthy", "");
  if (on_unhealthy.empty()) {
    if (args.has("health-occupancy")) {
      throw ArgError("--health-occupancy requires --on-unhealthy");
    }
    return;
  }
  if (on_unhealthy == "fail-open") {
    config.health.stance = UnhealthyStance::kFailOpen;
  } else if (on_unhealthy == "fail-closed") {
    config.health.stance = UnhealthyStance::kFailClosed;
  } else {
    throw ArgError("--on-unhealthy must be fail-open or fail-closed");
  }
  const double occ =
      args.get_double("health-occupancy", config.health.occupancy_enter);
  if (!(occ > 0.0) || occ > 1.0) {
    throw ArgError("--health-occupancy must be in (0, 1]");
  }
  config.health.occupancy_enter = occ;
  config.health.occupancy_exit = occ * 0.7;
}

std::string shard_mode_from(const Args& args) {
  const std::string mode = args.get_string("shard-mode", "sharded");
  if (mode != "sharded" && mode != "shared") {
    throw ArgError("unknown --shard-mode '" + mode + "' (sharded|shared)");
  }
  return mode;
}

void print_shard_table(const ParallelReplayResult& result) {
  std::vector<std::vector<std::string>> rows{
      {"shard", "packets", "out bytes", "in passed", "in dropped",
       "drop rate"}};
  for (std::size_t s = 0; s < result.shards; ++s) {
    const EdgeRouterStats& stats = result.shard_stats[s];
    rows.push_back({std::to_string(s),
                    std::to_string(result.shard_packets[s]),
                    std::to_string(stats.outbound_bytes),
                    std::to_string(stats.inbound_passed_bytes),
                    std::to_string(stats.inbound_dropped_packets),
                    report::percent(stats.inbound_drop_rate())});
  }
  std::printf("\nper-shard breakdown (%zu shards, %zu threads):\n%s",
              result.shards, result.threads, report::table(rows).c_str());
}

}  // namespace

std::string resolve_default_filter(bool wants_snapshot,
                                   bool wants_shared_view) {
  // bitmap-blocked is the default datapath backend: one 512-bit block per
  // lookup, same verdict guarantees as the classic bitmap. Snapshots and
  // the shared concurrent view are bitmap-only capabilities, so runs that
  // asked for either fall back to the classic layout.
  if (wants_snapshot || wants_shared_view) return "bitmap";
  return "bitmap-blocked";
}

namespace {

/// Writes a packet stream in the requested capture format; shared by the
/// campus and multi-tenant branches of `generate`.
std::uint64_t write_generated(const std::string& out,
                              const std::string& format,
                              const Trace& packets) {
  if (format == "pcapng") {
    PcapngWriter writer{out};
    writer.write_all(packets);
    return writer.packets_written();
  }
  if (format == "pcap") {
    PcapWriter writer{out};
    writer.write_all(packets);
    return writer.packets_written();
  }
  throw ArgError("unknown --format '" + format + "' (pcap|pcapng)");
}

}  // namespace

int cmd_generate(const Args& args) {
  const std::string out = args.require_string("out");
  const std::string format = args.get_string("format", "pcap");

  // --tenant-scenario switches to the multi-tenant workload generators
  // (sim/tenant_scenarios.h): a subscriber-pool trace with per-tenant
  // ground truth, ready for `filter --tenants` / `attack --tenants`.
  const std::string scenario_name = args.get_string("tenant-scenario", "");
  if (!scenario_name.empty()) {
    TenantScenarioKind kind;
    if (!parse_tenant_scenario(scenario_name, &kind)) {
      throw ArgError("unknown --tenant-scenario '" + scenario_name +
                     "' (flash-crowd|diurnal-swell|swarm-join)");
    }
    TenantScenarioConfig config;
    config.tenants = args.get_u64("tenants", config.tenants);
    config.duration = Duration::sec(args.get_double("duration", 60.0));
    config.seed = args.get_u64("seed", 42);
    const std::string mode = args.get_string("tenant-mode", "subscriber");
    const std::optional<TenantMode> parsed_mode = parse_tenant_mode(mode);
    if (!parsed_mode) {
      throw ArgError("--tenant-mode must be subscriber or prefix24");
    }
    config.mode = *parsed_mode;
    if (const int rc = reject_unconsumed(args); rc != 0) return rc;

    const TenantScenarioTrace trace = generate_tenant_scenario(kind, config);
    const std::uint64_t written = write_generated(out, format, trace.packets);
    std::printf("wrote %llu packets (%s scenario, %zu tenants, %s window) "
                "to %s\n",
                static_cast<unsigned long long>(written),
                tenant_scenario_name(kind), trace.truth.size(),
                config.duration.to_string().c_str(), out.c_str());
    return 0;
  }

  CampusTraceConfig config;
  config.duration = Duration::sec(args.get_double("duration", 60.0));
  config.connections_per_sec = args.get_double("rate", 80.0);
  config.bandwidth_bps = args.get_double("bandwidth", 12e6);
  config.seed = args.get_u64("seed", 42);
  config.network.client_prefix =
      network_from(args).prefixes().front();
  if (const int rc = reject_unconsumed(args); rc != 0) return rc;

  const GeneratedTrace trace = generate_campus_trace(config);
  const std::uint64_t written = write_generated(out, format, trace.packets);
  std::printf("wrote %llu packets (%zu connections, %s over the %s window) "
              "to %s\n",
              static_cast<unsigned long long>(written),
              trace.connection_count,
              format_bits_per_sec(
                  static_cast<double>(trace.outbound_bytes +
                                      trace.inbound_bytes) *
                  8.0 / config.duration.to_sec())
                  .c_str(),
              config.duration.to_string().c_str(), out.c_str());
  return 0;
}

int cmd_analyze(const Args& args) {
  const std::string path = args.require_string("pcap");
  AnalyzerConfig config;
  config.network = network_from(args);
  config.out_in_expiry = Duration::sec(args.get_double("te", 600.0));
  const std::size_t top_n =
      static_cast<std::size_t>(args.get_int("top", 0));
  const std::string netflow_out = args.get_string("netflow", "");
  if (const int rc = reject_unconsumed(args); rc != 0) return rc;

  // Packets stream from the capture into the analyzer, so memory follows
  // the connections, not the capture length.
  TrafficAnalyzer analyzer{config};
  HostAccounting hosts{config.network};
  const std::uint64_t skipped =
      for_each_captured_packet(path, [&](const PacketRecord& pkt) {
        analyzer.process(pkt);
        if (top_n > 0) hosts.observe(pkt);
      });
  const AnalyzerReport report = analyzer.finish();

  std::printf("%llu packets (%llu skipped frames/blocks), %llu connections\n\n",
              static_cast<unsigned long long>(analyzer.packets_processed()),
              static_cast<unsigned long long>(skipped),
              static_cast<unsigned long long>(report.total_connections));
  if (report.out_of_order_packets > 0) {
    std::fprintf(stderr,
                 "warning: %llu packets have a timestamp below an earlier "
                 "packet's; the out-in delays assume time order\n",
                 static_cast<unsigned long long>(
                     report.out_of_order_packets));
  }
  std::printf("%s\n", report.protocol_table().c_str());
  std::printf("upload share: %s; TCP bytes: %s; UDP connections: %s\n",
              report::percent(report.upload_fraction()).c_str(),
              report::percent(static_cast<double>(report.tcp_bytes) /
                              std::max<std::uint64_t>(
                                  1, report.tcp_bytes + report.udp_bytes))
                  .c_str(),
              report::percent(static_cast<double>(report.udp_connections) /
                              std::max<std::uint64_t>(
                                  1, report.total_connections))
                  .c_str());
  if (report.lifetimes.count() > 0) {
    std::printf("TCP lifetimes: mean %.2f s, P90 %.2f s, P99 %.2f s\n",
                report.lifetime_summary.mean(),
                report.lifetimes.percentile(90),
                report.lifetimes.percentile(99));
  }
  if (report.out_in_delays.count() > 0) {
    std::printf("out-in delay: P50 %.3f s, P99 %.3f s, under 2.8 s: %s\n",
                report.out_in_delays.percentile(50),
                report.out_in_delays.percentile(99),
                report::percent(report.out_in_delays.fraction_below(2.8))
                    .c_str());
  }

  if (top_n > 0) {
    std::vector<std::vector<std::string>> rows{
        {"host", "upload", "download", "up%", "conns in", "conns out"}};
    for (const HostRecord& host : hosts.top_uploaders(top_n)) {
      rows.push_back({host.addr.to_string(),
                      std::to_string(host.upload_bytes),
                      std::to_string(host.download_bytes),
                      report::percent(host.upload_fraction(), 0),
                      std::to_string(host.connections_accepted),
                      std::to_string(host.connections_initiated)});
    }
    std::printf("\ntop uploaders:\n%s", report::table(rows).c_str());
  }

  if (!netflow_out.empty()) {
    std::FILE* f = std::fopen(netflow_out.c_str(), "wb");
    if (f == nullptr) {
      std::fprintf(stderr, "error: cannot open %s\n", netflow_out.c_str());
      return 1;
    }
    std::size_t flows = 0;
    bool written = true;
    for (const auto& packet : export_netflow_v5(analyzer.connections())) {
      if (std::fwrite(packet.data(), 1, packet.size(), f) != packet.size()) {
        written = false;
        break;
      }
      flows += (packet.size() - kNetflowV5HeaderSize) / kNetflowV5RecordSize;
    }
    // fclose flushes the buffered tail, so it can fail where fwrite did not.
    written = std::fclose(f) == 0 && written;
    if (!written) {
      std::fprintf(stderr, "error: short write on NetFlow export to %s\n",
                   netflow_out.c_str());
      return 1;
    }
    std::printf("\nexported %zu NetFlow v5 records to %s\n", flows,
                netflow_out.c_str());
  }
  return 0;
}

int cmd_filter(const Args& args) {
  const std::string path = args.require_string("pcap");
  const std::string out = args.get_string("out", "");
  const std::string save_state = args.get_string("save-state", "");
  const std::string load_state = args.get_string("load-state", "");
  const std::size_t threads = threads_from(args);
  const std::size_t shards = shards_from(args);
  const std::string shard_mode = shard_mode_from(args);
  const std::string kind = args.get_string(
      "filter",
      resolve_default_filter(!save_state.empty() || !load_state.empty(),
                             shard_mode == "shared"));
  const TenancySpec tenancy = tenancy_from(args);

  const FilterRegistry& registry = FilterRegistry::instance();
  const BackendDescriptor* backend = registry.find(kind);
  if (backend == nullptr) {
    throw ArgError("unknown --filter '" + kind + "' (" +
                   registry.names_joined("|") + ")");
  }
  // With --tenants the run's real filter is the hierarchical wrap, which
  // has no snapshot format and no shared concurrent view; reject those
  // combinations up front instead of failing after the replay.
  if (tenancy.enabled()) {
    if (!save_state.empty() || !load_state.empty()) {
      throw ArgError("--tenants is incompatible with "
                     "--save-state/--load-state (the hierarchical tenant "
                     "filter has no snapshot format)");
    }
    if (shard_mode == "shared") {
      throw ArgError("--tenants is incompatible with --shard-mode shared "
                     "(tenant state is shard-local by design)");
    }
    if (kind != "hierarchical") {
      backend = &registry.at("hierarchical");
    }
  }
  // Snapshot flags are gated on the backend's capability up front, so a
  // run never completes and then discovers its state cannot be saved (or
  // silently ignores a --load-state it cannot honor).
  if ((!save_state.empty() || !load_state.empty()) &&
      !backend->has(kCapSnapshot)) {
    throw ArgError(std::string{save_state.empty() ? "--load-state"
                                                  : "--save-state"} +
                   " requires a snapshot-capable backend (" +
                   registry.names_with(kCapSnapshot) + "); --filter " + kind +
                   " does not support snapshots");
  }

  EdgeRouterConfig config;
  config.network = network_from(args);
  config.track_blocked_connections = args.get_flag("blocklist");
  config.seed = seed_from(args);
  config.tenancy = tenancy.router;

  // --on-unhealthy arms the router's health monitor (degraded stance);
  // effective on both engines.
  apply_health_args(args, config);

  // --fault-spec routes the run through the supervised parallel engine
  // (even at --threads 1) so lane faults have lanes to land on.
  const std::string fault_spec_text = args.get_string("fault-spec", "");
  std::optional<FaultInjector> fault_injector;
  if (!fault_spec_text.empty()) {
    try {
      fault_injector.emplace(FaultSpec::parse(fault_spec_text), config.seed);
    } catch (const std::invalid_argument& e) {
      throw ArgError(std::string{"--fault-spec: "} + e.what());
    }
  }
  const bool faulted = fault_injector.has_value() && fault_injector->armed();
  const bool parallel_engine = threads > 1 || faulted;
  const MetricsOptions metrics = metrics_options_from(args, parallel_engine);

  // --tune arms the recommend-only adaptive tuner. Like
  // --metrics-interval it needs the single-thread engine: the tuner
  // samples the one live filter's occupancy in sim time.
  const bool tune = args.get_flag("tune");
  double tune_target = 0.01;
  if (args.has("tune-target")) {
    tune_target = args.get_double("tune-target", 0.01);
    if (!tune) throw ArgError("--tune-target requires --tune");
    if (!(tune_target > 0.0 && tune_target < 1.0)) {
      throw ArgError("--tune-target must be in (0, 1)");
    }
  }
  if (tune) {
    if (parallel_engine) {
      throw ArgError("--tune requires the single-thread engine "
                     "(--threads 1, no --fault-spec)");
    }
    if (!backend->has(kCapOccupancy)) {
      throw ArgError("--tune requires a backend with an occupancy signal (" +
                     registry.names_with(kCapOccupancy) + ")");
    }
    config.tuner.enabled = true;
    config.tuner.target_penetration = tune_target;
  }

  if (parallel_engine) {
    if (!out.empty() || !save_state.empty() || !load_state.empty()) {
      throw ArgError(
          faulted
              ? "--fault-spec is incompatible with "
                "--out/--save-state/--load-state"
              : "--out/--save-state/--load-state require --threads 1");
    }
    if (shard_mode == "shared" && !backend->has(kCapSharedView)) {
      throw ArgError("--shard-mode shared requires a shared-view-capable "
                     "backend (" + registry.names_with(kCapSharedView) + ")");
    }
    const FilterSpec spec = parse_effective_filter_spec(args, kind, tenancy);
    const PolicySpec policy_spec = policy_spec_from(args);
    if (const int rc = reject_unconsumed(args); rc != 0) return rc;

    const Trace trace = read_capture(path, nullptr);
    ParallelReplayConfig pconfig;
    pconfig.threads = threads;
    pconfig.shards = shards;
    if (faulted) pconfig.fault_injector = &*fault_injector;
    const std::size_t effective_shards =
        shards == 0 ? kDefaultShardCount : shards;

    std::unique_ptr<ConcurrentBitmapFilter> shared_filter;
    if (shard_mode == "shared") {
      shared_filter = std::make_unique<ConcurrentBitmapFilter>(
          spec.config_as<BitmapFilterConfig>());
    }
    ConcurrentBitmapFilter* shared = shared_filter.get();
    const EdgeRouterConfig base = config;
    const ShardRouterFactory factory =
        [&spec, &policy_spec, &base, shared, effective_shards](
            const ClientNetwork& net, std::size_t shard) {
          EdgeRouterConfig cfg = base;
          cfg.network = net;
          cfg.seed = shard_seed(base.seed, shard);
          std::unique_ptr<StateFilter> shard_state =
              shared != nullptr
                  ? std::unique_ptr<StateFilter>(
                        std::make_unique<SharedFilterView>(*shared))
                  : make_state_filter(spec);
          return std::make_unique<EdgeRouter>(
              cfg, std::move(shard_state),
              make_policy(policy_spec, effective_shards));
        };

    const ParallelReplayResult result =
        parallel_replay(trace, config.network, factory, pconfig);
    const EdgeRouterStats& stats = result.merged.stats;
    std::printf("outbound passed:  %llu packets, %llu bytes\n",
                static_cast<unsigned long long>(stats.outbound_packets),
                static_cast<unsigned long long>(stats.outbound_bytes));
    std::printf("inbound passed:   %llu packets, %llu bytes\n",
                static_cast<unsigned long long>(stats.inbound_passed_packets),
                static_cast<unsigned long long>(stats.inbound_passed_bytes));
    std::printf("inbound dropped:  %llu packets (%s), %llu via blocklist\n",
                static_cast<unsigned long long>(
                    stats.inbound_dropped_packets),
                report::percent(stats.inbound_drop_rate()).c_str(),
                static_cast<unsigned long long>(stats.blocked_drops));
    std::printf("upload suppressed: %llu packets, %llu bytes\n",
                static_cast<unsigned long long>(
                    stats.suppressed_outbound_packets),
                static_cast<unsigned long long>(
                    stats.suppressed_outbound_bytes));
    if (shared != nullptr) {
      std::printf("filter state: %zu bytes shared across %zu shards (%s)\n",
                  shared->storage_bytes(), result.shards,
                  result.filter_name.c_str());
    } else {
      std::size_t total_bytes = 0;
      for (const std::size_t bytes : result.shard_filter_bytes) {
        total_bytes += bytes;
      }
      std::printf("filter state: %zu bytes over %zu shards (%s)\n",
                  total_bytes, result.shards, result.filter_name.c_str());
    }
    std::printf("datapath stage counters:\n");
    for (const CounterSample& sample : stats.stage_counters) {
      std::printf("  %-28s %llu\n", sample.name.c_str(),
                  static_cast<unsigned long long>(sample.value));
    }
    print_shard_table(result);
    if (tenancy.enabled()) {
      // Shard-local tenant stats merge key-wise, so the table is the same
      // at any thread count.
      print_tenant_stats(result.merged.stats,
                         TenantTable{tenancy.router.table});
    }
    if (faulted) {
      std::size_t dead_lanes = 0;
      for (const std::uint8_t failed : result.shard_failed) {
        dead_lanes += failed;
      }
      std::printf("fault plane: spec '%s', seed %llu\n",
                  fault_spec_text.c_str(),
                  static_cast<unsigned long long>(config.seed));
      std::printf(
          "  feed: %llu corrupted, %llu clock-faulted\n",
          static_cast<unsigned long long>(fault_injector->packets_corrupted()),
          static_cast<unsigned long long>(
              fault_injector->clock_faulted_packets()));
      std::printf(
          "  lanes: %llu bit flips (%llu ignored), %llu stalls, "
          "%zu dead of %zu\n",
          static_cast<unsigned long long>(fault_injector->bits_flipped()),
          static_cast<unsigned long long>(fault_injector->flips_ignored()),
          static_cast<unsigned long long>(fault_injector->stalls_taken()),
          dead_lanes, result.shards);
      std::printf(
          "  failover: %llu packets re-merged, %llu unroutable, "
          "%llu lost, %llu condemned by watchdog\n",
          static_cast<unsigned long long>(result.failover_packets),
          static_cast<unsigned long long>(result.unroutable_packets),
          static_cast<unsigned long long>(result.lost_packets),
          static_cast<unsigned long long>(result.lanes_condemned));
    }
    if (metrics.enabled()) {
      const SimTime end =
          trace.empty() ? SimTime::origin() : trace.back().timestamp;
      std::unique_ptr<MetricsJsonlWriter> jsonl;
      if (!metrics.prometheus) {
        jsonl = std::make_unique<MetricsJsonlWriter>(metrics.out);
      }
      write_final_metrics(metrics, jsonl.get(), result.merged.metrics, end);
      std::printf("metrics written to %s\n", metrics.out.c_str());
    }
    return 0;
  }

  // With --load-state the filter's geometry comes from the snapshot, so
  // the backend's own arguments are not parsed (geometry flags alongside
  // --load-state are rejected as unconsumed).
  const bool load_snapshot = !load_state.empty();
  FilterSpec spec;
  if (!load_snapshot) spec = parse_effective_filter_spec(args, kind, tenancy);
  std::unique_ptr<DropPolicy> policy = make_policy(policy_spec_from(args), 1);
  if (const int rc = reject_unconsumed(args); rc != 0) return rc;

  // The trace is read before --load-state resolves so the staleness check
  // can compare the snapshot time against the replay's first timestamp.
  const Trace trace = read_capture(path, nullptr);
  std::unique_ptr<StateFilter> filter;
  if (load_snapshot) {
    const auto bytes = load_snapshot_file(load_state);
    if (!bytes.has_value()) throw ArgError("cannot read " + load_state);
    const std::optional<SimTime> now =
        trace.empty() ? std::nullopt
                      : std::optional<SimTime>{trace.front().timestamp};
    FilterRestoreResult restored = backend->restore(*bytes, now, nullptr);
    if (!restored.ok()) {
      if (restored.error == SnapshotRestoreError::kStale) {
        throw ArgError("snapshot " + load_state + " is stale: taken " +
                       restored.staleness.to_string() +
                       " before the trace starts (> T_e); every mark has "
                       "expired -- start cold instead");
      }
      throw ArgError("cannot restore " + load_state + ": " +
                     snapshot_restore_error_name(restored.error));
    }
    std::printf("restored %s state from %s (snapshot at %s)\n",
                backend->name.c_str(), load_state.c_str(),
                restored.snapshot_time.to_string().c_str());
    spec = std::move(restored.spec);
    filter = std::move(restored.filter);
  } else {
    filter = make_state_filter(spec);
  }
  if (tune) {
    const std::optional<FilterGeometry> geometry = backend->geometry(spec);
    if (!geometry.has_value()) {
      throw ArgError("--tune requires a backend with a declared geometry");
    }
    config.tuner.geometry = *geometry;
  }
  EdgeRouter router{config, std::move(filter), std::move(policy)};

  std::unique_ptr<PcapWriter> writer;
  if (!out.empty()) writer = std::make_unique<PcapWriter>(out);
  std::unique_ptr<MetricsJsonlWriter> metrics_writer;
  if (metrics.enabled() && !metrics.prometheus) {
    metrics_writer = std::make_unique<MetricsJsonlWriter>(metrics.out);
  }
  // Interval snapshots fire on sim-time boundaries measured from the first
  // packet, so a trace replayed at any speed emits the same sequence.
  const bool interval_mode = !metrics.interval.is_zero() && !trace.empty();
  SimTime next_emit = interval_mode
                          ? trace.front().timestamp + metrics.interval
                          : SimTime::infinite();
  constexpr std::size_t kCliBatch = 256;
  std::array<RouterDecision, kCliBatch> decisions;
  for (std::size_t start = 0; start < trace.size(); start += kCliBatch) {
    const std::size_t n = std::min(kCliBatch, trace.size() - start);
    const PacketBatch batch{trace.data() + start, n};
    router.process_batch(batch, std::span<RouterDecision>{decisions.data(), n});
    while (batch[n - 1].timestamp >= next_emit) {
      const MetricsSnapshot snap = metrics.deterministic
                                       ? router.metrics_snapshot().deterministic()
                                       : router.metrics_snapshot();
      metrics_writer->write(snap, "interval", next_emit);
      next_emit += metrics.interval;
    }
    if (writer == nullptr) continue;
    for (std::size_t p = 0; p < n; ++p) {
      if (decisions[p] == RouterDecision::kPassedOutbound ||
          decisions[p] == RouterDecision::kPassedInbound) {
        writer->write(batch[p]);
      }
    }
  }
  if (metrics.enabled()) {
    const SimTime end =
        trace.empty() ? SimTime::origin() : trace.back().timestamp;
    write_final_metrics(metrics, metrics_writer.get(),
                        router.metrics_snapshot(), end);
    std::printf("metrics written to %s\n", metrics.out.c_str());
  }

  const EdgeRouterStats& stats = router.stats();
  std::printf("outbound passed:  %llu packets, %llu bytes\n",
              static_cast<unsigned long long>(stats.outbound_packets),
              static_cast<unsigned long long>(stats.outbound_bytes));
  std::printf("inbound passed:   %llu packets, %llu bytes\n",
              static_cast<unsigned long long>(stats.inbound_passed_packets),
              static_cast<unsigned long long>(stats.inbound_passed_bytes));
  std::printf("inbound dropped:  %llu packets (%s), %llu via blocklist\n",
              static_cast<unsigned long long>(stats.inbound_dropped_packets),
              report::percent(stats.inbound_drop_rate()).c_str(),
              static_cast<unsigned long long>(stats.blocked_drops));
  std::printf("upload suppressed: %llu packets, %llu bytes\n",
              static_cast<unsigned long long>(
                  stats.suppressed_outbound_packets),
              static_cast<unsigned long long>(
                  stats.suppressed_outbound_bytes));
  std::printf("filter state: %zu bytes (%s)\n",
              router.filter().storage_bytes(),
              router.filter().name().c_str());
  std::printf("datapath stage counters:\n");
  for (const CounterSample& sample : stats.stage_counters) {
    std::printf("  %-28s %llu\n", sample.name.c_str(),
                static_cast<unsigned long long>(sample.value));
  }
  if (const AdaptiveTuner* tuner = router.tuner()) {
    std::printf("%s\n", tuner->recommendation().to_string().c_str());
  }
  if (const HierarchicalFilter* hier = router.hierarchical_filter()) {
    print_hierarchical_summary(*hier);
  }
  if (router.tenancy_enabled()) {
    print_tenant_stats(stats, router.tenant_table());
  }
  if (writer != nullptr) {
    std::printf("surviving packets written to %s\n", out.c_str());
  }
  if (!save_state.empty()) {
    const SimTime end =
        trace.empty() ? SimTime::origin() : trace.back().timestamp;
    const auto snapshot = backend->save(router.filter(), end);
    try {
      // Crash-consistent: tmp file + flush + fsync + atomic rename, so a
      // crash mid-save leaves either the old state or the new one.
      save_snapshot_file(save_state, snapshot);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "error: %s\n", e.what());
      return 1;
    }
    std::printf("%s state (%zu bytes) saved to %s\n", backend->name.c_str(),
                snapshot.size(), save_state.c_str());
  }
  return 0;
}

int cmd_compare(const Args& args) {
  const std::string path = args.require_string("pcap");
  const double pd = args.get_double("pd", 1.0);
  const ClientNetwork network = network_from(args);
  const BitmapFilterConfig bitmap_config = bitmap_from(args);
  const std::uint64_t seed = seed_from(args);
  const std::size_t threads = threads_from(args);
  const std::size_t shards = shards_from(args);
  const std::string shard_mode = shard_mode_from(args);
  const TenancySpec tenancy = tenancy_from(args);
  if (tenancy.enabled() && shard_mode == "shared") {
    throw ArgError("--tenants is incompatible with --shard-mode shared "
                   "(tenant state is shard-local by design)");
  }
  if (const int rc = reject_unconsumed(args); rc != 0) return rc;

  const Trace trace = read_capture(path, nullptr);

  // One row per registered backend, every backend derived from the shared
  // bitmap design so the rows stay comparable: bitmap-geometry backends
  // take {bits, k, m, dt} directly, the exact-state backends take the
  // matching expiry window (naive) or the SPI default timeout.
  std::vector<std::vector<std::string>> rows{
      {"filter", "inbound drop rate", "carried up", "carried down",
       "state bytes"}};
  for (const BackendDescriptor& backend :
       FilterRegistry::instance().descriptors()) {
    MapFilterArgs margs;
    margs.set("bits", std::to_string(bitmap_config.log2_bits));
    margs.set("k", std::to_string(bitmap_config.vector_count));
    margs.set("m", std::to_string(bitmap_config.hash_count));
    margs.set("dt", std::to_string(bitmap_config.rotate_interval.to_sec()));
    if (bitmap_config.key_mode == KeyMode::kHolePunching) {
      margs.set_flag("hole-punching");
    }
    if (backend.name == "spi") {
      margs.set("timeout", "240");
    } else if (backend.name == "naive") {
      margs.set("timeout",
                std::to_string(bitmap_config.expiry_timer().to_sec()));
    }
    // With --tenants every row runs behind the hierarchical tenant wrap
    // (the hierarchical row itself just gains the tenant keys), so the
    // comparison measures each backend as a fine tier under identical
    // per-subscriber enforcement.
    const bool wrapped = tenancy.enabled() && backend.name != "hierarchical";
    if (tenancy.enabled()) {
      margs.set("tenant-mode", tenant_mode_name(tenancy.router.table.mode));
      if (tenancy.tenants > 0) {
        margs.set("tenants", std::to_string(tenancy.tenants));
      }
      if (tenancy.cap > 0) {
        margs.set("tenant-cap", std::to_string(tenancy.cap));
      }
      if (wrapped) margs.set("fine", backend.name);
    }
    const BackendDescriptor& parse_backend =
        wrapped ? FilterRegistry::instance().at("hierarchical") : backend;
    const FilterSpec spec = parse_backend.parse(margs);
    // In shared mode, shared-view-capable rows drive one concurrent
    // filter from every shard instead of a per-shard instance.
    const bool share = threads > 1 && shard_mode == "shared" &&
                       backend.has(kCapSharedView);
    std::string label = share ? backend.name + " (shared)" : backend.name;
    if (wrapped) label = backend.name + " (tenant)";
    if (threads > 1) {
      std::unique_ptr<ConcurrentBitmapFilter> shared_filter;
      if (share) {
        shared_filter = std::make_unique<ConcurrentBitmapFilter>(
            spec.config_as<BitmapFilterConfig>());
      }
      ConcurrentBitmapFilter* shared = shared_filter.get();
      const ShardRouterFactory factory =
          [&spec, &network, &tenancy, seed, pd, shared](const ClientNetwork&,
                                                        std::size_t shard) {
            EdgeRouterConfig config;
            config.network = network;
            config.seed = shard_seed(seed, shard);
            config.track_blocked_connections = false;
            config.tenancy = tenancy.router;
            std::unique_ptr<StateFilter> shard_state =
                shared != nullptr
                    ? std::unique_ptr<StateFilter>(
                          std::make_unique<SharedFilterView>(*shared))
                    : make_state_filter(spec);
            return std::make_unique<EdgeRouter>(
                config, std::move(shard_state),
                std::make_unique<ConstantDropPolicy>(pd));
          };
      ParallelReplayConfig pconfig;
      pconfig.threads = threads;
      pconfig.shards = shards;
      const ParallelReplayResult result =
          parallel_replay(trace, network, factory, pconfig);
      std::size_t state_bytes = 0;
      if (shared != nullptr) {
        state_bytes = shared->storage_bytes();
      } else {
        for (const std::size_t bytes : result.shard_filter_bytes) {
          state_bytes += bytes;
        }
      }
      const EdgeRouterStats& stats = result.merged.stats;
      rows.push_back({label,
                      report::percent(stats.inbound_drop_rate(), 3),
                      std::to_string(stats.outbound_bytes),
                      std::to_string(stats.inbound_passed_bytes),
                      std::to_string(state_bytes)});
      continue;
    }
    EdgeRouterConfig config;
    config.network = network;
    config.seed = seed;
    config.track_blocked_connections = false;
    config.tenancy = tenancy.router;
    EdgeRouter router{config, make_state_filter(spec),
                      std::make_unique<ConstantDropPolicy>(pd)};
    constexpr std::size_t kCompareBatch = 256;
    std::array<RouterDecision, kCompareBatch> decisions;
    for (std::size_t start = 0; start < trace.size();
         start += kCompareBatch) {
      const std::size_t n = std::min(kCompareBatch, trace.size() - start);
      router.process_batch(PacketBatch{trace.data() + start, n},
                           std::span<RouterDecision>{decisions.data(), n});
    }
    const EdgeRouterStats& stats = router.stats();
    rows.push_back({label,
                    report::percent(stats.inbound_drop_rate(), 3),
                    std::to_string(stats.outbound_bytes),
                    std::to_string(stats.inbound_passed_bytes),
                    std::to_string(router.filter().storage_bytes())});
  }
  std::printf("%zu packets, P_d = %.2f for stateless inbound\n\n%s",
              trace.size(), pd, report::table(rows).c_str());
  return 0;
}

int cmd_attack(const Args& args) {
  const std::string pcap = args.get_string("pcap", "");
  const std::string scenario_arg = args.get_string("scenario", "all");
  const std::string filters_arg = args.get_string("filters", "bitmap,spi,naive");
  const std::string out = args.get_string("out", "attack_report.jsonl");

  AttackEvaluatorConfig config;
  config.attack.bitmap = bitmap_from(args);
  config.attack.intensity = args.get_double("intensity", 1.0);
  config.attack.seed = seed_from(args);
  config.attack.spi_idle_timeout =
      Duration::sec(args.get_double("spi-timeout", 240.0));
  config.attack.saturation_occupancy =
      args.get_double("saturation-occupancy", 0.4);
  config.attack.rotation_mistimed = args.get_flag("mistimed");
  config.attack.forgery_requests_per_sec = args.get_double("request-rate", 8.0);
  config.pd = args.get_double("pd", 1.0);
  config.upload_bound_bps = args.get_double("bound", 2e6);
  config.seed = config.attack.seed;
  config.threads = static_cast<std::size_t>(args.get_int("threads", 1));
  config.shards = static_cast<std::size_t>(args.get_int("shards", 1));
  config.occupancy_interval =
      Duration::sec(args.get_double("occupancy-interval", 1.0));
  const TenancySpec tenancy = tenancy_from(args);
  config.tenancy = tenancy.router;
  config.tenant_cap = tenancy.cap;
  if (config.threads == 0) throw ArgError("--threads must be >= 1");
  if (config.shards == 0) throw ArgError("--shards must be >= 1");
  if (config.attack.intensity <= 0.0) {
    throw ArgError("--intensity must be > 0");
  }

  config.filters.clear();
  for (std::size_t start = 0; start < filters_arg.size();) {
    const std::size_t comma = filters_arg.find(',', start);
    const std::size_t end =
        comma == std::string::npos ? filters_arg.size() : comma;
    if (end > start) config.filters.push_back(filters_arg.substr(start, end - start));
    start = end + 1;
  }
  if (config.filters.empty()) throw ArgError("--filters must name a filter");
  for (const std::string& name : config.filters) {
    if (FilterRegistry::instance().find(name) == nullptr) {
      throw ArgError("unknown filter '" + name + "' in --filters (" +
                     FilterRegistry::instance().names_joined("|") + ")");
    }
  }

  std::vector<AttackScenarioKind> scenarios;
  if (scenario_arg == "all") {
    scenarios = all_attack_scenarios();
  } else {
    for (std::size_t start = 0; start < scenario_arg.size();) {
      const std::size_t comma = scenario_arg.find(',', start);
      const std::size_t end =
          comma == std::string::npos ? scenario_arg.size() : comma;
      const std::string one = scenario_arg.substr(start, end - start);
      AttackScenarioKind kind;
      if (!parse_attack_scenario(one, &kind)) {
        throw ArgError("unknown --scenario '" + one +
                       "' (collision|saturation|rotation|forgery|all)");
      }
      scenarios.push_back(kind);
      start = end + 1;
    }
  }
  if (scenarios.empty()) throw ArgError("--scenario must name a scenario");

  const ClientNetwork network = network_from(args);
  // The legit background comes from a capture when provided, else from the
  // calibrated campus generator (same knobs as `generate`).
  CampusTraceConfig campus;
  campus.duration = Duration::sec(args.get_double("duration", 60.0));
  campus.connections_per_sec = args.get_double("rate", 80.0);
  campus.bandwidth_bps = args.get_double("bandwidth", 12e6);
  campus.seed = config.attack.seed;
  campus.network.client_prefix = network.prefixes().front();
  if (const int rc = reject_unconsumed(args); rc != 0) return rc;

  Trace legit;
  if (!pcap.empty()) {
    legit = read_capture(pcap, nullptr);
  } else {
    legit = generate_campus_trace(campus).packets;
  }

  const AttackReport report =
      evaluate_attacks(legit, network, scenarios, config);

  std::printf("%zu legit packets, %zu scenarios x %zu filters "
              "(seed %llu, shards %zu)\n\n%s",
              legit.size(), scenarios.size(), config.filters.size(),
              static_cast<unsigned long long>(config.attack.seed),
              config.shards, report.summary_table().c_str());
  const std::string tenant_rows = report.tenant_table();
  if (!tenant_rows.empty()) {
    std::printf("\nper-tenant attack breakdown (achieved upload vs the "
                "%.2f Mbit/s bound):\n%s",
                config.upload_bound_bps / 1e6, tenant_rows.c_str());
  }
  if (!out.empty()) {
    std::FILE* f = std::fopen(out.c_str(), "wb");
    if (f == nullptr) {
      std::fprintf(stderr, "error: cannot write %s\n", out.c_str());
      return 1;
    }
    const std::string jsonl = report.to_jsonl();
    std::fwrite(jsonl.data(), 1, jsonl.size(), f);
    std::fclose(f);
    std::printf("\nreport written to %s\n", out.c_str());
  }
  return 0;
}

int cmd_advise(const Args& args) {
  const std::size_t connections =
      static_cast<std::size_t>(args.get_int("connections", 15'000));
  const unsigned bits = static_cast<unsigned>(args.get_int("bits", 20));
  const unsigned k = static_cast<unsigned>(args.get_int("k", 4));
  const double dt = args.get_double("dt", 5.0);
  if (const int rc = reject_unconsumed(args); rc != 0) return rc;

  const BitmapAdvice advice = advise(std::size_t{1} << bits, k,
                                     Duration::sec(dt), connections);
  std::printf("recommended configuration for %zu connections/expiry "
              "window:\n  %s\n",
              connections, advice.to_string().c_str());
  std::printf("capacity at this N (Eq. 6): p=10%% -> %zu conns, "
              "p=5%% -> %zu, p=1%% -> %zu\n",
              max_connections_for(0.10, std::size_t{1} << bits),
              max_connections_for(0.05, std::size_t{1} << bits),
              max_connections_for(0.01, std::size_t{1} << bits));
  return 0;
}

int cmd_live(const Args& args) {
  using namespace upbound::live;

  const bool tap = args.get_flag("tap");
  const std::string afpacket = args.get_string("afpacket", "");
  if (tap == !afpacket.empty()) {
    throw ArgError("live needs exactly one capture backend: "
                   "--tap or --afpacket IFACE");
  }
  const std::string kind = args.get_string(
      "filter", resolve_default_filter(false, false));
  const TenancySpec tenancy = tenancy_from(args);
  const FilterSpec spec = parse_effective_filter_spec(args, kind, tenancy);
  const std::string filter_label =
      tenancy.enabled() && kind != "hierarchical"
          ? "hierarchical(fine=" + kind + ")"
          : kind;

  LiveConfig config;
  config.router.network = network_from(args);
  config.router.track_blocked_connections = args.get_flag("blocklist");
  config.router.seed = seed_from(args);
  config.router.tenancy = tenancy.router;
  apply_health_args(args, config.router);

  const PolicySpec policy = policy_spec_from(args);
  config.policy_red = policy.red;
  config.policy_low = policy.low;
  config.policy_high = policy.high;
  config.policy_pd = policy.pd;

  const MetricsOptions metrics = metrics_options_from(args, false);
  config.metrics_out = metrics.out;
  config.metrics_interval = metrics.interval;
  config.metrics_deterministic = metrics.deterministic;
  config.metrics_prometheus = metrics.prometheus;

  const double duration_sec = args.get_double("duration", 0.0);
  if (duration_sec < 0.0) throw ArgError("--duration must be >= 0");
  config.run_duration = Duration::sec(duration_sec);
  config.max_packets = args.get_u64("max-packets", 0);
  const int tick_ms = static_cast<int>(args.get_int("tick-ms", 100));
  if (tick_ms <= 0) throw ArgError("--tick-ms must be > 0");
  config.tick = Duration::msec(tick_ms);
  const int batch = static_cast<int>(args.get_int("batch", 256));
  if (batch <= 0) throw ArgError("--batch must be > 0");
  config.batch_max = static_cast<std::size_t>(batch);

  const std::string stamp = args.get_string("stamp", "frame");
  if (stamp != "frame" && stamp != "arrival") {
    throw ArgError("--stamp must be frame or arrival");
  }
  const int tap_port = static_cast<int>(args.get_int("tap-port", 9000));
  if (tap_port < 0 || tap_port > 65535) {
    throw ArgError("--tap-port must be in [0, 65535]");
  }
  const std::string control_path = args.get_string("control", "");
  const double control_timeout_sec =
      args.get_double("control-timeout", 30.0);
  if (control_timeout_sec < 0.0) {
    throw ArgError("--control-timeout must be >= 0 (0 disables reaping)");
  }

  config.checkpoint_dir = args.get_string("checkpoint-dir", "");
  const double checkpoint_sec = args.get_double("checkpoint-interval", 5.0);
  if (checkpoint_sec <= 0.0) {
    throw ArgError("--checkpoint-interval must be > 0");
  }
  config.checkpoint_interval = Duration::sec(checkpoint_sec);
  const int checkpoint_keep =
      static_cast<int>(args.get_int("checkpoint-keep", 4));
  if (checkpoint_keep <= 0) throw ArgError("--checkpoint-keep must be > 0");
  config.checkpoint_keep = static_cast<std::size_t>(checkpoint_keep);
  const std::string restore_dir = args.get_string("restore-dir", "");
  const std::string reload_config = args.get_string("reload-config", "");
  config.capture_retry_limit = args.get_u64("capture-retry-limit", 0);

  const std::string fault_spec_text = args.get_string("fault-spec", "");
  std::optional<FaultInjector> fault_injector;
  if (!fault_spec_text.empty()) {
    try {
      fault_injector.emplace(FaultSpec::parse(fault_spec_text),
                             config.router.seed);
    } catch (const std::invalid_argument& e) {
      throw ArgError(std::string{"--fault-spec: "} + e.what());
    }
    config.faults = &*fault_injector;
  }

  const std::string out = args.get_string("out", "");
  if (const int rc = reject_unconsumed(args); rc != 0) return rc;

  MonotonicClock clock;
  config.clock = &clock;

  std::unique_ptr<CaptureSource> source;
  const UdpTapSource* tap_source = nullptr;
  if (tap) {
    UdpTapSource::Config tap_config;
    tap_config.port = static_cast<std::uint16_t>(tap_port);
    tap_config.timestamp_mode = stamp == "frame"
                                    ? TapTimestampMode::kFromFrames
                                    : TapTimestampMode::kOnReceive;
    tap_config.clock = &clock;
    auto owned = std::make_unique<UdpTapSource>(tap_config);
    tap_source = owned.get();
    source = std::move(owned);
  } else {
    AfPacketSource::Config ap_config;
    ap_config.interface = afpacket;
    ap_config.clock = &clock;
    source = std::make_unique<AfPacketSource>(ap_config);
  }

  EventLoop loop;
  LiveDatapath datapath{std::move(config), spec, std::move(source), loop};
  if (!control_path.empty()) {
    datapath.enable_control(control_path,
                            Duration::sec(control_timeout_sec));
  }

  if (!restore_dir.empty()) {
    // Warm-start before any traffic flows. Cross-process restart: no
    // comparable sim time, so staleness is not checked here (the rotation
    // schedule re-anchors on the first packet).
    const CheckpointRestore restore =
        datapath.restore_checkpoint_dir(restore_dir);
    std::printf("live: %s\n", restore.report().c_str());
  }

  std::unique_ptr<PcapWriter> writer;
  if (!out.empty()) {
    writer = std::make_unique<PcapWriter>(out);
    datapath.set_verdict_sink(
        [&writer](const PacketRecord& pkt, RouterDecision decision) {
          if (decision == RouterDecision::kPassedOutbound ||
              decision == RouterDecision::kPassedInbound) {
            writer->write(pkt);
          }
        });
  }
  loop.add_signals(
      {SIGINT, SIGTERM, SIGHUP},
      [&datapath, &reload_config](int signo) {
        if (signo == SIGHUP) {
          // Hot reload: same path as the control socket's `reload` verb.
          if (reload_config.empty()) {
            std::fprintf(stderr,
                         "live: SIGHUP ignored (no --reload-config)\n");
            return;
          }
          const ControlReply reply =
              datapath.reload_from_file(reload_config);
          std::fprintf(stderr, "live: reload %s: %s\n",
                       reload_config.c_str(), reply.render().c_str());
          return;
        }
        datapath.drain_and_stop();
      });

  if (tap_source != nullptr) {
    std::printf("live: udp-tap on 127.0.0.1:%u (filter %s)\n",
                static_cast<unsigned>(tap_source->local_port()),
                filter_label.c_str());
  } else {
    std::printf("live: af_packet on %s (filter %s)\n", afpacket.c_str(),
                filter_label.c_str());
  }
  if (!control_path.empty()) {
    std::printf("live: control socket at %s\n", control_path.c_str());
  }
  if (const Checkpointer* ck = datapath.checkpointer()) {
    std::printf("live: checkpointing to %s every %s (keep %zu)\n",
                ck->config().dir.c_str(),
                ck->config().interval.to_string().c_str(),
                ck->config().keep);
  }
  std::fflush(stdout);

  loop.run();
  datapath.finalize();

  const LiveStats& live = datapath.stats();
  std::printf("frames received:  %llu (%llu bytes), %llu malformed, "
              "%llu decode errors\n",
              static_cast<unsigned long long>(live.frames),
              static_cast<unsigned long long>(live.frame_bytes),
              static_cast<unsigned long long>(live.malformed),
              static_cast<unsigned long long>(live.decode_errors));
  std::printf("packets processed: %llu in %llu batches "
              "(%llu forwarded, %llu dropped, %llu ignored)\n",
              static_cast<unsigned long long>(live.packets),
              static_cast<unsigned long long>(live.batches),
              static_cast<unsigned long long>(live.forwarded),
              static_cast<unsigned long long>(live.dropped),
              static_cast<unsigned long long>(live.ignored));
  const EdgeRouterStats& stats = datapath.router().stats();
  std::printf("inbound dropped:  %llu packets (%s), %llu via blocklist\n",
              static_cast<unsigned long long>(stats.inbound_dropped_packets),
              report::percent(stats.inbound_drop_rate()).c_str(),
              static_cast<unsigned long long>(stats.blocked_drops));
  std::printf("filter state: %zu bytes (%s)\n",
              datapath.router().filter().storage_bytes(),
              datapath.router().filter().name().c_str());
  std::printf("datapath stage counters:\n");
  for (const CounterSample& sample : stats.stage_counters) {
    std::printf("  %-28s %llu\n", sample.name.c_str(),
                static_cast<unsigned long long>(sample.value));
  }
  if (const HierarchicalFilter* hier =
          datapath.router().hierarchical_filter()) {
    print_hierarchical_summary(*hier);
  }
  if (datapath.router().tenancy_enabled()) {
    print_tenant_stats(stats, datapath.router().tenant_table());
  }
  if (live.capture_failures > 0 || live.frames_lost > 0) {
    std::printf("capture: %llu failures, %llu reattaches "
                "(%llu attempts), %llu frames lost, %.3f s detached\n",
                static_cast<unsigned long long>(live.capture_failures),
                static_cast<unsigned long long>(live.capture_reattaches),
                static_cast<unsigned long long>(
                    live.capture_reattach_attempts),
                static_cast<unsigned long long>(live.frames_lost),
                static_cast<double>(live.capture_gap_usec) / 1e6);
  }
  if (datapath.checkpointer() != nullptr) {
    std::printf("checkpoints: %llu written, %llu errors\n",
                static_cast<unsigned long long>(live.checkpoints_written),
                static_cast<unsigned long long>(live.checkpoint_errors));
  }
  if (live.metrics_export_errors > 0) {
    std::printf("metrics export errors: %llu\n",
                static_cast<unsigned long long>(live.metrics_export_errors));
  }
  if (const ControlServer* control = datapath.control()) {
    std::printf("control: %llu connections, %llu commands, "
                "%llu protocol errors, %llu reaped\n",
                static_cast<unsigned long long>(
                    control->connections_accepted()),
                static_cast<unsigned long long>(
                    control->commands_processed()),
                static_cast<unsigned long long>(control->protocol_errors()),
                static_cast<unsigned long long>(
                    control->connections_reaped()));
  }
  if (!metrics.out.empty() && datapath.metrics_export_ok()) {
    std::printf("metrics written to %s\n", metrics.out.c_str());
  }
  if (writer != nullptr) {
    std::printf("surviving packets written to %s\n", out.c_str());
  }
  return 0;
}

int cmd_tapsend(const Args& args) {
  using namespace upbound::live;

  const int port = static_cast<int>(args.get_int("port", 9000));
  if (port <= 0 || port > 65535) {
    throw ArgError("--port must be in [1, 65535]");
  }
  const std::string host = args.get_string("host", "127.0.0.1");
  const std::string pcap = args.get_string("pcap", "");
  const double pps = args.get_double("pps", 0.0);
  if (pps < 0.0) throw ArgError("--pps must be >= 0");
  const int burst = static_cast<int>(args.get_int("burst", 64));
  if (burst <= 0) throw ArgError("--burst must be > 0");

  Trace trace;
  if (!pcap.empty()) {
    trace = read_capture(pcap, nullptr);
  } else {
    CampusTraceConfig config;
    config.duration = Duration::sec(args.get_double("duration", 10.0));
    config.connections_per_sec = args.get_double("rate", 80.0);
    config.bandwidth_bps = args.get_double("bandwidth", 12e6);
    config.seed = args.get_u64("seed", 42);
    config.network.client_prefix = network_from(args).prefixes().front();
    trace = generate_campus_trace(config).packets;
  }
  if (const int rc = reject_unconsumed(args); rc != 0) return rc;
  if (trace.empty()) throw ArgError("nothing to send: empty trace");

  UdpTapSender sender{static_cast<std::uint16_t>(port), host};
  std::vector<std::vector<std::uint8_t>> datagrams;
  datagrams.reserve(static_cast<std::size_t>(burst));

  const auto t0 = std::chrono::steady_clock::now();
  std::uint64_t sent = 0;
  for (std::size_t start = 0; start < trace.size();
       start += static_cast<std::size_t>(burst)) {
    const std::size_t n = std::min(static_cast<std::size_t>(burst),
                                   trace.size() - start);
    datagrams.clear();
    for (std::size_t p = 0; p < n; ++p) {
      datagrams.push_back(encode_tap_datagram(trace[start + p]));
    }
    sender.send_burst(datagrams);
    sent += n;
    if (pps > 0.0) {
      // Pace against the wall clock from t0, not per-burst sleeps, so
      // scheduling jitter does not accumulate into rate drift.
      const auto due =
          t0 + std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                   std::chrono::duration<double>(
                       static_cast<double>(sent) / pps));
      std::this_thread::sleep_until(due);
    }
  }
  const std::chrono::duration<double> elapsed =
      std::chrono::steady_clock::now() - t0;
  const double seconds = std::max(elapsed.count(), 1e-9);
  std::printf("sent %llu tap datagrams to %s:%d in %.3f s (%.0f pkt/s)\n",
              static_cast<unsigned long long>(sent), host.c_str(), port,
              seconds, static_cast<double>(sent) / seconds);
  return 0;
}

void print_usage() {
  const std::string filters = FilterRegistry::instance().names_joined("|");
  std::printf(
      "upbound -- bound P2P upload traffic without payload inspection\n"
      "\n"
      "usage: upbound <command> [options]\n"
      "\n"
      "commands:\n"
      "  generate  synthesize a calibrated campus trace to a pcap file\n"
      "            --out FILE [--duration SEC] [--rate CONNS/S]\n"
      "            [--format pcap|pcapng]\n"
      "            [--bandwidth BPS] [--seed N] [--network CIDR]\n"
      "            [--tenant-scenario flash-crowd|diurnal-swell|swarm-join\n"
      "             --tenants N --tenant-mode subscriber|prefix24]\n"
      "  analyze   classify a pcap and print the measurement report\n"
      "            --pcap FILE [--network CIDR[,CIDR...]] [--te SEC]\n"
      "            [--top N] [--netflow FILE]\n"
      "  filter    replay a pcap through an edge filter\n"
      "            --pcap FILE [--network CIDR]\n"
      "            [--filter %s]\n"
      "            (default bitmap-blocked; bitmap with snapshot/shared runs)\n"
      "            [--low BPS --high BPS | --pd PROB] [--blocklist]\n"
      "            [--bits N --k K --dt SEC --m M] [--hole-punching]\n"
      "            [--timeout SEC] [--retouch-fraction R --retouch-seed N]\n"
      "            [--no-close-delete] [--out FILE] [--seed N]\n"
      "            [--tenants N] [--tenant-mode subscriber|prefix24]\n"
      "            [--tenant-cap N] [--front bitmap|bitmap-blocked|bitmap-mt]\n"
      "            [--front-bits N --front-k K --front-m M --front-dt SEC]\n"
      "            [--no-digest] [--digest-bits N --digest-m M]\n"
      "            [--save-state FILE] [--load-state FILE]\n"
      "            [--tune] [--tune-target P]\n"
      "            [--threads N] [--shards S] [--shard-mode sharded|shared]\n"
      "            [--metrics-out FILE] [--metrics-interval SEC]\n"
      "            [--metrics-format jsonl|prom] [--metrics-deterministic]\n"
      "            [--fault-spec SPEC] [--on-unhealthy fail-open|fail-closed]\n"
      "            [--health-occupancy U]\n"
      "  compare   run every registered filter backend side by side\n"
      "            --pcap FILE [--network CIDR] [--pd PROB] [--seed N]\n"
      "            [--bits N --k K --dt SEC --m M]\n"
      "            [--tenants N] [--tenant-mode subscriber|prefix24]\n"
      "            [--tenant-cap N]\n"
      "            [--threads N] [--shards S] [--shard-mode sharded|shared]\n"
      "  attack    evaluate adversarial workloads against the filters\n"
      "            [--scenario collision|saturation|rotation|forgery|all]\n"
      "            [--pcap FILE | --duration SEC --rate CONNS/S\n"
      "             --bandwidth BPS] [--network CIDR] [--seed N]\n"
      "            [--filters NAME[,NAME...] from %s]\n"
      "            [--intensity X]\n"
      "            [--bits N --k K --dt SEC --m M] [--hole-punching]\n"
      "            [--pd PROB] [--bound BPS] [--spi-timeout SEC]\n"
      "            [--saturation-occupancy U] [--mistimed]\n"
      "            [--request-rate R] [--occupancy-interval SEC]\n"
      "            [--tenants N] [--tenant-mode subscriber|prefix24]\n"
      "            [--tenant-cap N]\n"
      "            [--threads N] [--shards S] [--out FILE]\n"
      "  advise    size a bitmap filter for an expected load\n"
      "            [--connections N] [--bits N] [--k K] [--dt SEC]\n"
      "  live      run the filter on live traffic (epoll datapath)\n"
      "            --tap [--tap-port P] | --afpacket IFACE\n"
      "            [--filter %s]\n"
      "            [--network CIDR] [--low BPS --high BPS | --pd PROB]\n"
      "            [--blocklist] [--bits N --k K --dt SEC --m M]\n"
      "            [--tenants N] [--tenant-mode subscriber|prefix24]\n"
      "            [--tenant-cap N]\n"
      "            [--control PATH] [--control-timeout SEC]\n"
      "            [--stamp frame|arrival]\n"
      "            [--duration SEC] [--max-packets N] [--tick-ms MS]\n"
      "            [--batch N] [--out FILE] [--seed N]\n"
      "            [--checkpoint-dir DIR] [--checkpoint-interval SEC]\n"
      "            [--checkpoint-keep N] [--restore-dir DIR]\n"
      "            [--reload-config FILE  (applied on SIGHUP)]\n"
      "            [--capture-retry-limit N] [--fault-spec SPEC]\n"
      "            [--metrics-out FILE] [--metrics-interval SEC]\n"
      "            [--metrics-format jsonl|prom] [--metrics-deterministic]\n"
      "            [--on-unhealthy fail-open|fail-closed]\n"
      "            [--health-occupancy U]\n"
      "  tapsend   send a trace into a live --tap datapath\n"
      "            [--port P] [--host ADDR] [--pcap FILE |\n"
      "             --duration SEC --rate CONNS/S --bandwidth BPS\n"
      "             --seed N --network CIDR]\n"
      "            [--pps RATE] [--burst N]\n",
      filters.c_str(), filters.c_str(), filters.c_str());
}

int run(int argc, const char* const* argv) {
  try {
    const Args args = Args::parse(argc, argv);
    if (args.empty() || args.command() == "help") {
      print_usage();
      return args.empty() ? 2 : 0;
    }
    if (args.command() == "generate") return cmd_generate(args);
    if (args.command() == "analyze") return cmd_analyze(args);
    if (args.command() == "filter") return cmd_filter(args);
    if (args.command() == "compare") return cmd_compare(args);
    if (args.command() == "attack") return cmd_attack(args);
    if (args.command() == "advise") return cmd_advise(args);
    if (args.command() == "live") return cmd_live(args);
    if (args.command() == "tapsend") return cmd_tapsend(args);
    std::fprintf(stderr, "error: unknown command '%s'\n",
                 args.command().c_str());
    print_usage();
    return 2;
  } catch (const ArgError& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}

}  // namespace upbound::cli
