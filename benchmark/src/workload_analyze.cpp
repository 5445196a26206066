// analyze-campus: the live-campus trace, written to pcap, read back and
// run through TrafficAnalyzer the way `upbound analyze` does. Connection
// tracking and the Table 1 signature matcher (the rex Pike VM) do all the
// work; the router, the filters and the live path are bypassed.
#include <unistd.h>

#include <algorithm>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "analyzer/analyzer.h"
#include "analyzer/patterns.h"
#include "net/pcap.h"
#include "cpus.h"
#include "rss.h"
#include "stats.h"
#include "trace/campus.h"
#include "tracing.h"
#include "workload.h"

namespace upbound::bench {

namespace {

/// The traced run opens one analyzer.process span per this many packets.
constexpr std::size_t kTracedChunk = 1024;
/// Untraced analyses time each segment of this many packets on its own.
constexpr std::size_t kSegment = 16384;
/// Data packets per connection the rex pass feeds PatternSet::match, as
/// the classifier's pattern budget does (paper footnote 1).
constexpr unsigned kPatternPackets = 4;

struct Input {
  std::unique_ptr<ScratchFile> pcap;
  ClientNetwork network;
  std::unordered_map<FiveTuple, AppProtocol, CanonicalTupleHash,
                     CanonicalTupleEq>
      truth;
  std::uint64_t packets = 0;
};

Input make_input(const RunOptions& options) {
  CampusTraceConfig config;
  config.duration = Duration::sec(60.0);
  config.connections_per_sec = 800.0;
  config.bandwidth_bps = 120e6;
  config.seed = options.seed;
  GeneratedTrace trace = generate_campus_trace(config);
  Input in;
  in.pcap = std::make_unique<ScratchFile>(options.work_dir +
                                          "/analyze-campus-" +
                                          std::to_string(::getpid()) + ".pcap");
  {
    PcapWriter writer{in.pcap->path()};
    writer.write_all(trace.packets);
    writer.close();
  }
  in.network = trace.network;
  in.truth = std::move(trace.truth);
  in.packets = trace.packets.size();
  return in;
}

struct Rep {
  bool traced = false;
  double setup_s = 0;
  double analyze_s = 0;  // process + finish
  double rss_mib = 0;
  std::uint64_t packets = 0;
  std::uint64_t skipped = 0;
  std::uint64_t connections = 0;
  std::uint64_t memo_hits = 0;
  double accuracy = 0;
  /// Untraced: time of each kSegment packets, then of finish().
  std::vector<std::uint64_t> segment_ns;
  SpanTable spans{};

  double mpps() const {
    return analyze_s > 0 ? static_cast<double>(packets) / analyze_s / 1e6 : 0;
  }
};

Rep run_rep(const Input& in, bool traced, int cpu) {
  Rep rep;
  rep.traced = traced;
  if (cpu >= 0) pin_current_thread({cpu});
  Tracer::instance().reset();
  PeakRssProbe rss;
  rss.start();

  const std::uint64_t t0 = now_ns();
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
  TrafficAnalyzer analyzer{in.network};
  const std::uint64_t t1 = now_ns();
  rep.setup_s = static_cast<double>(t1 - t0) / 1e9;
  rep.packets = trace.size();

  if (traced) {
    for (std::size_t i = 0; i < trace.size(); i += kTracedChunk) {
      const std::size_t end = std::min(trace.size(), i + kTracedChunk);
      const ScopedSpan span{SpanName::kAnalyzerProcess, end - i};
      for (std::size_t k = i; k < end; ++k) analyzer.process(trace[k]);
    }
  } else {
    std::uint64_t t = t1;
    for (std::size_t i = 0; i < trace.size(); i += kSegment) {
      const std::size_t end = std::min(trace.size(), i + kSegment);
      for (std::size_t k = i; k < end; ++k) analyzer.process(trace[k]);
      const std::uint64_t now = now_ns();
      rep.segment_ns.push_back(now - t);
      t = now;
    }
  }
  AnalyzerReport result;
  const std::uint64_t finish_t0 = now_ns();
  {
    std::optional<ScopedSpan> span;
    if (traced) span.emplace(SpanName::kAnalyzerFinish);
    result = analyzer.finish();
  }
  const std::uint64_t t2 = now_ns();
  if (!traced) rep.segment_ns.push_back(t2 - finish_t0);
  rep.analyze_s = static_cast<double>(t2 - t1) / 1e9;
  rep.rss_mib = rss.peak_growth_mib();
  rep.connections = result.total_connections;
  rep.memo_hits = analyzer.classifier().memo_hits();

  std::uint64_t scored = 0;
  std::uint64_t right = 0;
  analyzer.connections().for_each([&](const ConnectionRecord& rec) {
    const auto it = in.truth.find(rec.tuple);
    if (it == in.truth.end()) return;
    ++scored;
    right += it->second == rec.app ? 1 : 0;
  });
  rep.accuracy = scored == 0 ? 0.0
                             : static_cast<double>(right) /
                                   static_cast<double>(scored);
  if (traced) rep.spans = Tracer::instance().totals();
  return rep;
}

/// The rex layer on its own: PatternSet::match over each connection's
/// first kPatternPackets data packets (UDP datagrams one at a time, TCP
/// streams whose SYN was captured as the growing concatenation), stopping
/// at the first hit -- the matching work the classifier does, timed apart
/// from connection tracking.
struct RexPass {
  std::uint64_t calls = 0;
  std::uint64_t hits = 0;
};

RexPass run_rex_pass(const Trace& trace) {
  struct Conn {
    bool syn = false;
    bool done = false;
    unsigned data_packets = 0;
    std::vector<std::uint8_t> stream;
  };
  const PatternSet patterns;
  std::unordered_map<FiveTuple, Conn, CanonicalTupleHash, CanonicalTupleEq>
      conns;
  RexPass pass;
  for (const PacketRecord& pkt : trace) {
    Conn& c = conns[pkt.tuple];
    if (c.done) continue;
    if (pkt.is_syn_only()) c.syn = true;
    if (pkt.payload.empty() || !pkt.checksum_valid) continue;
    if (pkt.is_tcp() && !c.syn) {
      c.done = true;  // mid-stream capture: the classifier uses ports
      continue;
    }
    std::span<const std::uint8_t> input{pkt.payload};
    if (pkt.is_tcp()) {
      c.stream.insert(c.stream.end(), pkt.payload.begin(), pkt.payload.end());
      input = c.stream;
    }
    bool hit = false;
    {
      const ScopedSpan span{SpanName::kRexMatch};
      hit = patterns.match(input).has_value();
    }
    ++pass.calls;
    pass.hits += hit ? 1 : 0;
    if (hit || ++c.data_packets >= kPatternPackets) {
      c.done = true;
      c.stream = {};
    }
  }
  return pass;
}

/// Throughput of the fastest pass through each segment: every segment's
/// shortest time over the untraced repetitions, summed. Other work on a
/// shared host slows analyses in stretches shorter than a run, so a run
/// often has no whole analysis free of it, but it has each segment free
/// of it in some repetition: across runs this repeats where the best
/// whole analysis does not (see README.md).
double segment_best_mpps(const std::vector<Rep>& reps,
                         std::uint64_t packets) {
  std::vector<std::uint64_t> best;
  for (const Rep& rep : reps) {
    if (rep.traced) continue;
    if (best.empty()) best = rep.segment_ns;
    // Equal unless a capture read came back short, which check_rep fails.
    const std::size_t n = std::min(best.size(), rep.segment_ns.size());
    for (std::size_t i = 0; i < n; ++i) {
      best[i] = std::min(best[i], rep.segment_ns[i]);
    }
  }
  std::uint64_t total = 0;
  for (const std::uint64_t ns : best) total += ns;
  return total == 0 ? 0.0
                    : static_cast<double>(packets) /
                          static_cast<double>(total) * 1e3;
}

void check_rep(const Input& in, const Rep& rep, RunReport& report) {
  const std::string tag = rep.traced ? "traced analysis: " : "analysis: ";
  report.attempted += in.packets;
  report.failed +=
      rep.skipped + (in.packets - std::min(in.packets, rep.packets));
  report.check(rep.skipped == 0 && rep.packets == in.packets,
               tag + "pcap read " + std::to_string(rep.packets) + " of " +
                   std::to_string(in.packets) + " packets");
  report.check(rep.connections == in.truth.size(),
               tag + std::to_string(rep.connections) + " connections, " +
                   std::to_string(in.truth.size()) + " in the ground truth");
}

}  // namespace

RunReport run_analyze_campus(const RunOptions& options) {
  RunReport report;
  const Input in = make_input(options);
  report.note("trace", std::to_string(in.packets) + " packets, " +
                           std::to_string(in.truth.size()) + " connections");

  // One repetition per allowed CPU in turn (see cpus.h).
  const std::vector<int> cpus = allowed_cpus();
  const auto next_cpu = [&](std::size_t k) {
    return cpus.empty() ? -1 : cpus[k % cpus.size()];
  };
  std::vector<Rep> reps;
  const std::uint64_t begin = now_ns();
  if (!options.trace) {
    while (reps.empty() ||
           static_cast<double>(now_ns() - begin) / 1e9 < options.seconds) {
      reps.push_back(run_rep(in, false, next_cpu(reps.size())));
      check_rep(in, reps.back(), report);
    }
  } else {
    // Untraced and traced analyses alternate, each pair on one CPU; the
    // overhead compares medians.
    std::vector<double> untraced_mpps, traced_mpps;
    for (int i = 0; i < 6; ++i) {
      reps.push_back(run_rep(in, i % 2 == 1, next_cpu(reps.size() / 2)));
      check_rep(in, reps.back(), report);
      (i % 2 == 1 ? traced_mpps : untraced_mpps).push_back(reps.back().mpps());
    }
    const Rep& base = reps[0];
    const Rep& traced = reps.back();
    const SpanTable& s = traced.spans;
    report.set("net.pcap.ns_per_pkt",
               span_at(s, SpanName::kPcapRead).self_ns_per_item());
    report.set("analyzer.process.ns_per_pkt",
               span_at(s, SpanName::kAnalyzerProcess).self_ns_per_item());
    report.set("analyzer.finish_s",
               static_cast<double>(
                   span_at(s, SpanName::kAnalyzerFinish).total_ns) /
                   1e9);
    report.set("analyzer.memo_hit_ratio",
               base.connections == 0
                   ? 0.0
                   : static_cast<double>(base.memo_hits) /
                         static_cast<double>(base.connections));

    // The rex pass reads the capture again; its spans are the only ones
    // open while it runs.
    Tracer::instance().reset();
    Trace trace = PcapReader{in.pcap->path()}.read_all();
    const RexPass rex = run_rex_pass(trace);
    const SpanTotals match =
        span_at(Tracer::instance().totals(), SpanName::kRexMatch);
    report.set("rex.match.ns_per_call", match.self_ns_per_item());
    report.set("rex.match.calls", static_cast<double>(rex.calls));
    report.set("rex.match.hit_ratio",
               rex.calls == 0 ? 0.0
                              : static_cast<double>(rex.hits) /
                                    static_cast<double>(rex.calls));
    report.note("rex.match total s",
                fmt(static_cast<double>(match.total_ns) / 1e9));
    const double with = median(traced_mpps);
    const double without = median(untraced_mpps);
    report.set("util.trace_overhead_pct",
               with > 0 ? (without / with - 1.0) * 100.0 : 0.0);
    report.set("classify_accuracy", base.accuracy);
    report.set("loss_ratio", report.loss_ratio());
    report.note("mpps traced / untraced (medians)",
                fmt(with) + " / " + fmt(without));
  }

  std::vector<double> mpps, setup, rss;
  for (const Rep& rep : reps) {
    setup.push_back(rep.setup_s);
    rss.push_back(rep.rss_mib);
    if (!rep.traced) mpps.push_back(rep.mpps());
  }
  report.note("analyses", std::to_string(reps.size()));
  const double segment_best = segment_best_mpps(reps, in.packets);
  report.note("untraced mpps median / best / segment-best",
              fmt(median(mpps)) + " / " + fmt(best_high(mpps)) + " / " +
                  fmt(segment_best) + " Mpkt/s");
  report.note("loss_ratio", fmt(report.loss_ratio()) + " fraction");
  report.note("classify_accuracy", fmt(reps[0].accuracy, 6) + " fraction");
  if (!options.trace) {
    report.set("mpps", segment_best);
    report.set("setup_s", median(setup));
    report.set("peak_rss_mb", median(rss));
  }
  return report;
}

}  // namespace upbound::bench
