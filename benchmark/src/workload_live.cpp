// live-campus: the deployed path. The Table 2 campus mix crosses the host
// loopback as fixed 16-record UDP tap datagrams into a UdpTapSource
// (kFromFrames) feeding LiveDatapath, configured like
//   upbound live --tap --stamp frame --blocklist --low 50e6 --high 100e6
// with a VirtualClock so the router runs on the trace's own timeline.
//
// Two phases, each on a fresh datapath:
//   paced      open loop: packet i is due at t0 + i / kPacedRate; latency
//              is verdict time minus the due time of its datagram.
//   saturated  closed loop: the sender keeps at most kCreditWindow packets
//              in flight; mpps is processed packets per wall second.
// A sender that writes an eventfd registered on the loop ends each phase
// (LiveDatapath's own drain loop never yields while a sender outpaces it,
// so its max_packets / run_duration stops cannot bound a phase).
#include <sys/eventfd.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <ctime>
#include <memory>
#include <stdexcept>
#include <thread>
#include <vector>

#include "cpus.h"
#include "decorators.h"
#include "filter/drop_policy.h"
#include "filter/filter_registry.h"
#include "net/headers.h"
#include "net/live/event_loop.h"
#include "net/live/live_datapath.h"
#include "net/live/udp_tap.h"
#include "router_layers.h"
#include "rss.h"
#include "sim/replay.h"
#include "stats.h"
#include "trace/campus.h"
#include "tracing.h"
#include "util/clock.h"
#include "verdict_matcher.h"
#include "workload.h"

namespace upbound::bench {

namespace {

using live::EventLoop;
using live::LiveConfig;
using live::LiveDatapath;
using live::UdpTapSender;
using live::UdpTapSource;

constexpr std::size_t kRecordsPerDatagram = 16;
/// Offered rate of the paced phase: the loop is about a third busy.
constexpr double kPacedRate = 300e3;
/// Packets in flight in the saturated phase: deep enough to keep the loop
/// busy, far below what the socket buffer holds.
constexpr std::uint64_t kCreditWindow = 4096;
constexpr double kPolicyLow = 50e6;
constexpr double kPolicyHigh = 100e6;
/// Open-loop honesty: a paced phase whose sender ran later than this
/// behind its schedule at p99 measured the generator, not the datapath.
constexpr double kMaxGenLateP99Us = 20.0;
/// A saturated phase only measures the datapath when its loop was busy.
constexpr double kMinSaturatedBusy = 0.95;
/// Invalid phases (generator late, loop idle, kernel drops) are rerun.
constexpr int kMaxAttempts = 4;
constexpr Duration kLagTimerPeriod = Duration::msec(10);

void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#endif
}

std::uint64_t thread_cpu_ns() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1'000'000'000ULL +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

/// Where a phase runs: the loop and the sender each pinned to its own CPU
/// (unpinned, p99 latency swung by 3x between identical runs), rotating
/// over the allowed CPUs from phase to phase (see cpus.h). Unpinned when
/// fewer than two CPUs are allowed.
struct Placement {
  std::vector<int> cpus;
  std::size_t next = 0;

  /// {loop cpu, sender cpu} for the next phase, or empty.
  std::vector<int> take() {
    if (cpus.size() < 2) return {};
    const std::vector<int> order = rotated(cpus, next++);
    return {order[0], order[1]};
  }
};

/// One tap record ([u64 LE usec timestamp][u16 LE length][frame], the
/// udp_tap.h format) carrying the frame as a snaplen capture would: headers
/// plus the payload prefix the trace keeps. append_tap_record would carry
/// encode_frame's zero fill up to payload_size (about 850 MB for this
/// trace); the decoder recovers payload_size from the IP header either way.
void append_snap_record(const PacketRecord& pkt,
                        std::vector<std::uint8_t>& out) {
  const std::vector<std::uint8_t> frame = encode_frame(pkt);
  const std::size_t len =
      frame.size() - (pkt.payload_size - pkt.payload.size());
  const auto ts = static_cast<std::uint64_t>(pkt.timestamp.usec());
  for (int i = 0; i < 8; ++i) {
    out.push_back(static_cast<std::uint8_t>(ts >> (8 * i)));
  }
  out.push_back(static_cast<std::uint8_t>(len));
  out.push_back(static_cast<std::uint8_t>(len >> 8));
  out.insert(out.end(), frame.begin(),
             frame.begin() + static_cast<std::ptrdiff_t>(len));
}

struct Input {
  GeneratedTrace trace;
  std::vector<std::vector<std::uint8_t>> datagrams;
  EdgeRouterConfig router;
  FilterSpec spec;
  ReplayResult reference{Duration::sec(1.0)};
  std::string reference_report;
};

Input make_input(std::uint64_t seed) {
  Input in;
  CampusTraceConfig config;
  config.duration = Duration::sec(60.0);
  config.connections_per_sec = 800.0;
  config.bandwidth_bps = 120e6;
  config.seed = seed;
  in.trace = generate_campus_trace(config);

  const Trace& packets = in.trace.packets;
  in.datagrams.reserve(packets.size() / kRecordsPerDatagram + 1);
  for (std::size_t i = 0; i < packets.size(); i += kRecordsPerDatagram) {
    std::vector<std::uint8_t> dgram;
    const std::size_t end = std::min(packets.size(), i + kRecordsPerDatagram);
    for (std::size_t k = i; k < end; ++k) append_snap_record(packets[k], dgram);
    in.datagrams.push_back(std::move(dgram));
  }

  in.router.network = in.trace.network;
  in.router.track_blocked_connections = true;
  in.router.seed = 7;
  in.spec = FilterRegistry::instance().parse("bitmap-blocked", MapFilterArgs{});

  // The offline reference every loss-free live phase must reproduce.
  EdgeRouter router{in.router, make_state_filter(in.spec),
                    std::make_unique<RedDropPolicy>(kPolicyLow, kPolicyHigh)};
  in.reference = replay_trace(packets, router, in.router.network);
  in.reference_report =
      live::conformance_report(in.reference, packets.back().timestamp);
  return in;
}

struct Phase {
  bool paced = false;
  bool traced = false;
  double setup_s = 0;
  double wall_s = 0;       // first send .. loop stopped
  double busy = 0;         // loop-thread CPU time / loop wall time
  double rss_mib = 0;
  int loop_cpu = -1;
  std::uint64_t sent = 0;  // packets
  std::uint64_t lost = 0;  // sent, but neither processed nor undecodable
  std::uint64_t kernel_drops = 0;  // datagrams, as the source reports them
  bool timed_out = false;  // stopped before every frame was accounted for
  live::LiveStats stats;
  ReplayResult result{Duration::sec(1.0)};
  std::string report;
  std::vector<double> lat_us;        // paced: one per matched verdict
  double gen_late_p99_us = 0;        // paced
  std::vector<double> timer_lag_ms;  // benchmark timer on the same loop
  SpanTable spans{};                 // traced phases

  double mpps() const {
    return wall_s > 0 ? static_cast<double>(stats.packets) / wall_s / 1e6 : 0;
  }
  bool valid() const {
    if (timed_out || kernel_drops != 0) return false;
    return paced ? gen_late_p99_us <= kMaxGenLateP99Us
                 : busy >= kMinSaturatedBusy;
  }
};

/// Buffers the benchmark owns during a phase, allocated and touched before
/// the RSS baseline so they never count as the datapath's memory.
struct Scratch {
  std::vector<double> lat_us;   // per trace packet; < 0 = no verdict
  std::vector<double> late_us;  // per datagram
  std::vector<double> lag_ms;
};

Phase run_phase(const Input& in, bool paced, bool traced,
                const std::vector<int>& cpus, Scratch& scratch) {
  const Trace& trace = in.trace.packets;
  const std::size_t n_dgrams = in.datagrams.size();
  Phase phase;
  phase.paced = paced;
  phase.traced = traced;
  if (paced) {
    scratch.lat_us.assign(trace.size(), -1.0);
    scratch.late_us.assign(n_dgrams, 0.0);
  }
  scratch.lag_ms.clear();
  scratch.lag_ms.reserve(100'000);
  Tracer::instance().reset();
  if (!cpus.empty()) {
    pin_current_thread({cpus[0]});
    phase.loop_cpu = cpus[0];
  }

  PeakRssProbe rss;
  rss.start();

  // --- set-up: everything before the first timed packet ---
  const std::uint64_t setup_t0 = now_ns();
  VirtualClock clock;
  EventLoop loop;
  UdpTapSource::Config tap;
  tap.port = 0;
  tap.timestamp_mode = live::TapTimestampMode::kFromFrames;
  auto tap_source = std::make_unique<UdpTapSource>(tap);
  const std::uint16_t port = tap_source->local_port();
  std::unique_ptr<live::CaptureSource> source = std::move(tap_source);
  TracedBackends backends;
  FilterSpec spec = in.spec;
  if (traced) {
    source = std::make_unique<TracedCapture>(std::move(source));
    spec = backends.wrap(spec,
                         {SpanName::kFilterMark, SpanName::kFilterLookup});
  }
  LiveConfig config;
  config.router = in.router;
  config.policy_red = true;
  config.policy_low = kPolicyLow;
  config.policy_high = kPolicyHigh;
  config.clock = &clock;
  auto datapath =
      std::make_unique<LiveDatapath>(config, spec, std::move(source), loop);
  if (traced) {
    datapath->router().set_drop_policy(std::make_unique<TracedPolicy>(
        std::make_unique<RedDropPolicy>(kPolicyLow, kPolicyHigh)));
  }
  phase.setup_s = static_cast<double>(now_ns() - setup_t0) / 1e9;

  // --- benchmark plumbing on the datapath's loop ---
  const double per_dgram_ns =
      1e9 * static_cast<double>(kRecordsPerDatagram) / kPacedRate;
  std::uint64_t t0 = 0;  // paced schedule origin
  VerdictMatcher matcher{trace};
  std::atomic<std::uint64_t> processed{0};
  std::uint64_t verdicts = 0;
  if (paced) {
    datapath->set_verdict_sink([&](const PacketRecord& pkt, RouterDecision) {
      const std::uint64_t t = now_ns();
      const std::size_t idx = matcher.match(pkt);
      if (idx == VerdictMatcher::kNoMatch) return;
      const double due =
          static_cast<double>(t0) +
          static_cast<double>(idx / kRecordsPerDatagram) * per_dgram_ns;
      scratch.lat_us[idx] = (static_cast<double>(t) - due) / 1e3;
    });
  } else {
    datapath->set_verdict_sink([&](const PacketRecord&, RouterDecision) {
      if ((++verdicts & 63) == 0) {
        processed.store(verdicts, std::memory_order_release);
      }
    });
  }

  const std::uint64_t total_frames = trace.size();
  std::uint64_t stop_deadline = 0;
  const int done_fd = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
  if (done_fd < 0) throw std::runtime_error("eventfd failed");
  loop.add_fd(
      done_fd,
      [&] {
        // The sender is done. Stop once every frame it sent has arrived or
        // been reported lost. The source learns of kernel drops only with
        // the next datagram it reads, so drops among the last datagrams are
        // never reported; the deadline ends such a phase as timed out.
        live::CaptureSource& src = datapath->source();
        const std::uint64_t accounted =
            src.frames_received() + src.frames_lost() * kRecordsPerDatagram;
        const std::uint64_t now = now_ns();
        if (stop_deadline == 0) stop_deadline = now + 1'000'000'000ULL;
        if (accounted >= total_frames || now >= stop_deadline) {
          phase.timed_out = accounted < total_frames;
          std::uint64_t value = 0;
          [[maybe_unused]] const ssize_t got =
              ::read(done_fd, &value, sizeof(value));
          datapath->drain_and_stop();
        }
      },
      /*owns_fd=*/true);

  std::uint64_t lag_start = 0;
  std::uint64_t lag_expirations = 0;
  const auto period_ns = static_cast<std::uint64_t>(
      kLagTimerPeriod.count_usec() * 1000);
  lag_start = now_ns();
  loop.add_timer(kLagTimerPeriod, [&](std::uint64_t expirations) {
    const std::uint64_t now = now_ns();
    const std::uint64_t due = lag_start + (lag_expirations + 1) * period_ns;
    scratch.lag_ms.push_back(
        now > due ? static_cast<double>(now - due) / 1e6 : 0.0);
    lag_expirations += expirations;
  });

  // --- the phase ---
  std::uint64_t send_start = 0;
  std::exception_ptr sender_error;
  std::atomic<bool> abort{false};  // the loop failed: stop sending
  const auto sender_body = [&] {
    try {
      if (!cpus.empty()) pin_current_thread({cpus[1]});
      UdpTapSender sender{port};
      if (paced) {
        for (std::size_t j = 0; j < n_dgrams && !abort.load(); ++j) {
          const double due =
              static_cast<double>(t0) + static_cast<double>(j) * per_dgram_ns;
          std::uint64_t now = now_ns();
          while (static_cast<double>(now) < due) {
            cpu_relax();
            now = now_ns();
          }
          scratch.late_us[j] = (static_cast<double>(now) - due) / 1e3;
          sender.send_datagram(in.datagrams[j]);
        }
      } else {
        send_start = now_ns();
        std::uint64_t sent = 0;
        std::size_t j = 0;
        while (j < n_dgrams && !abort.load(std::memory_order_relaxed)) {
          const std::uint64_t done = processed.load(std::memory_order_acquire);
          std::size_t burst = 0;
          while (j + burst < n_dgrams && burst < 16 &&
                 sent + (burst + 1) * kRecordsPerDatagram <=
                     done + kCreditWindow) {
            ++burst;
          }
          if (burst == 0) {
            cpu_relax();
            continue;
          }
          sender.send_burst(std::span<const std::vector<std::uint8_t>>{
              in.datagrams.data() + j, burst});
          j += burst;
          sent += burst * kRecordsPerDatagram;
        }
      }
    } catch (...) {
      sender_error = std::current_exception();
    }
    const std::uint64_t one = 1;
    [[maybe_unused]] const ssize_t wrote = ::write(done_fd, &one, sizeof(one));
  };

  t0 = now_ns() + 2'000'000;  // 2 ms for the sender thread to start
  const std::uint64_t loop_t0 = now_ns();
  const std::uint64_t cpu_t0 = thread_cpu_ns();
  {
    std::jthread sender{sender_body};
    try {
      loop.run();
    } catch (...) {
      abort.store(true);  // the jthread joins on the way out
      throw;
    }
  }
  const std::uint64_t cpu_t1 = thread_cpu_ns();
  const std::uint64_t loop_t1 = now_ns();
  if (sender_error) std::rethrow_exception(sender_error);

  const std::uint64_t start = paced ? t0 : send_start;
  phase.wall_s = static_cast<double>(loop_t1 - std::min(start, loop_t1)) / 1e9;
  phase.busy = static_cast<double>(cpu_t1 - cpu_t0) /
               static_cast<double>(loop_t1 - loop_t0);
  phase.stats = datapath->stats();
  phase.result = datapath->result();
  phase.report = live::conformance_report(phase.result, trace.back().timestamp);
  phase.sent = total_frames;
  phase.kernel_drops = phase.stats.frames_lost;
  phase.lost = phase.sent - std::min(phase.sent, phase.stats.packets +
                                                     phase.stats.decode_errors);
  phase.rss_mib = rss.peak_growth_mib();
  datapath.reset();

  if (paced) {
    for (const double lat : scratch.lat_us) {
      if (lat >= 0.0) phase.lat_us.push_back(lat);
    }
    std::vector<double> late = scratch.late_us;
    phase.gen_late_p99_us = percentile(late, 99.0);
  }
  phase.timer_lag_ms = scratch.lag_ms;
  if (traced) phase.spans = Tracer::instance().totals();
  return phase;
}

/// Runs a phase until it is valid or kMaxAttempts is reached; every
/// attempt's packets count as attempted and lost ones as failed.
Phase run_valid_phase(const Input& in, bool paced, bool traced,
                      Placement& placement, Scratch& scratch,
                      RunReport& report) {
  for (int attempt = 1;; ++attempt) {
    Phase phase = run_phase(in, paced, traced, placement.take(), scratch);
    report.attempted += phase.sent;
    report.failed += phase.sent - std::min(phase.sent, phase.stats.packets);

    // Conservation: every packet sent was processed, failed to decode, or
    // rode in a datagram the kernel reported dropped. Datagrams hold
    // kRecordsPerDatagram records except the last, which holds `tail`.
    // A timed-out phase has drops the source never reported; it is invalid
    // and rerun instead.
    const std::uint64_t d = phase.kernel_drops;
    const std::uint64_t tail = phase.sent % kRecordsPerDatagram;
    const bool conserved =
        phase.stats.malformed == 0 &&
        (phase.lost == d * kRecordsPerDatagram ||
         (tail != 0 && d > 0 &&
          phase.lost == (d - 1) * kRecordsPerDatagram + tail));
    report.check(phase.timed_out || conserved,
                 std::string{paced ? "paced" : "saturated"} +
                     " phase: sent " + std::to_string(phase.sent) +
                     " != processed " + std::to_string(phase.stats.packets) +
                     " + decode errors " +
                     std::to_string(phase.stats.decode_errors) +
                     " + records in " + std::to_string(d) +
                     " dropped datagrams (malformed " +
                     std::to_string(phase.stats.malformed) + ")");
    if (phase.lost == 0 && phase.stats.decode_errors == 0) {
      report.check(phase.result.stats == in.reference.stats,
                   "live router stats differ from offline replay_trace");
      report.check(phase.report == in.reference_report,
                   "live conformance report differs from offline replay");
    }
    if (phase.valid() || attempt == kMaxAttempts) {
      report.check(phase.valid(),
                   std::string{paced ? "paced" : "saturated"} +
                       " phase invalid after " + std::to_string(attempt) +
                       " attempts (generator late p99 " +
                       fmt(phase.gen_late_p99_us) + " us, loop busy " +
                       fmt(phase.busy) + ", kernel drops " +
                       std::to_string(phase.kernel_drops) +
                       (phase.timed_out ? ", timed out" : "") + ")");
      return phase;
    }
  }
}

double lag_percentile(const std::vector<Phase>& phases, double pct) {
  std::vector<double> all;
  for (const Phase& p : phases) {
    all.insert(all.end(), p.timer_lag_ms.begin(), p.timer_lag_ms.end());
  }
  return percentile(all, pct);
}

}  // namespace

RunReport run_live_campus(const RunOptions& options) {
  RunReport report;
  const Input in = make_input(options.seed);
  Placement placement{allowed_cpus()};
  Scratch scratch;
  report.note("trace", std::to_string(in.trace.packets.size()) +
                           " packets, " + std::to_string(in.datagrams.size()) +
                           " datagrams, " +
                           std::to_string(in.trace.connection_count) +
                           " connections");

  std::vector<Phase> phases;
  const std::uint64_t begin = now_ns();
  const auto elapsed_s = [&] {
    return static_cast<double>(now_ns() - begin) / 1e9;
  };
  if (!options.trace) {
    // One paced phase (latency, printed) and then saturated phases until
    // the budget is spent; mpps is the best of them (see best_high).
    for (int i = 0; phases.size() < 2 || elapsed_s() < options.seconds; ++i) {
      phases.push_back(
          run_valid_phase(in, i == 0, false, placement, scratch, report));
    }
  } else {
    // Each untraced phase is followed by the same phase traced on the same
    // CPUs, so the overhead compares neighbours: a paced pair, then three
    // saturated pairs.
    for (int pair = 0; pair < 4; ++pair) {
      const std::size_t at = placement.next;
      for (const bool traced : {false, true}) {
        placement.next = at;
        phases.push_back(run_valid_phase(in, pair == 0, traced, placement,
                                         scratch, report));
      }
    }
  }

  std::vector<double> p50, p90, p99, p999, mpps, traced_mpps, setup, rss, late;
  int best_cpu = -1;
  for (const Phase& p : phases) {
    setup.push_back(p.setup_s);
    rss.push_back(p.rss_mib);
    if (p.traced) {
      if (!p.paced) traced_mpps.push_back(p.mpps());
      continue;
    }
    if (p.paced) {
      std::vector<double> lat = p.lat_us;
      p50.push_back(percentile(lat, 50.0));
      p90.push_back(percentile(lat, 90.0));
      p99.push_back(percentile(lat, 99.0));
      p999.push_back(percentile(lat, 99.9));
      late.push_back(p.gen_late_p99_us);
    } else {
      if (mpps.empty() || p.mpps() > best_high(mpps)) best_cpu = p.loop_cpu;
      mpps.push_back(p.mpps());
    }
  }
  const double untraced_mpps = median(mpps);
  report.note("phases", std::to_string(phases.size()) + " (" +
                            std::to_string(p50.size()) + " paced at " +
                            fmt(kPacedRate / 1e3) + " kpkt/s, " +
                            std::to_string(mpps.size()) +
                            " saturated untraced)");
  report.note("saturated mpps median / best",
              fmt(untraced_mpps) + " / " + fmt(best_high(mpps)) +
                  " Mpkt/s (loop on cpu " + std::to_string(best_cpu) + ")");
  report.note("lat_p50_us", fmt(median(p50)) + " us");
  report.note("lat_p90_us", fmt(median(p90)) + " us");
  report.note("paced latency p99 / p99.9",
              fmt(median(p99)) + " / " + fmt(median(p999)) + " us");
  report.note("gen_late_p99_us", fmt(median(late)) + " us");
  report.note("loss_ratio", fmt(report.loss_ratio()) + " fraction");

  if (!options.trace) {
    report.set("mpps", best_high(mpps));
    report.set("setup_s", median(setup));
    report.set("peak_rss_mb", median(rss));
    return report;
  }

  const Phase& paced = phases[0];
  const Phase& saturated = phases[2];
  const SpanTable& spans = phases.back().spans;  // traced saturated phase
  const SpanTotals& capture = span_at(spans, SpanName::kCapture);
  report.set("live.capture.ns_per_frame", capture.self_ns_per_item());
  report.set("live.capture.frames_per_drain", capture.items_per_call());
  report.set("net.decode.ns_per_frame",
             span_at(spans, SpanName::kDecode).self_ns_per_item());
  report_filter_spans(spans, report);
  report.set("live.batch.packets_mean",
             saturated.stats.batches == 0
                 ? 0.0
                 : static_cast<double>(saturated.stats.packets) /
                       static_cast<double>(saturated.stats.batches));
  report.set("live.loop.busy_ratio.paced", paced.busy);
  report.set("live.loop.busy_ratio.saturated", saturated.busy);
  report.set("live.loop.timer_lag_ms.p99", lag_percentile(phases, 99.0));
  report.set("live.loop.timer_lag_ms.max", lag_percentile(phases, 100.0));
  std::uint64_t drops = 0;
  for (const Phase& p : phases) drops += p.kernel_drops;
  report.set("live.kernel_drops", static_cast<double>(drops));
  report.set("live.lat_p50_us", median(p50));
  report.set("live.lat_p90_us", median(p90));
  report.set("live.lat_p99_us", median(p99));
  report.set("live.lat_p999_us", median(p999));
  report.set("live.gen_late_p99_us", median(late));
  report_router_layers(saturated.result.metrics, saturated.stats.packets,
                       report);
  const double with = median(traced_mpps);
  report.set("util.trace_overhead_pct",
             with > 0 ? (untraced_mpps / with - 1.0) * 100.0 : 0.0);
  report.set("loss_ratio", report.loss_ratio());
  report.note("live.batch.packets_mean (paced)",
              fmt(paced.stats.batches == 0
                      ? 0.0
                      : static_cast<double>(paced.stats.packets) /
                            static_cast<double>(paced.stats.batches)));
  report.note("mpps traced / untraced (medians)",
              fmt(with) + " / " + fmt(untraced_mpps));
  return report;
}

}  // namespace upbound::bench
