#include <cstdio>

#include "workload.h"

namespace upbound::bench {

const std::vector<MetricDef>& end_to_end_metrics() {
  static const std::vector<MetricDef> defs{
      {"mpps", "Mpkt/s"},
      {"setup_s", "s"},
      {"peak_rss_mb", "MiB"},
  };
  return defs;
}

const std::vector<MetricDef>& per_layer_metrics() {
  static const std::vector<MetricDef> defs{
      // net/live
      {"live.capture.ns_per_frame", "ns"},
      {"live.capture.frames_per_drain", "count"},
      {"live.batch.packets_mean", "count"},
      {"live.loop.busy_ratio.paced", "fraction"},
      {"live.loop.busy_ratio.saturated", "fraction"},
      {"live.loop.timer_lag_ms.p99", "ms"},
      {"live.loop.timer_lag_ms.max", "ms"},
      {"live.kernel_drops", "count"},
      // Paced-phase latency: host wake-up jitter moved its run-to-run
      // spread past any gateable bound, so it is reported, not gated.
      {"live.lat_p50_us", "us"},
      {"live.lat_p90_us", "us"},
      {"live.lat_p99_us", "us"},
      {"live.lat_p999_us", "us"},
      {"live.gen_late_p99_us", "us"},
      // net
      {"net.decode.ns_per_frame", "ns"},
      {"net.pcap.ns_per_pkt", "ns"},
      // sim
      {"sim.router.ns_per_pkt", "ns"},
      {"sim.router.classify.ns_per_pkt", "ns"},
      {"sim.router.blocklist.ns_per_pkt", "ns"},
      {"sim.router.state.ns_per_pkt", "ns"},
      {"sim.router.policy.ns_per_pkt", "ns"},
      {"sim.router.forward.ns_per_pkt", "ns"},
      {"sim.router.run_len_mean", "count"},
      {"sim.router.state_hit_ratio", "fraction"},
      {"sim.router.blocklist_hit_ratio", "fraction"},
      {"sim.router.policy_evaluations", "count"},
      {"sim.parallel.shard_imbalance", "ratio"},
      {"sim.parallel.router_busy_ratio", "fraction"},
      {"sim.parallel.backpressure_ms", "ms"},
      {"sim.parallel.factory_s", "s"},
      // filter
      {"filter.mark.ns_per_key", "ns"},
      {"filter.lookup.ns_per_key", "ns"},
      {"filter.keys_per_call", "count"},
      {"filter.policy.ns_per_decision", "ns"},
      {"filter.storage_mib", "MiB"},
      // tenant
      {"tenant.front.lookup_ns", "ns"},
      {"tenant.front.mark_ns", "ns"},
      {"tenant.fine.lookup_ns", "ns"},
      {"tenant.fine.mark_ns", "ns"},
      {"tenant.front_absorbed_ratio", "fraction"},
      {"tenant.fine_instantiations", "count"},
      {"tenant.fine_evictions", "count"},
      {"tenant.fine_kib_per_tenant", "KiB"},
      // analyzer
      {"analyzer.process.ns_per_pkt", "ns"},
      {"analyzer.finish_s", "s"},
      {"analyzer.memo_hit_ratio", "fraction"},
      // rex
      {"rex.match.ns_per_call", "ns"},
      {"rex.match.calls", "count"},
      {"rex.match.hit_ratio", "fraction"},
      // util
      {"util.trace_overhead_pct", "%"},
      // Output quality: deterministic for a seed, so measured in the
      // traced run without bias (they can legitimately reach 0, which
      // keeps them out of the gated end-to-end set).
      {"loss_ratio", "fraction"},
      {"neighbour_drop_rate", "fraction"},
      {"classify_accuracy", "fraction"},
  };
  return defs;
}

std::string fmt(double value, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*g", precision, value);
  return buf;
}

ScratchFile::~ScratchFile() { std::remove(path_.c_str()); }

}  // namespace upbound::bench
