// sim-layer and filter-layer numbers shared by the live and replay
// workloads: EdgeRouter's own telemetry (metrics_snapshot) and the spans
// of the filter and policy decorators.
#pragma once

#include <cstdint>

#include "tracing.h"
#include "util/metrics.h"
#include "workload.h"

namespace upbound::bench {

/// EdgeRouter samples its run-level stage timers (blocklist, state,
/// policy, forward) on 1 run in this many; sums are scaled back up.
inline constexpr double kRouterRunSamplePeriod = 32.0;

/// Sets sim.router.* and filter.storage_mib from a (merged) router
/// snapshot covering `packets` packets.
void report_router_layers(const MetricsSnapshot& metrics,
                          std::uint64_t packets, RunReport& report);

/// Sets filter.{mark,lookup}.ns_per_key, filter.keys_per_call and
/// filter.policy.ns_per_decision from the decorators' spans.
void report_filter_spans(const SpanTable& spans, RunReport& report);

}  // namespace upbound::bench
