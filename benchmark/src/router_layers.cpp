#include "router_layers.h"

#include "stats.h"

namespace upbound::bench {

namespace {

double ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

double histogram_sum(const MetricsSnapshot& metrics, const char* name) {
  const HistogramSample* h = find_histogram(metrics, name);
  return h == nullptr ? 0.0 : static_cast<double>(h->sum);
}

}  // namespace

void report_router_layers(const MetricsSnapshot& metrics,
                          std::uint64_t packets, RunReport& report) {
  const double n = static_cast<double>(packets);
  report.set("sim.router.ns_per_pkt",
             ratio(histogram_sum(metrics, "latency.batch_ns"), n));
  report.set("sim.router.classify.ns_per_pkt",
             ratio(histogram_sum(metrics, "latency.classify_ns"), n));
  const struct {
    const char* metric;
    const char* histogram;
  } sampled[] = {
      {"sim.router.blocklist.ns_per_pkt", "latency.blocklist_ns"},
      {"sim.router.state.ns_per_pkt", "latency.state_ns"},
      {"sim.router.policy.ns_per_pkt", "latency.policy_ns"},
      {"sim.router.forward.ns_per_pkt", "latency.forward_ns"},
  };
  for (const auto& s : sampled) {
    report.set(s.metric, ratio(histogram_sum(metrics, s.histogram) *
                                   kRouterRunSamplePeriod,
                               n));
  }
  if (const HistogramSample* runs = find_histogram(metrics, "run.packets")) {
    report.set("sim.router.run_len_mean",
               ratio(static_cast<double>(runs->sum),
                     static_cast<double>(runs->count)));
  }
  const auto counter = [&](const char* name) {
    return static_cast<double>(counter_value(metrics, name));
  };
  report.set("sim.router.state_hit_ratio",
             ratio(counter("state.hits"), counter("state.lookups")));
  report.set("sim.router.blocklist_hit_ratio",
             ratio(counter("blocklist.hits"), counter("blocklist.lookups")));
  report.set("sim.router.policy_evaluations", counter("policy.evaluations"));
  report.set("filter.storage_mib",
             gauge_value(metrics, "filter.storage_bytes") / (1024.0 * 1024.0));
}

void report_filter_spans(const SpanTable& spans, RunReport& report) {
  const SpanTotals& mark = span_at(spans, SpanName::kFilterMark);
  const SpanTotals& lookup = span_at(spans, SpanName::kFilterLookup);
  report.set("filter.mark.ns_per_key", mark.self_ns_per_item());
  report.set("filter.lookup.ns_per_key", lookup.self_ns_per_item());
  report.set("filter.keys_per_call",
             ratio(static_cast<double>(mark.items + lookup.items),
                   static_cast<double>(mark.count + lookup.count)));
  report.set("filter.policy.ns_per_decision",
             span_at(spans, SpanName::kPolicy).self_ns_per_item());
}

}  // namespace upbound::bench
