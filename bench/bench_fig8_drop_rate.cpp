// Fig. 8 reproduction: packet drop rate of the SPI filter vs the bitmap
// filter, replaying the same trace through both with "drop all inbound
// packets without states" (P_d = 1). The paper reports per-interval drop
// rates hugging a slope-1 line, with averages 1.56% (SPI) vs 1.51%
// (bitmap) -- the SPI filter drops slightly MORE because it sees exact
// connection closes.
//
// Per the paper's Section 5.3, this first simulation does NOT persist
// blocked connections (that rule is introduced for the Fig. 9 experiment):
// a replayed outbound packet re-creates state, so only the leading inbound
// packets of unsolicited connections are dropped -- which is what keeps
// the paper's rates near 1.5%.
#include <cmath>

#include "bench_common.h"
#include "filter/bitmap_filter.h"
#include "filter/filter_registry.h"
#include "filter/spi_filter.h"
#include "sim/replay.h"
#include "sim/report.h"

using namespace upbound;

namespace {

// Per-interval drop rates (dropped / total packets, 5 s buckets).
std::vector<double> interval_drop_rates(const Trace& trace,
                                        EdgeRouter& router,
                                        Duration bucket) {
  TimeSeries dropped{bucket};
  TimeSeries total{bucket};
  for (const PacketRecord& pkt : trace) {
    const RouterDecision decision = router.process(pkt);
    if (decision == RouterDecision::kIgnored) continue;
    total.add(pkt.timestamp, 1.0);
    if (decision == RouterDecision::kDroppedByPolicy ||
        decision == RouterDecision::kDroppedBlocked) {
      dropped.add(pkt.timestamp, 1.0);
    }
  }
  std::vector<double> rates;
  for (std::size_t i = total.first_bucket(); i < total.bucket_count(); ++i) {
    if (total.bucket_value(i) >= 50.0) {
      rates.push_back(dropped.bucket_value(i) / total.bucket_value(i));
    }
  }
  return rates;
}

}  // namespace

int main() {
  bench::header("Fig. 8 -- SPI vs bitmap filter packet drop rates",
                "per-interval rates on the slope-1 line; averages 1.56% "
                "(SPI) vs 1.51% (bitmap), SPI slightly higher");

  const GeneratedTrace trace =
      generate_campus_trace(bench::eval_trace_config());
  std::printf("trace: %zu packets over %s\n\n", trace.packets.size(),
              trace.span().to_string().c_str());

  EdgeRouterConfig config;
  config.network = trace.network;
  config.track_blocked_connections = false;  // Fig. 8 runs without it

  // SPI filter with the paper's 240 s timeout (Windows' default TIME_WAIT):
  // closed flows linger 240 s rather than vanishing at the FIN.
  SpiFilterConfig spi_config;
  spi_config.idle_timeout = Duration::sec(240.0);
  spi_config.close_linger = Duration::sec(240.0);
  EdgeRouter spi_router{config, make_state_filter(spi_filter_spec(spi_config)),
                        std::make_unique<ConstantDropPolicy>(1.0)};
  // Bitmap filter with the paper's {4 x 2^20}, dt = 5 s, Te = 20 s.
  EdgeRouter bitmap_router{config,
                           make_state_filter(bitmap_filter_spec(BitmapFilterConfig{})),
                           std::make_unique<ConstantDropPolicy>(1.0)};

  const Duration bucket = Duration::sec(5.0);
  const std::vector<double> spi_rates =
      interval_drop_rates(trace.packets, spi_router, bucket);
  const std::vector<double> bitmap_rates =
      interval_drop_rates(trace.packets, bitmap_router, bucket);

  const std::size_t n = std::min(spi_rates.size(), bitmap_rates.size());
  std::printf("per-5s-interval drop rates (the Fig. 8 scatter):\n");
  std::printf("  interval    SPI     bitmap   |SPI-bitmap|\n");
  SummaryStats spi_stats, bitmap_stats, gap_stats;
  double dot = 0.0, spi_sq = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    spi_stats.add(spi_rates[i]);
    bitmap_stats.add(bitmap_rates[i]);
    gap_stats.add(std::abs(spi_rates[i] - bitmap_rates[i]));
    dot += spi_rates[i] * bitmap_rates[i];
    spi_sq += spi_rates[i] * spi_rates[i];
    if (i % std::max<std::size_t>(1, n / 16) == 0) {
      std::printf("  %8zu  %6.2f%%  %6.2f%%   %6.3f%%\n", i,
                  spi_rates[i] * 100.0, bitmap_rates[i] * 100.0,
                  std::abs(spi_rates[i] - bitmap_rates[i]) * 100.0);
    }
  }
  // Least-squares slope through the origin: bitmap = slope * spi.
  const double slope = spi_sq > 0.0 ? dot / spi_sq : 0.0;

  std::printf("\n");
  bench::row("average drop rate, SPI", "1.56% (their trace)",
             report::percent(spi_stats.mean()));
  bench::row("average drop rate, bitmap", "1.51% (their trace)",
             report::percent(bitmap_stats.mean()));
  // The paper's SPI edged out the bitmap by 0.05 pp (it observes exact
  // closes). On this workload the ordering can flip by a similar hair:
  // the bitmap's 20 s timer also cuts long mid-stream idles that the SPI
  // filter's 240 s TIME_WAIT survives. Either way the gap is tiny.
  bench::row("|avg SPI - avg bitmap|", "0.05 pp",
             report::num(std::abs(spi_stats.mean() - bitmap_stats.mean()) *
                             100.0,
                         3) +
                 " pp");
  bench::row("scatter slope (bitmap vs SPI)", "1.0",
             report::num(slope, 3));
  bench::row("mean |per-interval gap|", "small",
             report::percent(gap_stats.mean(), 3));

  // Where the approximation starts to show: a starved bitmap (2^12 bits,
  // false positives admit packets SPI would drop) and an aggressive expiry
  // (Te = 4 s, false negatives drop packets SPI would admit). At the
  // paper's {4 x 2^20} both effects vanish, which is its point.
  std::printf("\nparameter sensitivity (same trace):\n");
  struct Variant {
    const char* name;
    BitmapFilterConfig bitmap;
  };
  BitmapFilterConfig starved;
  starved.log2_bits = 12;
  starved.hash_count = 2;
  BitmapFilterConfig hasty;
  hasty.vector_count = 4;
  hasty.rotate_interval = Duration::sec(1.0);  // Te = 4 s
  const Variant variants[] = {
      {"bitmap {4 x 2^12}, m=2 (starved)", starved},
      {"bitmap {4 x 2^20}, Te=4s (hasty expiry)", hasty},
  };
  for (const Variant& v : variants) {
    EdgeRouter variant_router{config, make_state_filter(bitmap_filter_spec(v.bitmap)),
                              std::make_unique<ConstantDropPolicy>(1.0)};
    const auto rates = interval_drop_rates(trace.packets, variant_router,
                                           bucket);
    SummaryStats stats;
    for (const double r : rates) stats.add(r);
    bench::row(v.name, "diverges from SPI",
               report::percent(stats.mean()) + " avg drop rate");
  }
  return 0;
}
