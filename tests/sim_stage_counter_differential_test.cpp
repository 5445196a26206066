// Differential stage-counter regression: 256-packet batches and
// batches of one must produce bit-identical stats AND bit-identical
// per-stage counters for every filter implementation, with blocklisting
// enabled so the blocklist/state stage interleaving is exercised. This
// pins state.lookups to the packets that reach the state stage: the
// speculative batched lookup of a pure filter also runs for
// blocklist-dropped packets, and must not be counted for them.
#include <gtest/gtest.h>

#include <array>

#include "filter/aging_bloom.h"
#include "filter/bitmap_filter.h"
#include "filter/concurrent_bitmap.h"
#include "filter/filter_registry.h"
#include "filter/naive_filter.h"
#include "filter/spi_filter.h"
#include "sim/edge_router.h"
#include "trace/campus.h"

namespace upbound {
namespace {

const GeneratedTrace& shared_trace() {
  static const GeneratedTrace trace = [] {
    CampusTraceConfig config;
    config.duration = Duration::sec(25.0);
    config.connections_per_sec = 50.0;
    config.bandwidth_bps = 6e6;
    config.seed = 12;
    return generate_campus_trace(config);
  }();
  return trace;
}

std::unique_ptr<StateFilter> make_filter(const std::string& kind) {
  if (kind == "bitmap") {
    return make_state_filter(bitmap_filter_spec(BitmapFilterConfig{}));
  }
  if (kind == "bitmap-mt") {
    return make_state_filter(concurrent_bitmap_filter_spec(BitmapFilterConfig{}));
  }
  if (kind == "aging") {
    return make_state_filter(aging_filter_spec(AgingBloomConfig{}));
  }
  if (kind == "naive") {
    return make_state_filter(naive_filter_spec(NaiveFilterConfig{}));
  }
  return make_state_filter(spi_filter_spec(SpiFilterConfig{}));
}

EdgeRouter make_router(const std::string& kind) {
  EdgeRouterConfig config;
  config.network = shared_trace().network;
  // Blocklisting on, with an aggressive policy so the blocklist actually
  // populates and inbound packets hit the blocked-drop branch.
  config.track_blocked_connections = true;
  return EdgeRouter{config, make_filter(kind),
                    std::make_unique<RedDropPolicy>(5e5, 2e6)};
}

EdgeRouterStats run(const std::string& kind, std::size_t batch_size) {
  EdgeRouter router = make_router(kind);
  const Trace& trace = shared_trace().packets;
  std::array<RouterDecision, 256> decisions;
  for (std::size_t start = 0; start < trace.size(); start += batch_size) {
    const std::size_t n = std::min(batch_size, trace.size() - start);
    router.process_batch(PacketBatch{trace.data() + start, n},
                         std::span<RouterDecision>{decisions.data(), n});
  }
  return router.stats();
}

std::uint64_t counter_value(const CounterSnapshot& counters,
                            std::string_view name) {
  for (const CounterSample& sample : counters) {
    if (sample.name == name) return sample.value;
  }
  ADD_FAILURE() << "missing counter " << name;
  return 0;
}

class StageCounterDifferential
    : public ::testing::TestWithParam<const char*> {};

TEST_P(StageCounterDifferential, BatchAndScalarCountersAgreeExactly) {
  const std::string kind = GetParam();
  const EdgeRouterStats batched = run(kind, 256);
  const EdgeRouterStats scalar = run(kind, 1);

  // Blocklisting must actually fire or the regression is untested.
  ASSERT_GT(batched.blocked_drops, 0u) << kind;

  // Full stats equality covers the per-stage counter snapshot too
  // (EdgeRouterStats::operator== is defaulted over all members).
  EXPECT_EQ(batched, scalar) << kind;
}

TEST_P(StageCounterDifferential, LookupsEqualHitsPlusMisses) {
  const std::string kind = GetParam();
  for (const std::size_t batch_size : {std::size_t{1}, std::size_t{256}}) {
    const EdgeRouterStats stats = run(kind, batch_size);
    const std::uint64_t lookups =
        counter_value(stats.stage_counters, "state.lookups");
    const std::uint64_t hits =
        counter_value(stats.stage_counters, "state.hits");
    const std::uint64_t misses =
        counter_value(stats.stage_counters, "state.misses");
    EXPECT_EQ(lookups, hits + misses)
        << kind << " batch=" << batch_size;
    EXPECT_GT(lookups, 0u) << kind;
  }
}

INSTANTIATE_TEST_SUITE_P(AllFilters, StageCounterDifferential,
                         ::testing::Values("bitmap", "bitmap-mt", "aging",
                                           "naive", "spi"),
                         [](const auto& info) {
                           std::string name = info.param;
                           for (char& c : name) {
                             if (c == '-') c = '_';
                           }
                           return name;
                         });

}  // namespace
}  // namespace upbound
