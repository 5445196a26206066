// Span recording for the traced run. Spans are opened and closed only in
// the benchmark's own files, at the public seams of each layer (see
// decorators.h); the library under test carries no tracing of its own.
//
// Every span has a name, a start, an end and a parent (the span open on
// the same thread when it began). Live runs produce millions of spans, so
// they are aggregated in memory per name as count, total time and self
// time (the span minus the time covered by its children), plus a bounded
// sample of raw spans: every kSampleEvery-th top-level span is kept with
// all of its descendants, up to kMaxRawSpans per thread. write_json()
// dumps both when the run ends.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace upbound::bench {

enum class SpanName : std::uint8_t {
  kCapture,        // live.capture: CaptureSource::drain
  kDecode,         // net.decode: the FrameSink (decode + copy into batch)
  kFilterMark,     // filter.mark: StateFilter::record_outbound[_batch]
  kFilterLookup,   // filter.lookup: StateFilter::admits_inbound[_batch]
  kPolicy,         // filter.policy: DropPolicy::drop_probability
  kFrontMark,      // tenant.front.mark
  kFrontLookup,    // tenant.front.lookup
  kFineMark,       // tenant.fine.mark
  kFineLookup,     // tenant.fine.lookup
  kPcapRead,       // net.pcap: PcapReader::read_all
  kFactory,        // sim.parallel.factory: ShardRouterFactory
  kAnalyzerProcess,  // analyzer.process: TrafficAnalyzer::process
  kAnalyzerFinish,   // analyzer.finish: TrafficAnalyzer::finish
  kRexMatch,       // rex.match: PatternSet::match
  kCount,
};

inline constexpr std::size_t kSpanNames =
    static_cast<std::size_t>(SpanName::kCount);

const char* span_name(SpanName name);

/// Aggregate of every closed span with one name. `items` counts the work
/// units the spans covered (frames, keys, packets), so per-item costs are
/// total_ns / items even when one call handles a whole batch.
struct SpanTotals {
  std::uint64_t count = 0;
  std::uint64_t items = 0;
  std::uint64_t total_ns = 0;
  std::uint64_t self_ns = 0;

  double self_ns_per_item() const {
    return items == 0 ? 0.0
                      : static_cast<double>(self_ns) /
                            static_cast<double>(items);
  }
  double items_per_call() const {
    return count == 0 ? 0.0
                      : static_cast<double>(items) /
                            static_cast<double>(count);
  }
};

using SpanTable = std::array<SpanTotals, kSpanNames>;

inline const SpanTotals& span_at(const SpanTable& table, SpanName name) {
  return table[static_cast<std::size_t>(name)];
}

struct RawSpan {
  SpanName name = SpanName::kCount;
  std::uint32_t thread = 0;
  std::uint64_t id = 0;      // unique per thread, starts at 1
  std::uint64_t parent = 0;  // id of the enclosing span, 0 at top level
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
};

/// steady_clock in nanoseconds.
std::uint64_t now_ns();

/// Process-wide span recorder. Threads register lazily on their first
/// span; their state outlives them so totals can be read after joins.
class Tracer {
 public:
  static constexpr std::uint64_t kSampleEvery = 4096;
  static constexpr std::size_t kMaxRawSpans = 16384;

  static Tracer& instance();

  void begin(SpanName name);
  /// Closes the innermost span, which must be `name` (aborts otherwise).
  void end(SpanName name, std::uint64_t items = 1);

  /// Totals merged over every thread. Call when no span is open.
  SpanTable totals() const;
  /// Clears all totals and samples. Call when no span is open.
  void reset();

  /// Writes totals and raw samples as JSON; returns false on I/O error.
  bool write_json(const std::string& path) const;

 private:
  struct Frame {
    SpanName name;
    std::uint64_t id;
    std::uint64_t start_ns;
    std::uint64_t child_ns;
    bool sampled;
  };
  struct ThreadState {
    std::uint32_t index = 0;
    std::uint64_t next_id = 1;
    std::uint64_t top_level = 0;
    std::vector<Frame> stack;
    SpanTable totals{};
    std::vector<RawSpan> raw;
  };

  ThreadState& local();

  mutable std::mutex mutex_;
  std::vector<std::unique_ptr<ThreadState>> threads_;  // guarded by mutex_
};

/// RAII span; `items` may be raised before the scope ends.
class ScopedSpan {
 public:
  explicit ScopedSpan(SpanName name, std::uint64_t items = 1)
      : name_(name), items_(items) {
    Tracer::instance().begin(name_);
  }
  ~ScopedSpan() { Tracer::instance().end(name_, items_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  void set_items(std::uint64_t items) { items_ = items; }

 private:
  SpanName name_;
  std::uint64_t items_;
};

}  // namespace upbound::bench
