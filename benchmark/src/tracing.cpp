#include "tracing.h"

#include <chrono>
#include <cstdio>
#include <cstdlib>

namespace upbound::bench {

namespace {

thread_local void* tls_state = nullptr;

}  // namespace

const char* span_name(SpanName name) {
  switch (name) {
    case SpanName::kCapture: return "live.capture";
    case SpanName::kDecode: return "net.decode";
    case SpanName::kFilterMark: return "filter.mark";
    case SpanName::kFilterLookup: return "filter.lookup";
    case SpanName::kPolicy: return "filter.policy";
    case SpanName::kFrontMark: return "tenant.front.mark";
    case SpanName::kFrontLookup: return "tenant.front.lookup";
    case SpanName::kFineMark: return "tenant.fine.mark";
    case SpanName::kFineLookup: return "tenant.fine.lookup";
    case SpanName::kPcapRead: return "net.pcap";
    case SpanName::kFactory: return "sim.parallel.factory";
    case SpanName::kAnalyzerProcess: return "analyzer.process";
    case SpanName::kAnalyzerFinish: return "analyzer.finish";
    case SpanName::kRexMatch: return "rex.match";
    case SpanName::kCount: break;
  }
  return "?";
}

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

Tracer& Tracer::instance() {
  static Tracer tracer;
  return tracer;
}

Tracer::ThreadState& Tracer::local() {
  if (tls_state == nullptr) {
    auto state = std::make_unique<ThreadState>();
    state->stack.reserve(16);
    const std::lock_guard<std::mutex> lock{mutex_};
    state->index = static_cast<std::uint32_t>(threads_.size());
    tls_state = state.get();
    threads_.push_back(std::move(state));
  }
  return *static_cast<ThreadState*>(tls_state);
}

void Tracer::begin(SpanName name) {
  ThreadState& t = local();
  bool sampled;
  if (t.stack.empty()) {
    sampled = t.top_level++ % kSampleEvery == 0;
  } else {
    sampled = t.stack.back().sampled;
  }
  t.stack.push_back(Frame{name, t.next_id++, 0, 0, sampled});
  // Read the clock last so the bookkeeping above is not billed to the span.
  t.stack.back().start_ns = now_ns();
}

void Tracer::end(SpanName name, std::uint64_t items) {
  const std::uint64_t end = now_ns();
  ThreadState& t = local();
  if (t.stack.empty() || t.stack.back().name != name) {
    // A benchmark bug, and end() runs in destructors: fail loudly.
    std::fprintf(stderr, "tracer: unbalanced span %s\n", span_name(name));
    std::abort();
  }
  const Frame frame = t.stack.back();
  t.stack.pop_back();
  const std::uint64_t duration = end - frame.start_ns;
  SpanTotals& totals = t.totals[static_cast<std::size_t>(name)];
  ++totals.count;
  totals.items += items;
  totals.total_ns += duration;
  totals.self_ns += duration > frame.child_ns ? duration - frame.child_ns : 0;
  std::uint64_t parent = 0;
  if (!t.stack.empty()) {
    t.stack.back().child_ns += duration;
    parent = t.stack.back().id;
  }
  if (frame.sampled && t.raw.size() < kMaxRawSpans) {
    t.raw.push_back(
        RawSpan{name, t.index, frame.id, parent, frame.start_ns, end});
  }
}

SpanTable Tracer::totals() const {
  SpanTable out{};
  const std::lock_guard<std::mutex> lock{mutex_};
  for (const auto& t : threads_) {
    for (std::size_t i = 0; i < kSpanNames; ++i) {
      out[i].count += t->totals[i].count;
      out[i].items += t->totals[i].items;
      out[i].total_ns += t->totals[i].total_ns;
      out[i].self_ns += t->totals[i].self_ns;
    }
  }
  return out;
}

void Tracer::reset() {
  const std::lock_guard<std::mutex> lock{mutex_};
  for (const auto& t : threads_) {
    t->totals = SpanTable{};
    t->raw.clear();
    t->top_level = 0;
  }
}

bool Tracer::write_json(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return false;
  const SpanTable table = totals();
  std::fprintf(f, "{\"totals\":{");
  for (std::size_t i = 0; i < kSpanNames; ++i) {
    const SpanTotals& s = table[i];
    std::fprintf(f,
                 "%s\"%s\":{\"count\":%llu,\"items\":%llu,\"total_ns\":%llu,"
                 "\"self_ns\":%llu}",
                 i == 0 ? "" : ",", span_name(static_cast<SpanName>(i)),
                 static_cast<unsigned long long>(s.count),
                 static_cast<unsigned long long>(s.items),
                 static_cast<unsigned long long>(s.total_ns),
                 static_cast<unsigned long long>(s.self_ns));
  }
  std::fprintf(f, "},\"spans\":[");
  bool first = true;
  const std::lock_guard<std::mutex> lock{mutex_};
  for (const auto& t : threads_) {
    for (const RawSpan& r : t->raw) {
      std::fprintf(f,
                   "%s{\"name\":\"%s\",\"thread\":%u,\"id\":%llu,"
                   "\"parent\":%llu,\"start_ns\":%llu,\"end_ns\":%llu}",
                   first ? "" : ",\n", span_name(r.name), r.thread,
                   static_cast<unsigned long long>(r.id),
                   static_cast<unsigned long long>(r.parent),
                   static_cast<unsigned long long>(r.start_ns),
                   static_cast<unsigned long long>(r.end_ns));
      first = false;
    }
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

}  // namespace upbound::bench
