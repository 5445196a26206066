// Tracing decorators for the traced run: each wraps one public seam of a
// layer, forwards every call unchanged (batch entry points included, so
// the fast paths stay engaged) and records a span around it. Verdicts are
// identical with and without them; selftest.cpp checks that.
#pragma once

#include <deque>
#include <memory>
#include <span>
#include <string>

#include "filter/drop_policy.h"
#include "filter/filter_registry.h"
#include "filter/state_filter.h"
#include "net/live/capture.h"
#include "tracing.h"

namespace upbound::bench {

/// Span names a decorated filter records its two hot calls under.
struct FilterSpans {
  SpanName mark;
  SpanName lookup;
};

class TracedFilter final : public StateFilter {
 public:
  TracedFilter(std::unique_ptr<StateFilter> inner, FilterSpans spans)
      : inner_(std::move(inner)), spans_(spans) {}

  void advance_time(SimTime now) override { inner_->advance_time(now); }
  void record_outbound(const PacketRecord& pkt) override {
    const ScopedSpan span{spans_.mark};
    inner_->record_outbound(pkt);
  }
  bool admits_inbound(const PacketRecord& pkt) override {
    const ScopedSpan span{spans_.lookup};
    return inner_->admits_inbound(pkt);
  }
  void record_outbound_batch(PacketBatch batch) override {
    const ScopedSpan span{spans_.mark, batch.size()};
    inner_->record_outbound_batch(batch);
  }
  void admits_inbound_batch(PacketBatch batch,
                            std::span<bool> admits) override {
    const ScopedSpan span{spans_.lookup, batch.size()};
    inner_->admits_inbound_batch(batch, admits);
  }
  bool inbound_lookup_is_pure() const override {
    return inner_->inbound_lookup_is_pure();
  }
  std::optional<double> occupancy_fraction() const override {
    return inner_->occupancy_fraction();
  }
  std::uint64_t expiry_generations() const override {
    return inner_->expiry_generations();
  }
  bool set_rotate_interval(Duration dt) override {
    return inner_->set_rotate_interval(dt);
  }
  std::size_t storage_bytes() const override {
    return inner_->storage_bytes();
  }
  std::string name() const override { return inner_->name(); }

 private:
  std::unique_ptr<StateFilter> inner_;
  FilterSpans spans_;
};

/// Builds FilterSpecs whose backend makes TracedFilter-wrapped filters:
/// a copy of the original BackendDescriptor (same name, capabilities,
/// parser, geometry and window) with only `make` replaced. Works at any
/// depth, e.g. for the front and fine tiers inside a hierarchical config.
/// Specs returned by wrap() point into this object and must not outlive it.
class TracedBackends {
 public:
  FilterSpec wrap(const FilterSpec& spec, FilterSpans spans) {
    BackendDescriptor wrapped = *spec.backend;
    wrapped.make = [make = spec.backend->make, spans](const FilterSpec& s) {
      return std::unique_ptr<StateFilter>(
          std::make_unique<TracedFilter>(make(s), spans));
    };
    descriptors_.push_back(std::move(wrapped));
    FilterSpec out = spec;
    out.backend = &descriptors_.back();
    return out;
  }

 private:
  std::deque<BackendDescriptor> descriptors_;  // stable addresses
};

class TracedPolicy final : public DropPolicy {
 public:
  explicit TracedPolicy(std::unique_ptr<DropPolicy> inner)
      : inner_(std::move(inner)) {}

  double drop_probability(double uplink_bits_per_sec) const override {
    const ScopedSpan span{SpanName::kPolicy};
    return inner_->drop_probability(uplink_bits_per_sec);
  }
  std::string name() const override { return inner_->name(); }

 private:
  std::unique_ptr<DropPolicy> inner_;
};

/// Capture decorator: a live.capture span around each drain() and a
/// net.decode span around each frame handed to the datapath's sink, so
/// capture self time is drain time minus the time spent in the sink.
class TracedCapture final : public live::CaptureSource {
 public:
  explicit TracedCapture(std::unique_ptr<live::CaptureSource> inner)
      : inner_(std::move(inner)) {}

  int fd() const override { return inner_->fd(); }
  std::size_t drain(std::size_t max_frames,
                    const live::FrameSink& sink) override {
    ScopedSpan span{SpanName::kCapture, 0};
    const live::FrameSink traced = [&sink](std::span<const std::uint8_t> frame,
                                           SimTime ts) {
      const ScopedSpan decode{SpanName::kDecode};
      sink(frame, ts);
    };
    const std::size_t delivered = inner_->drain(max_frames, traced);
    span.set_items(delivered);
    return delivered;
  }
  std::string name() const override { return inner_->name(); }
  std::uint64_t frames_received() const override {
    return inner_->frames_received();
  }
  std::uint64_t bytes_received() const override {
    return inner_->bytes_received();
  }
  std::uint64_t malformed_inputs() const override {
    return inner_->malformed_inputs();
  }
  int error() const override { return inner_->error(); }
  int reattach() override { return inner_->reattach(); }
  std::uint64_t frames_lost() const override { return inner_->frames_lost(); }
  void inject_failure() override { inner_->inject_failure(); }

 private:
  std::unique_ptr<live::CaptureSource> inner_;
};

}  // namespace upbound::bench
