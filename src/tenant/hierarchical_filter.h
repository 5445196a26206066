// Two-level multi-tenant filter: a shared coarse front filter (default
// bitmap-blocked) absorbs the common-case inbound miss, and per-tenant
// fine filters -- lazily instantiated from one FilterPool of the fine
// spec, so any registered backend works as the fine tier -- give
// per-subscriber verdicts and isolation. Live fine filters are
// LRU-capped; optional per-tenant StateDigests support the inter-router
// exchange path. All per-tenant bookkeeping -- the fine filter's pool
// slot, digest, LRU links -- sits in one entry of a flat TenantIndex, so
// a packet reaches it with one probe, and a bitmap-blocked fine tier's
// bits one address computation later (filter/filter_pool.h).
//
// Verdict semantics (the differential contract tested against a flat
// one-filter-per-tenant oracle):
//   outbound:  mark the tenant's fine filter (and the front filter when
//              the short-circuit is active).
//   inbound:   with the short-circuit active, a front-filter miss denies
//              without consulting (or instantiating) the fine tier; on a
//              front hit the tenant's fine filter decides. The
//              short-circuit is enabled only when it is provably exact:
//              the fine tier's lookups are pure (kCapPureLookup) and the
//              front's guaranteed no-false-negative window covers the
//              fine tier's maximum admission window, so the front admits
//              every key the fine tier would. Otherwise the fine filter
//              alone decides. Either way the verdict equals the flat
//              per-tenant oracle's; evicting a fine filter under the LRU
//              cap is the one (counted) source of false negatives.
//   digests:   after a local deny, a fresh applied remote digest may
//              admit (the roaming-client path); counted separately and
//              never consulted unless a peer digest was applied.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "filter/filter_pool.h"
#include "filter/filter_registry.h"
#include "filter/state_filter.h"
#include "tenant/state_digest.h"
#include "tenant/tenant_index.h"
#include "tenant/tenant_table.h"

namespace upbound {

struct HierarchicalFilterConfig {
  TenantTableConfig table;
  /// Shared coarse tier; must be a no-false-negative backend for the
  /// front short-circuit to engage.
  FilterSpec front;
  /// Per-tenant template: one fresh instance per live tenant.
  FilterSpec fine;
  /// LRU cap on live fine filters (>= 1). Evictions lose that tenant's
  /// marks (counted; sized generously in any exactness test).
  std::size_t fine_cap = 1024;
  /// The fine tier's maximum admission window: generational backends
  /// retain a mark at most k*dt, exact-state backends their timeout.
  /// Drives the front-coverage check and the digest epoch length.
  Duration fine_window = Duration::sec(20.0);
  /// Per-tenant digest building for the inter-router exchange path.
  std::optional<StateDigestConfig> digest;

  /// Throws std::invalid_argument on empty specs or degenerate values.
  void validate() const;
};

/// The fine tier's maximum admission window for a registered backend
/// spec: k*dt from the Bloom geometry when the backend has one, else its
/// guaranteed window (exact-state timeouts).
Duration filter_spec_max_window(const FilterSpec& spec);

class HierarchicalFilter final : public StateFilter {
 public:
  explicit HierarchicalFilter(const HierarchicalFilterConfig& config);

  void advance_time(SimTime now) override;
  void record_outbound(const PacketRecord& pkt) override;
  bool admits_inbound(const PacketRecord& pkt) override;
  /// Cache hint: the front block (when the short-circuit consults it),
  /// the tenant's index slot and entry, its fine filter's block and, for
  /// outbound packets, the digest words the mark will set. Read-only: no
  /// entry is created and LRU recency is not touched.
  void prefetch(const PacketRecord& pkt, Direction dir) const override;
  /// Lookups touch LRU recency (and may short-circuit on the front), so
  /// they are not pure; the router uses the exact scalar interleaving.
  bool inbound_lookup_is_pure() const override { return false; }
  /// The shared front tier's occupancy -- the saturation signal the
  /// health monitor and tuner watch.
  std::optional<double> occupancy_fraction() const override {
    return front_->occupancy_fraction();
  }
  std::uint64_t expiry_generations() const override {
    return front_->expiry_generations();
  }
  std::size_t storage_bytes() const override;
  std::string name() const override { return "hierarchical"; }

  const TenantTable& tenant_table() const { return table_; }
  bool front_short_circuit() const { return short_circuit_; }

  // Tenancy introspection (telemetry gauges, control socket).
  /// Tenants ever marked, evicted ones included.
  std::size_t tenant_count() const { return tenants_.size(); }
  std::size_t live_fine_filters() const { return live_; }
  std::uint64_t fine_instantiations() const { return instantiations_; }
  std::uint64_t fine_evictions() const { return evictions_; }
  std::uint64_t front_absorbed() const { return front_absorbed_; }
  std::uint64_t digest_admits() const { return digest_admits_; }
  /// (tenant, occupancy) for live fine filters reporting one, sorted by
  /// tenant id (deterministic regardless of insertion order). Each filter
  /// is first advanced to the filter clock -- fine filters otherwise
  /// advance only when their tenant is touched, and an idle tenant would
  /// report marks its window has long expired. The catch-up is the one
  /// the next access would make, so verdicts are unaffected. O(live).
  std::vector<std::pair<TenantId, double>> tenant_occupancies();

  // Inter-router digest exchange. Epochs advance every fine_window so
  // exchanged digests age out with the state they summarize.
  bool digests_enabled() const { return config_.digest.has_value(); }
  std::uint64_t digest_epoch() const { return epoch_of(clock_); }
  /// This router's own marks for `tenant` in the current epoch.
  std::optional<StateDigest> local_digest(TenantId tenant) const;
  /// Local marks unioned with applied peer digests of the current epoch
  /// -- the value routers gossip; two peers that exchange and re-export
  /// converge byte-identically.
  std::optional<StateDigest> combined_digest(TenantId tenant) const;
  /// Applies a peer's digest. Returns kNone on success, kConfigMismatch
  /// when digests are disabled or geometry differs, kEpochMismatch when
  /// the digest is older than the previous epoch.
  DigestError apply_digest(const StateDigest& remote);

 private:
  /// Index position; kNil ends the LRU list.
  using Position = FlatPosition;
  static constexpr Position kNil = kNilPosition;

  /// One per tenant ever marked. A live entry holds a fine filter's pool
  /// slot and is linked into the LRU list; eviction releases the slot,
  /// drops the digest and unlinks the entry, which stays in the index so
  /// the tenant still counts as seen.
  struct TenantEntry {
    FilterPool::Slot fine = FilterPool::kNilSlot;
    std::optional<StateDigest> digest;
    Position prev = kNil;  // toward the most recently used end
    Position next = kNil;  // toward the least recently used end
  };

  std::uint64_t epoch_of(SimTime now) const;
  /// Looks up a live entry, advancing its fine filter to the clock and
  /// refreshing LRU recency. nullptr when the tenant has none.
  TenantEntry* live_entry(TenantId tenant);
  /// live_entry, instantiating (and evicting at the cap) when absent.
  TenantEntry& entry_for(TenantId tenant);

  /// Drops the least recently used tenant's fine filter and digest.
  void evict_lru();

  HierarchicalFilterConfig config_;
  TenantTable table_;
  std::unique_ptr<StateFilter> front_;
  /// Every tenant's fine filter, one slot each.
  std::unique_ptr<FilterPool> fine_;
  bool short_circuit_ = false;
  TenantIndex<TenantEntry> tenants_;
  // Front: most recently used; back: the next victim.
  PositionList<TenantIndex<TenantEntry>> lru_;
  std::size_t live_ = 0;      // entries holding a fine slot
  std::unordered_map<TenantId, StateDigest> remote_;
  SimTime clock_;
  std::uint64_t instantiations_ = 0;
  std::uint64_t evictions_ = 0;
  std::uint64_t front_absorbed_ = 0;
  std::uint64_t digest_admits_ = 0;
};

/// Typed spec builder: exactly what the registry's `hierarchical` parse
/// produces for the same configuration.
FilterSpec hierarchical_filter_spec(const HierarchicalFilterConfig& config);

}  // namespace upbound
