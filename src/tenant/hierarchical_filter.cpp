#include "tenant/hierarchical_filter.h"

#include <algorithm>
#include <limits>
#include <stdexcept>

namespace upbound {

void HierarchicalFilterConfig::validate() const {
  if (front.backend == nullptr || fine.backend == nullptr) {
    throw std::invalid_argument(
        "HierarchicalFilterConfig: front and fine specs required");
  }
  if (fine_cap < 1) {
    throw std::invalid_argument(
        "HierarchicalFilterConfig: fine_cap must be >= 1");
  }
  if (fine_window <= Duration{}) {
    throw std::invalid_argument(
        "HierarchicalFilterConfig: fine_window must be positive");
  }
  if (digest.has_value()) digest->validate();
}

Duration filter_spec_max_window(const FilterSpec& spec) {
  if (spec.backend == nullptr) {
    throw std::logic_error("filter_spec_max_window: empty spec");
  }
  if (const std::optional<FilterGeometry> g = spec.backend->geometry(spec)) {
    return g->rotate_interval * static_cast<double>(g->vector_count);
  }
  return spec.backend->guaranteed_window(spec);
}

HierarchicalFilter::HierarchicalFilter(const HierarchicalFilterConfig& config)
    : config_(config),
      table_(config.table),
      front_(make_state_filter(config.front)),
      fine_(make_filter_pool(config.fine)),
      clock_(SimTime::from_usec(std::numeric_limits<std::int64_t>::min())) {
  config_.validate();
  // The short-circuit is exact only when (a) the fine tier's lookups are
  // pure, so skipping them on a front miss has no side effects to
  // preserve, and (b) the front's no-false-negative window covers every
  // age the fine tier can still admit, so a front miss proves a fine
  // miss. Anything else falls back to fine-only verdicts.
  const bool fine_pure = config_.fine.backend->has(kCapPureLookup);
  const bool front_no_fn = config_.front.backend->has(kCapNoFalseNegative);
  const bool covered =
      front_no_fn &&
      config_.front.backend->guaranteed_window(config_.front) >=
          config_.fine_window;
  short_circuit_ = fine_pure && covered;
}

std::uint64_t HierarchicalFilter::epoch_of(SimTime now) const {
  const std::int64_t t = (now - SimTime::origin()).count_usec();
  if (t <= 0) return 0;
  return static_cast<std::uint64_t>(t / config_.fine_window.count_usec());
}

void HierarchicalFilter::advance_time(SimTime now) {
  if (now > clock_) clock_ = now;
  front_->advance_time(now);
  // Fine filters advance lazily on access: every generational backend
  // anchors its schedule on the absolute origin, so a catch-up advance at
  // access time lands the same phase as per-packet advances would.
}

HierarchicalFilter::TenantEntry* HierarchicalFilter::live_entry(
    TenantId tenant) {
  TenantEntry* entry = tenants_.find(tenant);
  if (entry == nullptr || entry->fine == FilterPool::kNilSlot) return nullptr;
  fine_->advance_time(entry->fine, clock_);
  lru_.move_to_front(tenants_, tenants_.position_of(*entry));
  return entry;
}

HierarchicalFilter::TenantEntry& HierarchicalFilter::entry_for(
    TenantId tenant) {
  if (TenantEntry* live = live_entry(tenant)) return *live;
  if (live_ >= config_.fine_cap) evict_lru();
  // Insertion may move other entries; positions stay valid.
  TenantEntry& entry = tenants_.find_or_insert(tenant);
  lru_.push_front(tenants_, tenants_.position_of(entry));
  ++live_;
  entry.fine = fine_->acquire(clock_);
  ++instantiations_;
  return entry;
}

void HierarchicalFilter::evict_lru() {
  const Position victim = lru_.back();
  lru_.unlink(tenants_, victim);
  TenantEntry& entry = tenants_.value_at(victim);
  fine_->release(entry.fine);
  entry.fine = FilterPool::kNilSlot;
  entry.digest.reset();
  --live_;
  ++evictions_;
}

void HierarchicalFilter::record_outbound(const PacketRecord& pkt) {
  const TenantId tenant = table_.tenant_of_outbound(pkt.tuple);
  if (short_circuit_) front_->record_outbound(pkt);
  TenantEntry& entry = entry_for(tenant);
  fine_->record_outbound(entry.fine, pkt);
  if (config_.digest.has_value()) {
    const std::uint64_t epoch = epoch_of(clock_);
    if (!entry.digest.has_value()) {
      entry.digest.emplace(tenant, epoch, *config_.digest);
    } else if (entry.digest->epoch() != epoch) {
      entry.digest->clear(epoch);
    }
    entry.digest->insert_outbound(pkt.tuple);
  }
}

bool HierarchicalFilter::admits_inbound(const PacketRecord& pkt) {
  const TenantId tenant = table_.tenant_of_inbound(pkt.tuple);
  bool verdict = false;
  if (short_circuit_ && !front_->admits_inbound(pkt)) {
    ++front_absorbed_;
  } else if (TenantEntry* entry = live_entry(tenant)) {
    verdict = fine_->admits_inbound(entry->fine, pkt);
  }
  if (!verdict && !remote_.empty()) {
    const auto it = remote_.find(tenant);
    if (it != remote_.end() &&
        it->second.epoch() + 1 >= epoch_of(clock_) &&
        it->second.contains_inbound(pkt.tuple)) {
      ++digest_admits_;
      verdict = true;
    }
  }
  return verdict;
}

void HierarchicalFilter::prefetch(const PacketRecord& pkt,
                                  Direction dir) const {
  const bool outbound = dir == Direction::kOutbound;
  if (!outbound && dir != Direction::kInbound) return;
  if (short_circuit_) front_->prefetch(pkt, dir);
  const TenantId tenant = outbound ? table_.tenant_of_outbound(pkt.tuple)
                                   : table_.tenant_of_inbound(pkt.tuple);
  const TenantEntry* entry = tenants_.find(tenant);
  if (entry == nullptr || entry->fine == FilterPool::kNilSlot) return;
  fine_->prefetch(entry->fine, pkt, dir);
  if (outbound && entry->digest.has_value()) {
    entry->digest->prefetch_outbound(pkt.tuple);
  }
}

std::size_t HierarchicalFilter::storage_bytes() const {
  std::size_t total = front_->storage_bytes();
  for (Position pos = lru_.front(); pos != kNil;
       pos = tenants_.value_at(pos).next) {
    const TenantEntry& entry = tenants_.value_at(pos);
    total += fine_->storage_bytes(entry.fine);
    if (entry.digest.has_value()) {
      total += entry.digest->config().words() * 8;
    }
  }
  for (const auto& [tenant, digest] : remote_) {
    total += digest.config().words() * 8;
  }
  return total;
}

std::vector<std::pair<TenantId, double>>
HierarchicalFilter::tenant_occupancies() {
  std::vector<std::pair<TenantId, double>> out;
  out.reserve(live_);
  for (Position pos = lru_.front(); pos != kNil;
       pos = tenants_.value_at(pos).next) {
    const FilterPool::Slot slot = tenants_.value_at(pos).fine;
    fine_->advance_time(slot, clock_);
    if (const std::optional<double> occ = fine_->occupancy_fraction(slot)) {
      out.emplace_back(tenants_.key_at(pos), *occ);
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::optional<StateDigest> HierarchicalFilter::local_digest(
    TenantId tenant) const {
  const TenantEntry* entry = tenants_.find(tenant);
  if (entry == nullptr || !entry->digest.has_value()) return std::nullopt;
  if (entry->digest->epoch() != epoch_of(clock_)) return std::nullopt;
  return *entry->digest;
}

std::optional<StateDigest> HierarchicalFilter::combined_digest(
    TenantId tenant) const {
  std::optional<StateDigest> out = local_digest(tenant);
  const auto it = remote_.find(tenant);
  if (it != remote_.end() && it->second.epoch() == epoch_of(clock_)) {
    if (out.has_value()) {
      out->merge(it->second);
    } else {
      out = it->second;
    }
  }
  return out;
}

DigestError HierarchicalFilter::apply_digest(const StateDigest& remote) {
  if (!config_.digest.has_value() || remote.config() != *config_.digest) {
    return DigestError::kConfigMismatch;
  }
  if (remote.epoch() + 1 < epoch_of(clock_)) {
    return DigestError::kEpochMismatch;
  }
  const auto it = remote_.find(remote.tenant());
  if (it == remote_.end()) {
    remote_.emplace(remote.tenant(), remote);
    return DigestError::kNone;
  }
  if (it->second.epoch() == remote.epoch()) {
    return it->second.try_merge(remote);
  }
  if (remote.epoch() > it->second.epoch()) it->second = remote;
  return DigestError::kNone;
}

FilterSpec hierarchical_filter_spec(const HierarchicalFilterConfig& config) {
  config.validate();
  FilterSpec spec;
  spec.backend = &FilterRegistry::instance().at("hierarchical");
  spec.config = std::make_shared<const HierarchicalFilterConfig>(config);
  spec.config_type = &typeid(HierarchicalFilterConfig);
  return spec;
}

}  // namespace upbound
