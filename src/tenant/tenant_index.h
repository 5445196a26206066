// Flat per-tenant index: the FlatIndex (util/flat_index.h) keyed by
// TenantId. Every layer that keeps per-subscriber state (the router's
// tenant ledger, the hierarchical filter's fine tier) stores it here, so
// reaching a tenant's state is one probe of a small slot array plus one
// dense-array access, and iteration in position order is insertion order.
#pragma once

#include <cstdint>

#include "tenant/tenant_table.h"
#include "util/flat_index.h"

namespace upbound {

/// Home-slot hash of a TenantId: multiplicative (Fibonacci). TenantIds are
/// addresses, and consecutive subscriber addresses land on well-spread
/// slots instead of one cluster.
struct TenantIdHash {
  std::uint64_t operator()(TenantId tenant) const {
    return static_cast<std::uint64_t>(tenant) * 0x9e3779b97f4a7c15ULL;
  }
};

template <typename Value>
using TenantIndex = FlatIndex<TenantId, Value, TenantIdHash>;

}  // namespace upbound
