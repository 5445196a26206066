#include "filter/blocklist.h"

namespace upbound {

BlockList::BlockList(Duration ttl) : entries_(ttl) {}

void BlockList::block(const FiveTuple& sigma, SimTime now) {
  entries_.sweep(now);
  if (entries_.touch(sigma.canonical(), now)) ++total_blocked_;
}

bool BlockList::is_blocked(const FiveTuple& sigma, SimTime now) {
  entries_.sweep(now);
  return entries_.refresh(sigma.canonical(), now) != nullptr;
}

}  // namespace upbound
