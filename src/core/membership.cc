#include "core/membership.h"

#include <algorithm>
#include <mutex>

namespace swala::core {

Membership::Membership(NodeId self, std::size_t num_nodes,
                       std::vector<NodeId> members, bool ring,
                       std::uint64_t ring_seed, std::size_t ring_vnodes)
    : self_(self),
      keeps_ring_(ring),
      members_(std::move(members)),
      ring_(ring_seed, ring_vnodes) {
  if (members_.empty()) {
    for (std::size_t i = 0; i < num_nodes; ++i) {
      members_.push_back(static_cast<NodeId>(i));
    }
  }
  std::sort(members_.begin(), members_.end());
  members_.erase(std::unique(members_.begin(), members_.end()),
                 members_.end());
  if (keeps_ring_) {
    for (const NodeId n : members_) ring_.add_node(n);
  }
}

std::optional<Membership::Change> Membership::transition(NodeId node,
                                                         bool join) {
  Change change;
  {
    std::unique_lock lock(mutex_);
    const auto pos = std::lower_bound(members_.begin(), members_.end(), node);
    if ((pos != members_.end() && *pos == node) == join) return std::nullopt;
    join ? members_.insert(pos, node) : members_.erase(pos);
    if (keeps_ring_) {
      change.before = ring_;
      prev_ring_ = ring_;  // open the dual-read window
      join ? ring_.add_node(node) : ring_.remove_node(node);
      change.after = ring_;
    }
  }
  epoch_.fetch_add(1, std::memory_order_relaxed);
  return change;
}

bool Membership::adopt(std::uint64_t epoch, std::vector<NodeId> members) {
  members.push_back(self_);  // whatever the responder says, we exist
  std::sort(members.begin(), members.end());
  members.erase(std::unique(members.begin(), members.end()), members.end());
  bool changed = false;
  {
    std::unique_lock lock(mutex_);
    if (members != members_) {
      if (keeps_ring_) {
        prev_ring_ = ring_;  // dual read across the adopted change
        HashRing fresh(ring_.seed(), ring_.vnodes());
        for (const NodeId n : members) fresh.add_node(n);
        ring_ = std::move(fresh);
      }
      members_ = std::move(members);
      changed = true;
    }
  }
  // Advance to at least the responder's epoch: we were not around for the
  // transitions it already applied.
  auto current = epoch_.load(std::memory_order_relaxed);
  while (epoch > current &&
         !epoch_.compare_exchange_weak(current, epoch,
                                       std::memory_order_relaxed)) {
  }
  return changed;
}

NodeId Membership::owner_on(const HashRing& ring, const std::string& key,
                            NodeId skip) const {
  const auto owner = ring.owner_of(key, skip);
  return owner == HashRing::kNoOwner ? self_ : static_cast<NodeId>(owner);
}

NodeId Membership::successor_of(const std::string& key) const {
  std::shared_lock lock(mutex_);
  if (keeps_ring_) return owner_on(ring_, key, /*skip=*/self_);
  // Deterministic key-hash spread over the other members.
  const std::size_t others =
      members_.size() -
      static_cast<std::size_t>(std::count(members_.begin(), members_.end(), self_));
  if (others == 0) return self_;
  std::size_t index = mix64(fnv1a64(key)) % others;
  for (const NodeId n : members_) {
    if (n != self_ && index-- == 0) return n;
  }
  return self_;  // unreachable
}

}  // namespace swala::core
