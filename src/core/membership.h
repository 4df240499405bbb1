// Membership: one node's view of the active members of its group and, for
// ring placement (partitioned directory), the consistent-hash ring that
// names each key's directory owner among them.
//
// Capacity (directory tables, id space) is fixed at config time; the active
// set within [0, num_nodes) changes by join and decommission. Each change
// bumps the epoch and resizes the ring: only the remapped key ranges move,
// and until finish_transition() a lookup can probe the pre-change owner
// first (the dual-read window).
//
// Thread-safe: owner lookups sit on the request path and take the reader
// side of one shared mutex. Lock order: the manager's commit mutex, then
// this one (announces read the ring); transitions never hold the former.
#pragma once

#include <algorithm>
#include <atomic>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <string>
#include <vector>

#include "common/hash.h"
#include "core/entry.h"

namespace swala::core {

class Membership {
 public:
  /// `members` empty = every slot in [0, num_nodes). `ring` keeps a
  /// consistent-hash ring over the active set; without one every key's
  /// owner is self.
  Membership(NodeId self, std::size_t num_nodes, std::vector<NodeId> members,
             bool ring, std::uint64_t ring_seed, std::size_t ring_vnodes);

  /// The placement before and after one applied change (both unset when no
  /// ring is kept).
  struct Change {
    std::optional<HashRing> before, after;
  };

  /// Adds (`join`) or removes `node`, bumps the epoch and opens the
  /// dual-read window. nullopt, and no epoch bump, when `node` already was
  /// (or was not) a member.
  std::optional<Change> transition(NodeId node, bool join);

  /// The joiner's side of kJoinAck: replaces the active set with `members`
  /// plus self (dual read across the change) and advances the epoch to at
  /// least `epoch`. True when the set changed.
  bool adopt(std::uint64_t epoch, std::vector<NodeId> members);

  std::uint64_t epoch() const {
    return epoch_.load(std::memory_order_relaxed);
  }
  std::vector<NodeId> members() const {  ///< sorted ascending
    std::shared_lock lock(mutex_);
    return members_;
  }
  bool contains(NodeId node) const {
    std::shared_lock lock(mutex_);
    return std::binary_search(members_.begin(), members_.end(), node);
  }
  bool keeps_ring() const { return keeps_ring_; }
  HashRing ring() const {  ///< a copy of the current ring
    std::shared_lock lock(mutex_);
    return ring_;
  }

  /// `key`'s directory owner on the current ring. Self without a ring or
  /// on an empty one, so "owner == self" reads "no remote owner".
  NodeId owner_of(const std::string& key) const {
    if (!keeps_ring_) return self_;
    std::shared_lock lock(mutex_);
    return owner_on(ring_, key);
  }

  /// `key`'s owner on the pre-change ring while the dual-read window is
  /// open, else the current owner (so prev != current ⇔ dual read needed).
  NodeId prev_owner_of(const std::string& key) const {
    if (!keeps_ring_) return self_;
    std::shared_lock lock(mutex_);
    return owner_on(prev_ring_ ? *prev_ring_ : ring_, key);
  }

  /// `key`'s owner on `ring` once `skip` leaves (HashRing::owner_of), with
  /// the same self fallback as owner_of.
  NodeId owner_on(const HashRing& ring, const std::string& key,
                  NodeId skip = kInvalidNode) const;

  /// The node that takes over `key` once self leaves: the ring owner with
  /// self skipped, or a key-hash pick among the other members when no ring
  /// is kept. Self when no other member exists.
  NodeId successor_of(const std::string& key) const;

  /// Closes the dual-read window; the next change reopens it.
  void finish_transition() {
    std::unique_lock lock(mutex_);
    prev_ring_.reset();
  }
  bool transition_active() const {
    std::shared_lock lock(mutex_);
    return prev_ring_.has_value();
  }
  std::uint64_t ring_version() const {
    std::shared_lock lock(mutex_);
    return ring_.version();
  }

 private:
  const NodeId self_;
  const bool keeps_ring_;
  mutable std::shared_mutex mutex_;
  std::vector<NodeId> members_;  ///< sorted
  HashRing ring_;
  std::optional<HashRing> prev_ring_;  ///< set while dual reads run
  std::atomic<std::uint64_t> epoch_{0};
};

}  // namespace swala::core
