// The three directory placements (DirectoryMode): where the record of a
// cached entry lives, how a local insert or erase reaches it, and how a miss
// finds a copy no local table knows of.
#include "common/logging.h"
#include "core/manager.h"

namespace swala::core {

/// A probe's transport budget: the request's remaining time, or 0 (the
/// transport default) without a deadline.
static int probe_budget(const Deadline* deadline) {
  return deadline != nullptr && !deadline->unlimited() ? deadline->budget_ms(0)
                                                       : 0;
}

std::optional<EntryMeta> CacheManager::Placement::answer_query(
    const std::string& key) const {
  return m_.directory_->lookup(key);
}

/// The paper's design (§3): every member mirrors every node's table, kept
/// current by broadcast inserts and erases, so a key no local table knows
/// is a miss everywhere.
class CacheManager::Placement::Replicated final : public Placement {
 public:
  using Placement::Placement;
  void announce_insert(const EntryMeta& meta) override {
    m_.bus_->broadcast_insert(meta);
  }
  bool announce_erase(const std::string& key, std::uint64_t version) override {
    m_.bus_->broadcast_erase(m_.self_, key, version);
    return true;
  }
  bool holds_record(NodeId, const std::string&) const override { return true; }
};

/// Consistent-hash partitioning: a key's record lives only at its ring
/// owner, kept current by kOwnerUpdate unicasts; a miss asks the owner.
/// Owners answer from every table, since their partition is spread across
/// the per-cache-node tables.
class CacheManager::Placement::Partitioned final : public Placement {
 public:
  using Placement::Placement;
  bool uses_ring() const override { return true; }
  void announce_insert(const EntryMeta& meta) override {
    const NodeId owner = m_.ring_owner_of(meta.key);
    if (owner != m_.self_) m_.bus_->send_owner_insert(owner, meta);
  }
  bool announce_erase(const std::string& key, std::uint64_t version) override {
    const NodeId owner = m_.ring_owner_of(key);
    if (owner == m_.self_) return false;
    m_.bus_->send_owner_erase(owner, m_.self_, key, version);
    return true;
  }
  bool probe(LookupResult* out, const std::string& key,
             const Deadline* deadline) override {
    // During a ring transition (dual-read window) the remapped range may
    // not have migrated yet, so probe the pre-transition owner first; a
    // miss there falls through to the current owner, so lookups never miss
    // mid-move.
    const NodeId owner = m_.membership_.owner_of(key);
    const NodeId prev = m_.membership_.prev_owner_of(key);
    if (prev != owner) {
      m_.dual_read_probes_.fetch_add(1, std::memory_order_relaxed);
      if (probe_owner(out, prev, key, deadline)) return true;
    }
    return probe_owner(out, owner, key, deadline);
  }
  bool holds_record(NodeId peer, const std::string& key) const override {
    return m_.ring_owner_of(key) == peer;
  }

 private:
  /// Asks one candidate owner (current or pre-transition) for `key`'s
  /// record and fetches the copy it names. A quarantined (dead) owner takes
  /// its key range with it: fall through to local execution, exactly like
  /// the dead-peer fetch path.
  bool probe_owner(LookupResult* out, NodeId owner, const std::string& key,
                   const Deadline* deadline) {
    if (m_.bus_ == nullptr || owner == m_.self_ ||
        m_.directory_->quarantined(owner)) {
      return false;
    }
    m_.remote_dir_lookups_.fetch_add(1, std::memory_order_relaxed);
    auto entry = m_.bus_->lookup_at_owner(owner, key, probe_budget(deadline));
    if (entry && entry.value().owner != m_.self_) {
      m_.remote_dir_hits_.fetch_add(1, std::memory_order_relaxed);
      EntryMeta meta = std::move(entry.value());
      meta.key = key;  // defend against a lying/mis-keyed answer
      const Fetch fetched = m_.fetch_hit_from(out, meta, deadline);
      if (fetched == Fetch::kFalseHit) {
        // Clean the stale record here and at its ring owner.
        m_.directory_->apply_erase(meta.owner, meta.key);
        const NodeId ring_owner = m_.ring_owner_of(meta.key);
        if (ring_owner != m_.self_) {
          m_.bus_->send_owner_erase(ring_owner, meta.owner, meta.key, 0);
        }
      }
      return fetched == Fetch::kHit;
    }
    if (entry) {
      // The owner advertises *us* as the caching node, but our store just
      // said no: a stale record (our erase is still in flight, or was
      // lost). Nudge the owner; the unversioned erase is the same weak-
      // consistency tradeoff as the replicated false-hit cleanup.
      m_.bus_->send_owner_erase(owner, m_.self_, key, 0);
    } else if (entry.status().code() != StatusCode::kNotFound) {
      m_.fallback_executions_.fetch_add(1, std::memory_order_relaxed);
      SWALA_LOG(Warn) << "directory lookup at owner " << owner << " failed ("
                      << entry.status().to_string()
                      << "); falling back to local execution";
    }
    return false;
  }
};

/// ICP-style probing: no record leaves a node (the Placement defaults), and
/// a miss asks the peers whether any caches the key. A peer answers from
/// its self table alone, which keeps the probe O(1).
class CacheManager::Placement::Query final : public Placement {
 public:
  using Placement::Placement;
  bool probe(LookupResult* out, const std::string& key,
             const Deadline* deadline) override {
    if (m_.bus_ == nullptr) return false;
    // Bounded by the transport's query timeout and the request deadline.
    m_.peer_queries_.fetch_add(1, std::memory_order_relaxed);
    auto entry = m_.bus_->query_peers(key, probe_budget(deadline));
    if (!entry || entry.value().owner == m_.self_) {
      // Timeouts and all-miss answers both fall back to local execution;
      // the probe was an optimization, not a dependency.
      return false;
    }
    m_.peer_query_hits_.fetch_add(1, std::memory_order_relaxed);
    EntryMeta meta = std::move(entry.value());
    meta.key = key;
    // A false hit leaves no durable record anywhere to clean up.
    return m_.fetch_hit_from(out, meta, deadline) == Fetch::kHit;
  }
  std::optional<EntryMeta> answer_query(const std::string& key) const override {
    return m_.directory_->lookup_at(m_.self_, key);
  }
};

std::unique_ptr<CacheManager::Placement> CacheManager::Placement::make(
    DirectoryMode mode, CacheManager* manager) {
  switch (mode) {
    case DirectoryMode::kPartitioned:
      return std::make_unique<Partitioned>(manager);
    case DirectoryMode::kQuery:
      return std::make_unique<Query>(manager);
    case DirectoryMode::kReplicated:
      break;
  }
  return std::make_unique<Replicated>(manager);
}

}  // namespace swala::core
