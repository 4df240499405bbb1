#include "core/directory.h"

#include <mutex>

#include "common/strings.h"

namespace swala::core {

const char* locking_mode_name(LockingMode mode) {
  switch (mode) {
    case LockingMode::kWholeDirectory: return "whole-directory";
    case LockingMode::kPerTable: return "per-table";
    case LockingMode::kPerEntry: return "per-entry";
    case LockingMode::kMultiGranularity: return "multi-granularity";
  }
  return "?";
}

const char* directory_mode_name(DirectoryMode mode) {
  switch (mode) {
    case DirectoryMode::kReplicated: return "replicated";
    case DirectoryMode::kPartitioned: return "partitioned";
    case DirectoryMode::kQuery: return "query";
  }
  return "?";
}

std::optional<DirectoryMode> directory_mode_from_name(std::string_view name) {
  if (name == "replicated") return DirectoryMode::kReplicated;
  if (name == "partitioned") return DirectoryMode::kPartitioned;
  if (name == "query") return DirectoryMode::kQuery;
  return std::nullopt;
}

CacheDirectory::CacheDirectory(NodeId self, std::size_t num_nodes,
                               LockingMode mode)
    : clock_(RealClock::instance()),
      self_(self),
      mode_(mode),
      quarantined_(num_nodes) {
  tables_.reserve(num_nodes);
  for (std::size_t i = 0; i < num_nodes; ++i) {
    tables_.push_back(std::make_unique<Table>());
  }
}

void CacheDirectory::set_quarantined(NodeId node, bool quarantined) {
  if (node >= quarantined_.size() || node == self_) return;
  quarantined_[node].store(quarantined, std::memory_order_release);
}

bool CacheDirectory::quarantined(NodeId node) const {
  if (node >= quarantined_.size()) return false;
  return quarantined_[node].load(std::memory_order_acquire);
}

std::size_t CacheDirectory::clear_table(NodeId node) {
  if (node >= tables_.size()) return 0;
  Table& table = *tables_[node];
  std::size_t dropped = 0;
  const auto do_clear = [&] {
    dropped = table.entries.size();
    table.entries.clear();
  };
  if (mode_ == LockingMode::kWholeDirectory) {
    std::unique_lock lock(whole_mutex_);
    lock_count_.fetch_add(1, std::memory_order_relaxed);
    do_clear();
  } else {
    std::unique_lock lock(table.mutex);
    lock_count_.fetch_add(1, std::memory_order_relaxed);
    do_clear();
  }
  erases_.fetch_add(dropped, std::memory_order_relaxed);
  return dropped;
}

void CacheDirectory::apply_insert(const EntryMeta& meta) {
  if (meta.owner >= tables_.size()) return;
  Table& table = *tables_[meta.owner];

  if (mode_ == LockingMode::kWholeDirectory) {
    std::unique_lock lock(whole_mutex_);
    lock_count_.fetch_add(1, std::memory_order_relaxed);
    table.entries[meta.key] = std::make_unique<EntrySlot>(meta);
  } else {
    std::unique_lock lock(table.mutex);
    lock_count_.fetch_add(1, std::memory_order_relaxed);
    table.entries[meta.key] = std::make_unique<EntrySlot>(meta);
  }
  inserts_.fetch_add(1, std::memory_order_relaxed);
}

void CacheDirectory::apply_erase(NodeId owner, const std::string& key,
                                 std::uint64_t version) {
  if (owner >= tables_.size()) return;
  Table& table = *tables_[owner];

  const auto do_erase = [&] {
    const auto it = table.entries.find(key);
    if (it == table.entries.end()) return;
    if (version != 0 && it->second->meta.version > version) return;
    table.entries.erase(it);
    erases_.fetch_add(1, std::memory_order_relaxed);
  };

  if (mode_ == LockingMode::kWholeDirectory) {
    std::unique_lock lock(whole_mutex_);
    lock_count_.fetch_add(1, std::memory_order_relaxed);
    do_erase();
  } else {
    std::unique_lock lock(table.mutex);
    lock_count_.fetch_add(1, std::memory_order_relaxed);
    do_erase();
  }
}

std::optional<EntryMeta> CacheDirectory::lookup(const std::string& key) const {
  lookups_.fetch_add(1, std::memory_order_relaxed);
  const TimeNs now = clock_->now();

  // Scan order: local table first, then peers, so a locally cached result
  // always wins over a remote copy.
  const auto scan_table = [&](NodeId node) -> std::optional<EntryMeta> {
    const Table& table = *tables_[node];
    // Multi-granularity (§4.2's fourth option): entry locks on the local
    // table, table locks on the remote tables.
    LockingMode effective = mode_;
    if (mode_ == LockingMode::kMultiGranularity) {
      effective = node == self_ ? LockingMode::kPerEntry
                                : LockingMode::kPerTable;
    }
    switch (effective) {
      case LockingMode::kWholeDirectory: {
        // whole_mutex_ already held by caller loop — handled below.
        const auto it = table.entries.find(key);
        if (it != table.entries.end() && !it->second->meta.expired(now)) {
          return it->second->meta;
        }
        return std::nullopt;
      }
      case LockingMode::kPerTable: {
        std::shared_lock lock(table.mutex);
        lock_count_.fetch_add(1, std::memory_order_relaxed);
        const auto it = table.entries.find(key);
        if (it != table.entries.end() && !it->second->meta.expired(now)) {
          return it->second->meta;
        }
        return std::nullopt;
      }
      case LockingMode::kPerEntry: {
        // Structural lock to locate the slot, then the entry's own mutex to
        // read it — two acquisitions per visited table, which is exactly the
        // overhead the paper rejects this mode for. The structural lock is
        // held across the read: writers replace or erase slots under it
        // exclusively, so releasing it first would let one free the slot.
        std::shared_lock lock(table.mutex);
        lock_count_.fetch_add(1, std::memory_order_relaxed);
        const auto it = table.entries.find(key);
        if (it == table.entries.end()) return std::nullopt;
        const EntrySlot& slot = *it->second;
        std::lock_guard<std::mutex> entry_lock(slot.entry_mutex);
        lock_count_.fetch_add(1, std::memory_order_relaxed);
        if (!slot.meta.expired(now)) return slot.meta;
        return std::nullopt;
      }
      case LockingMode::kMultiGranularity:
        break;  // resolved to kPerEntry/kPerTable above; unreachable
    }
    return std::nullopt;
  };

  std::optional<EntryMeta> found;
  if (mode_ == LockingMode::kWholeDirectory) {
    std::shared_lock lock(whole_mutex_);
    lock_count_.fetch_add(1, std::memory_order_relaxed);
    if (auto hit = scan_table(self_)) {
      found = hit;
    } else {
      for (NodeId n = 0; n < tables_.size() && !found; ++n) {
        if (n == self_ || quarantined(n)) continue;
        found = scan_table(n);
      }
    }
  } else {
    if (auto hit = scan_table(self_)) {
      found = hit;
    } else {
      for (NodeId n = 0; n < tables_.size() && !found; ++n) {
        if (n == self_ || quarantined(n)) continue;
        found = scan_table(n);
      }
    }
  }
  if (found) lookup_hits_.fetch_add(1, std::memory_order_relaxed);
  return found;
}

std::optional<EntryMeta> CacheDirectory::lookup_at(NodeId node,
                                                   const std::string& key) const {
  if (node >= tables_.size()) return std::nullopt;
  const TimeNs now = clock_->now();
  const Table& table = *tables_[node];
  if (mode_ == LockingMode::kWholeDirectory) {
    std::shared_lock lock(whole_mutex_);
    lock_count_.fetch_add(1, std::memory_order_relaxed);
    const auto it = table.entries.find(key);
    if (it != table.entries.end() && !it->second->meta.expired(now)) {
      return it->second->meta;
    }
    return std::nullopt;
  }
  std::shared_lock lock(table.mutex);
  lock_count_.fetch_add(1, std::memory_order_relaxed);
  const auto it = table.entries.find(key);
  if (it != table.entries.end() && !it->second->meta.expired(now)) {
    return it->second->meta;
  }
  return std::nullopt;
}

void CacheDirectory::apply_touch(NodeId owner, const std::string& key,
                                 TimeNs access_time) {
  if (owner >= tables_.size()) return;
  Table& table = *tables_[owner];
  const auto do_touch = [&] {
    const auto it = table.entries.find(key);
    if (it == table.entries.end()) return;
    it->second->meta.last_access = access_time;
    ++it->second->meta.access_count;
  };
  if (mode_ == LockingMode::kWholeDirectory) {
    std::unique_lock lock(whole_mutex_);
    lock_count_.fetch_add(1, std::memory_order_relaxed);
    do_touch();
  } else {
    std::unique_lock lock(table.mutex);
    lock_count_.fetch_add(1, std::memory_order_relaxed);
    do_touch();
  }
}

std::vector<std::string> CacheDirectory::expired_keys(NodeId node,
                                                      TimeNs now) const {
  std::vector<std::string> out;
  if (node >= tables_.size()) return out;
  const Table& table = *tables_[node];
  std::shared_lock lock(mode_ == LockingMode::kWholeDirectory ? whole_mutex_
                                                              : table.mutex);
  lock_count_.fetch_add(1, std::memory_order_relaxed);
  for (const auto& [key, slot] : table.entries) {
    if (slot->meta.expired(now)) out.push_back(key);
  }
  return out;
}

std::size_t CacheDirectory::erase_matching(std::string_view pattern) {
  std::size_t removed = 0;
  for (auto& table_ptr : tables_) {
    Table& table = *table_ptr;
    std::unique_lock lock(mode_ == LockingMode::kWholeDirectory ? whole_mutex_
                                                                : table.mutex);
    lock_count_.fetch_add(1, std::memory_order_relaxed);
    for (auto it = table.entries.begin(); it != table.entries.end();) {
      if (glob_match(pattern, it->first)) {
        it = table.entries.erase(it);
        ++removed;
        erases_.fetch_add(1, std::memory_order_relaxed);
      } else {
        ++it;
      }
    }
  }
  return removed;
}

std::size_t CacheDirectory::size() const {
  std::size_t total = 0;
  for (NodeId n = 0; n < tables_.size(); ++n) total += table_size(n);
  return total;
}

std::vector<std::string> CacheDirectory::keys_at(NodeId node) const {
  std::vector<std::string> out;
  if (node >= tables_.size()) return out;
  const Table& table = *tables_[node];
  std::shared_lock lock(mode_ == LockingMode::kWholeDirectory ? whole_mutex_
                                                              : table.mutex);
  out.reserve(table.entries.size());
  for (const auto& [key, slot] : table.entries) out.push_back(key);
  return out;
}

std::vector<EntryMeta> CacheDirectory::metas_at(NodeId node) const {
  std::vector<EntryMeta> out;
  if (node >= tables_.size()) return out;
  const Table& table = *tables_[node];
  std::shared_lock lock(mode_ == LockingMode::kWholeDirectory ? whole_mutex_
                                                              : table.mutex);
  out.reserve(table.entries.size());
  for (const auto& [key, slot] : table.entries) out.push_back(slot->meta);
  return out;
}

std::vector<std::pair<std::string, std::uint64_t>>
CacheDirectory::key_versions_at(NodeId node) const {
  std::vector<std::pair<std::string, std::uint64_t>> out;
  if (node >= tables_.size()) return out;
  const Table& table = *tables_[node];
  std::shared_lock lock(mode_ == LockingMode::kWholeDirectory ? whole_mutex_
                                                              : table.mutex);
  out.reserve(table.entries.size());
  for (const auto& [key, slot] : table.entries) {
    out.emplace_back(key, slot->meta.version);
  }
  return out;
}

std::size_t CacheDirectory::table_size(NodeId node) const {
  if (node >= tables_.size()) return 0;
  const Table& table = *tables_[node];
  std::shared_lock lock(mode_ == LockingMode::kWholeDirectory ? whole_mutex_
                                                              : table.mutex);
  return table.entries.size();
}

DirectoryStats CacheDirectory::stats() const {
  DirectoryStats s;
  s.lookups = lookups_.load(std::memory_order_relaxed);
  s.lookup_hits = lookup_hits_.load(std::memory_order_relaxed);
  s.inserts = inserts_.load(std::memory_order_relaxed);
  s.erases = erases_.load(std::memory_order_relaxed);
  s.lock_acquisitions = lock_count_.load(std::memory_order_relaxed);
  return s;
}

}  // namespace swala::core
