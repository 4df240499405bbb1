#include "core/manager.h"

#include <algorithm>
#include <chrono>
#include <iterator>

#include "common/logging.h"

namespace swala::core {

CacheManager::CacheManager(NodeId self, std::size_t num_nodes,
                           ManagerOptions options, const Clock* clock,
                           CooperationBus* bus, LockingMode locking)
    : self_(self),
      options_(std::move(options)),
      clock_(clock),
      bus_(bus),
      ring_(options_.ring_seed, options_.ring_vnodes),
      inv_log_(options_.inv_log_entries) {
  if (options_.initial_members.empty()) {
    members_.reserve(num_nodes);
    for (std::size_t i = 0; i < num_nodes; ++i) {
      members_.push_back(static_cast<NodeId>(i));
    }
  } else {
    members_ = options_.initial_members;
    std::sort(members_.begin(), members_.end());
    members_.erase(std::unique(members_.begin(), members_.end()),
                   members_.end());
  }
  if (options_.directory_mode == DirectoryMode::kPartitioned) {
    // The ring covers the initially active membership; member_joined /
    // member_left resize it at runtime (only remapped ranges migrate,
    // under a dual-read window). An *unplanned* dead owner still
    // quarantines its key range instead — it handed nothing off.
    for (const NodeId n : members_) ring_.add_node(n);
  }
  std::unique_ptr<StorageBackend> backend;
  if (options_.disk_dir.empty()) {
    backend = std::make_unique<MemoryBackend>();
  } else if (options_.store == StoreBackendKind::kVolume) {
    backend = std::make_unique<VolumeBackend>(options_.disk_dir,
                                              options_.volume,
                                              options_.fs_ops, clock_);
  } else {
    backend = std::make_unique<DiskBackend>(options_.disk_dir,
                                            options_.fs_ops);
  }
  store_ = std::make_unique<CacheStore>(options_.limits, options_.policy,
                                        std::move(backend), clock_, self_);
  directory_ = std::make_unique<CacheDirectory>(self_, num_nodes, locking);
  directory_->set_clock(clock_);
  restore_pending_.store(!options_.state_file.empty(),
                         std::memory_order_relaxed);
}

CacheKey CacheManager::key_for(http::Method method, const http::Uri& uri) {
  return CacheKey::make(http::method_name(method), uri.canonical());
}

LookupResult CacheManager::lookup(http::Method method, const http::Uri& uri) {
  return lookup_impl(method, uri, /*deadline=*/nullptr);
}

LookupResult CacheManager::lookup(http::Method method, const http::Uri& uri,
                                  const Deadline& deadline) {
  return lookup_impl(method, uri, &deadline);
}

LookupResult CacheManager::lookup_impl(http::Method method,
                                       const http::Uri& uri,
                                       const Deadline* deadline) {
  lookups_.fetch_add(1, std::memory_order_relaxed);
  LookupResult out;
  out.rule = options_.rules.classify(uri.path);
  if (!out.rule.cacheable) {
    uncacheable_.fetch_add(1, std::memory_order_relaxed);
    out.outcome = LookupOutcome::kUncacheable;
    return out;
  }

  const CacheKey key = key_for(method, uri);
  const auto dir_hit = directory_->lookup(key.text);

  if (dir_hit && dir_hit->owner == self_) {
    auto local = store_->fetch(key.text);
    if (local) {
      directory_->apply_touch(self_, key.text, local->meta.last_access);
      local_hits_.fetch_add(1, std::memory_order_relaxed);
      out.outcome = LookupOutcome::kHit;
      out.result = std::move(*local);
      out.owner = self_;
      return out;
    }
    // Directory said we own it but the store disagrees (expired between the
    // two checks, or data file lost). Retire the entry from both sides in
    // one commit section, then execute.
    retire_dead_entry(key.text);
  } else if (dir_hit) {
    // Remote hit advertised by a local peer table (replicated mode, or a
    // partitioned owner serving keys it also caches knowledge of).
    if (fetch_hit_from(&out, *dir_hit, deadline,
                       FalseHitSource::kLocalTable)) {
      return out;
    }
  } else if (options_.directory_mode == DirectoryMode::kPartitioned) {
    // No local knowledge: ask the key's ring owner for the directory entry.
    // A quarantined (dead) owner takes its key range with it — fall through
    // to local execution, exactly like the dead-peer fetch path. During a
    // ring transition (dual-read window) the remapped range may not have
    // migrated yet, so probe the pre-transition owner first; a miss there
    // falls through to the current owner, so lookups never miss mid-move.
    const NodeId owner_node = ring_owner_of(key.text);
    const NodeId prev_owner = prev_ring_owner_of(key.text);
    if (prev_owner != owner_node) {
      dual_read_probes_.fetch_add(1, std::memory_order_relaxed);
      if (probe_dir_owner(&out, prev_owner, key.text, deadline)) return out;
    }
    if (probe_dir_owner(&out, owner_node, key.text, deadline)) return out;
  } else if (options_.directory_mode == DirectoryMode::kQuery &&
             bus_ != nullptr) {
    // No directory state anywhere: probe the peers (ICP-style), bounded by
    // the transport's query timeout and the request deadline.
    peer_queries_.fetch_add(1, std::memory_order_relaxed);
    const int budget = deadline != nullptr && !deadline->unlimited()
                           ? deadline->budget_ms(0)
                           : 0;
    auto entry = bus_->query_peers(key.text, budget);
    if (entry && entry.value().owner != self_) {
      peer_query_hits_.fetch_add(1, std::memory_order_relaxed);
      EntryMeta meta = std::move(entry.value());
      meta.key = key.text;
      if (fetch_hit_from(&out, meta, deadline, FalseHitSource::kProbe)) {
        return out;
      }
    }
    // Timeouts and all-miss answers both fall back to local execution; the
    // probe was an optimization, not a dependency.
  }

  misses_.fetch_add(1, std::memory_order_relaxed);
  out.outcome = LookupOutcome::kMissMustExecute;
  return finish_miss(std::move(out), key.text, deadline);
}

bool CacheManager::fetch_hit_from(LookupResult* out, const EntryMeta& meta,
                                  const Deadline* deadline,
                                  FalseHitSource source) {
  if (bus_ == nullptr) return false;
  auto remote = deadline != nullptr && !deadline->unlimited()
                    ? bus_->fetch_remote(meta.owner, meta.key,
                                         deadline->budget_ms(0))
                    : bus_->fetch_remote(meta.owner, meta.key);
  if (remote) {
    remote_hits_.fetch_add(1, std::memory_order_relaxed);
    out->outcome = LookupOutcome::kHit;
    out->result = std::move(remote.value());
    out->remote = true;
    out->owner = meta.owner;
    return true;
  }
  if (remote.status().code() == StatusCode::kNotFound) {
    // False hit (§4.2): the entry was deleted at the caching node before
    // the directory caught up. Execute locally, per Figure 2.
    false_hits_.fetch_add(1, std::memory_order_relaxed);
    switch (source) {
      case FalseHitSource::kLocalTable:
        directory_->apply_erase(meta.owner, meta.key);
        break;
      case FalseHitSource::kRingOwner: {
        directory_->apply_erase(meta.owner, meta.key);
        const NodeId owner_node = ring_owner_of(meta.key);
        if (owner_node != self_) {
          bus_->send_owner_erase(owner_node, meta.owner, meta.key, 0);
        }
        break;
      }
      case FalseHitSource::kProbe:
        break;  // no durable record to clean up
    }
  } else {
    // Timeout, dead peer, torn connection: degrade gracefully by running
    // the CGI locally instead of failing the client request.
    fallback_executions_.fetch_add(1, std::memory_order_relaxed);
    SWALA_LOG(Warn) << "remote fetch from node " << meta.owner << " failed ("
                    << remote.status().to_string()
                    << "); falling back to local execution";
  }
  return false;
}

bool CacheManager::probe_dir_owner(LookupResult* out, NodeId owner_node,
                                   const std::string& key,
                                   const Deadline* deadline) {
  if (bus_ == nullptr || owner_node == self_ ||
      directory_->quarantined(owner_node)) {
    return false;
  }
  remote_dir_lookups_.fetch_add(1, std::memory_order_relaxed);
  const int budget = deadline != nullptr && !deadline->unlimited()
                         ? deadline->budget_ms(0)
                         : 0;
  auto entry = bus_->lookup_at_owner(owner_node, key, budget);
  if (entry && entry.value().owner != self_) {
    remote_dir_hits_.fetch_add(1, std::memory_order_relaxed);
    EntryMeta meta = std::move(entry.value());
    meta.key = key;  // defend against a lying/mis-keyed answer
    return fetch_hit_from(out, meta, deadline, FalseHitSource::kRingOwner);
  }
  if (entry) {
    // The owner advertises *us* as the caching node, but our store just
    // said no: a stale record (our erase is still in flight, or was
    // lost). Nudge the owner; the unversioned erase is the same weak-
    // consistency tradeoff as the replicated false-hit cleanup.
    bus_->send_owner_erase(owner_node, self_, key, 0);
  } else if (entry.status().code() != StatusCode::kNotFound) {
    fallback_executions_.fetch_add(1, std::memory_order_relaxed);
    SWALA_LOG(Warn) << "directory lookup at owner " << owner_node
                    << " failed (" << entry.status().to_string()
                    << "); falling back to local execution";
  }
  return false;
}

NodeId CacheManager::ring_owner_of(const std::string& key) const {
  if (options_.directory_mode != DirectoryMode::kPartitioned) return self_;
  std::shared_lock lock(membership_mutex_);
  const auto owner = ring_.owner_of(key);
  return owner == HashRing::kNoOwner ? self_ : static_cast<NodeId>(owner);
}

NodeId CacheManager::prev_ring_owner_of(const std::string& key) const {
  if (options_.directory_mode != DirectoryMode::kPartitioned) return self_;
  std::shared_lock lock(membership_mutex_);
  if (!prev_ring_) {
    // No window open: report the *current* owner so the caller's
    // prev != current comparison reads "no dual read needed".
    const auto owner = ring_.owner_of(key);
    return owner == HashRing::kNoOwner ? self_ : static_cast<NodeId>(owner);
  }
  const auto owner = prev_ring_->owner_of(key);
  return owner == HashRing::kNoOwner ? self_ : static_cast<NodeId>(owner);
}

std::optional<EntryMeta> CacheManager::answer_query(
    const std::string& key) const {
  if (options_.directory_mode == DirectoryMode::kQuery) {
    return directory_->lookup_at(self_, key);
  }
  return directory_->lookup(key);
}

void CacheManager::announce_insert(const EntryMeta& meta) {
  if (bus_ == nullptr) return;
  // A node that is not (yet) a member of its own view serves stand-alone:
  // no directory chatter until the join protocol admits it. Peers would
  // wipe its table on admission anyway (member_joined clears it);
  // adopt_membership re-announces the resident store at that point.
  if (!is_member(self_)) return;
  switch (options_.directory_mode) {
    case DirectoryMode::kReplicated:
      bus_->broadcast_insert(meta);
      break;
    case DirectoryMode::kPartitioned: {
      const NodeId owner = ring_owner_of(meta.key);
      if (owner != self_) bus_->send_owner_insert(owner, meta);
      break;
    }
    case DirectoryMode::kQuery:
      break;  // no remote directory state to keep current
  }
}

bool CacheManager::announce_erase(const std::string& key,
                                  std::uint64_t version) {
  if (bus_ == nullptr) return false;
  if (!is_member(self_)) return false;  // stand-alone until admitted
  switch (options_.directory_mode) {
    case DirectoryMode::kReplicated:
      bus_->broadcast_erase(self_, key, version);
      return true;
    case DirectoryMode::kPartitioned: {
      const NodeId owner = ring_owner_of(key);
      if (owner == self_) return false;
      bus_->send_owner_erase(owner, self_, key, version);
      return true;
    }
    case DirectoryMode::kQuery:
      return false;
  }
  return false;
}

LookupResult CacheManager::finish_miss(LookupResult out, const std::string& key,
                                       const Deadline* deadline) {
  // The plain lookup is the paper's Figure-2 flow without coalescing: every
  // miss executes, and the caller need not call complete()/fail(). The
  // simulator and the chaos harness need exactly that: they complete a
  // miss later in virtual time on the engine's one thread, where a blocking
  // single-flight waiter would stall the engine. Single-flight only engages
  // on the deadline-aware path.
  if (deadline == nullptr) return out;

  std::shared_ptr<InFlight> flight;
  {
    std::lock_guard<std::mutex> lock(inflight_mutex_);
    // Negative cache: a recent execution failure for this key is remembered;
    // fail fast instead of re-forking a CGI that just failed.
    if (auto it = negative_.find(key); it != negative_.end()) {
      if (clock_ != nullptr && clock_->now() < it->second.expires) {
        failed_fast_.fetch_add(1, std::memory_order_relaxed);
        out.outcome = LookupOutcome::kFailedFast;
        out.fail_status = it->second.status;
        out.fail_reason = it->second.reason;
        return out;
      }
      negative_.erase(it);
    }
    auto [it, inserted] =
        inflight_.try_emplace(key, nullptr);
    if (inserted) {
      it->second = std::make_shared<InFlight>();
      return out;  // leader: kMissMustExecute; MUST complete() or fail()
    }
    flight = it->second;
  }

  // Waiter: block on the leader's flight (its own mutex/cv — never the map
  // mutex) until it publishes or our own deadline runs out. Short slices so
  // a ManualClock advanced by a test is noticed without real time passing.
  std::unique_lock<std::mutex> lock(flight->mutex);
  while (!flight->done) {
    if (deadline->expired()) {
      coalesce_timeouts_.fetch_add(1, std::memory_order_relaxed);
      out.outcome = LookupOutcome::kFailedFast;
      out.fail_status = 503;
      out.fail_reason = "deadline expired waiting for in-flight execution";
      return out;
    }
    const int slice_ms =
        deadline->unlimited() ? 50 : std::min(50, deadline->budget_ms(50));
    flight->cv.wait_for(lock, std::chrono::milliseconds(slice_ms));
  }

  coalesced_misses_.fetch_add(1, std::memory_order_relaxed);
  if (!flight->success) {
    out.outcome = LookupOutcome::kFailedFast;
    out.fail_status = flight->fail_status;
    out.fail_reason = flight->fail_reason;
    return out;
  }
  out.outcome = LookupOutcome::kHit;
  out.coalesced = true;
  out.owner = self_;
  out.result.meta.key = key;
  out.result.meta.owner = self_;
  out.result.meta.content_type = flight->output.content_type;
  out.result.meta.http_status = flight->output.http_status;
  out.result.meta.size_bytes = flight->output.size_bytes();
  out.result.data = flight->output.body;
  return out;
}

void CacheManager::publish_execution(const std::string& key, bool success,
                                     const cgi::CgiOutput* output,
                                     int fail_status,
                                     const std::string& fail_reason) {
  std::shared_ptr<InFlight> flight;
  {
    std::lock_guard<std::mutex> lock(inflight_mutex_);
    auto it = inflight_.find(key);
    if (it == inflight_.end()) return;  // no single-flight leader for key
    flight = std::move(it->second);
    inflight_.erase(it);
  }
  {
    std::lock_guard<std::mutex> lock(flight->mutex);
    flight->done = true;
    flight->success = success;
    if (success && output != nullptr) {
      flight->output = *output;
    } else {
      flight->fail_status = fail_status;
      flight->fail_reason = fail_reason;
    }
  }
  flight->cv.notify_all();
}

void CacheManager::record_negative(const std::string& key, int status,
                                   const std::string& reason) {
  if (options_.negative_ttl_seconds <= 0.0 || clock_ == nullptr) return;
  NegativeEntry entry;
  entry.expires =
      clock_->now() + from_seconds(options_.negative_ttl_seconds);
  entry.status = status;
  entry.reason = reason;
  std::lock_guard<std::mutex> lock(inflight_mutex_);
  negative_[key] = std::move(entry);
}

void CacheManager::prune_negative() {
  if (clock_ == nullptr) return;
  const TimeNs now = clock_->now();
  std::lock_guard<std::mutex> lock(inflight_mutex_);
  for (auto it = negative_.begin(); it != negative_.end();) {
    it = now >= it->second.expires ? negative_.erase(it) : std::next(it);
  }
}

void CacheManager::fail(http::Method method, const http::Uri& uri,
                        const RuleDecision& rule, int http_status,
                        const std::string& reason, bool remember) {
  if (!rule.cacheable) return;
  const CacheKey key = key_for(method, uri);
  if (remember) {
    failed_exec_.fetch_add(1, std::memory_order_relaxed);
    record_negative(key.text, http_status, reason);
  }
  publish_execution(key.text, /*success=*/false, nullptr, http_status, reason);
}

void CacheManager::complete(http::Method method, const http::Uri& uri,
                            const RuleDecision& rule,
                            const cgi::CgiOutput& output,
                            double exec_seconds) {
  if (!rule.cacheable) return;
  const CacheKey key = key_for(method, uri);
  if (!output.success || output.http_status >= 400) {
    failed_exec_.fetch_add(1, std::memory_order_relaxed);
    // Remember the failure so the next misses within negative_ttl fail
    // fast, and hand waiters the error rather than the cached-path result.
    record_negative(key.text,
                    output.http_status >= 400 ? output.http_status : 502,
                    "CGI execution failed");
    publish_execution(key.text, /*success=*/false, nullptr,
                      output.http_status >= 400 ? output.http_status : 502,
                      "CGI execution failed");
    return;
  }
  // Waiters get the output even when it is too fast to cache or the store
  // is degraded — the execution succeeded, so coalesced requests must not
  // see an error. Published before any early return below.
  publish_execution(key.text, /*success=*/true, &output, 0, {});
  if (exec_seconds < rule.min_exec_seconds) {
    below_threshold_.fetch_add(1, std::memory_order_relaxed);
    return;
  }

  // Leaving the cluster: the decommission handoff snapshot must not race
  // fresh inserts into the departing store (the response still went out).
  if (decommissioning_.load(std::memory_order_relaxed)) return;

  // Disk gone bad: serve uncacheable instead of hammering a failing device
  // on every request (the response itself was already produced).
  if (degraded_should_skip()) {
    degraded_skips_.fetch_add(1, std::memory_order_relaxed);
    return;
  }

  // Commit section: the store insert, the eviction victims' directory
  // erases, the new entry's directory insert, and all broadcast enqueues
  // publish as one unit. The victims' versions are read and applied inside
  // the same section, so a concurrent re-insert of a victim key cannot be
  // erased with a stale version.
  std::lock_guard<std::mutex> commit(commit_mutex_);
  std::vector<EntryMeta> evicted;
  auto inserted =
      store_->insert(key, output.body, exec_seconds, rule.ttl_seconds,
                     output.content_type, output.http_status, &evicted);

  for (const auto& victim : evicted) {
    directory_->apply_erase(self_, victim.key, victim.version);
    if (announce_erase(victim.key, victim.version)) {
      evictions_broadcast_.fetch_add(1, std::memory_order_relaxed);
    }
  }

  record_insert_outcome(!inserted &&
                        inserted.status().code() == StatusCode::kIoError);
  if (!inserted) {
    SWALA_LOG(Debug) << "insert rejected: " << inserted.status().to_string();
    if (!evicted.empty()) ++commit_seq_;
    return;
  }
  inserts_.fetch_add(1, std::memory_order_relaxed);
  directory_->apply_insert(inserted.value());
  announce_insert(inserted.value());
  ++commit_seq_;
}

void CacheManager::retire_dead_entry(const std::string& key) {
  std::lock_guard<std::mutex> commit(commit_mutex_);
  // Re-validate: another thread may have replaced the entry between our
  // failed fetch and this commit section. peek() hides expired entries, so
  // a live meta means a fresh re-insert we must not disturb.
  if (store_->peek(key).has_value()) return;
  const auto dead = store_->erase(key);
  directory_->apply_erase(self_, key, dead ? dead->version : 0);
  if (dead) announce_erase(key, dead->version);
  ++commit_seq_;
}

void CacheManager::on_peer_insert(const EntryMeta& meta) {
  if (meta.owner == self_) return;  // our own broadcast echoed back
  // False-miss evidence (§4.2): if we also cached this key locally, both
  // nodes executed the same request — one execution was avoidable.
  if (store_->contains(meta.key)) {
    false_misses_.fetch_add(1, std::memory_order_relaxed);
  }
  directory_->apply_insert(meta);
}

void CacheManager::on_peer_erase(NodeId owner, const std::string& key,
                                 std::uint64_t version) {
  if (owner == self_) return;
  directory_->apply_erase(owner, key, version);
}

Result<CachedResult> CacheManager::serve_peer_fetch(const std::string& key) {
  auto local = store_->fetch(key);
  if (!local) {
    return Status(StatusCode::kNotFound, "not cached here: " + key);
  }
  directory_->apply_touch(self_, key, local->meta.last_access);
  return std::move(*local);
}

std::size_t CacheManager::purge_expired() {
  std::size_t count = 0;
  {
    std::lock_guard<std::mutex> commit(commit_mutex_);
    const auto purged = store_->purge_expired();
    for (const auto& meta : purged) {
      directory_->apply_erase(self_, meta.key, meta.version);
      announce_erase(meta.key, meta.version);
    }
    if (!purged.empty()) ++commit_seq_;
    count = purged.size();
  }
  // Outside the commit mutex: a slow disk during the checkpoint must not
  // stall request threads (the store serializes itself internally).
  maybe_checkpoint();
  prune_negative();
  // A run of erase (unlink) failures is the same dying-disk signal as a run
  // of put failures — feed it into the degradation path so leaked space
  // from failed unlinks can't accumulate unnoticed. The existing probe
  // inserts recover the store once the disk heals.
  if (!degraded_.load(std::memory_order_relaxed) &&
      options_.disk_failure_threshold > 0 &&
      store_->storage_counters().consecutive_erase_failures >=
          static_cast<std::uint64_t>(options_.disk_failure_threshold)) {
    if (!degraded_.exchange(true, std::memory_order_relaxed)) {
      SWALA_LOG(Error) << "node " << self_
                       << ": repeated erase failures; cache store degraded "
                          "to serve-uncacheable mode";
    }
  }
  return count;
}

bool CacheManager::degraded_should_skip() {
  if (!degraded_.load(std::memory_order_relaxed)) return false;
  const auto n = degraded_attempts_.fetch_add(1, std::memory_order_relaxed);
  const int every = options_.degraded_probe_every > 0
                        ? options_.degraded_probe_every
                        : 1;
  return n % static_cast<std::uint64_t>(every) != 0;  // probe occasionally
}

void CacheManager::record_insert_outcome(bool io_failure) {
  if (!io_failure) {
    consecutive_put_failures_.store(0, std::memory_order_relaxed);
    if (degraded_.exchange(false, std::memory_order_relaxed)) {
      SWALA_LOG(Info) << "node " << self_
                      << ": cache store recovered; caching re-enabled";
    }
    return;
  }
  disk_errors_.fetch_add(1, std::memory_order_relaxed);
  const int failures =
      consecutive_put_failures_.fetch_add(1, std::memory_order_relaxed) + 1;
  if (failures >= options_.disk_failure_threshold &&
      !degraded_.exchange(true, std::memory_order_relaxed)) {
    SWALA_LOG(Error) << "node " << self_ << ": " << failures
                     << " consecutive disk failures; cache store degraded to "
                        "serve-uncacheable mode";
  }
}

void CacheManager::maybe_checkpoint() {
  if (options_.state_file.empty()) return;
  // The purge daemon can tick before the warm restore; checkpointing then
  // would overwrite the manifest the restore is about to read.
  if (restore_pending_.load(std::memory_order_relaxed)) return;
  {
    std::lock_guard<std::mutex> lock(durability_mutex_);
    const TimeNs now = clock_->now();
    if (last_checkpoint_time_ != 0 &&
        to_seconds(now - last_checkpoint_time_) <
            options_.checkpoint_interval_seconds) {
      return;
    }
    last_checkpoint_time_ = now;
  }
  if (auto st = store_->save_manifest(options_.state_file); st.is_ok()) {
    checkpoints_.fetch_add(1, std::memory_order_relaxed);
  } else {
    checkpoint_failures_.fetch_add(1, std::memory_order_relaxed);
    SWALA_LOG(Warn) << "manifest checkpoint failed: " << st.to_string();
  }
}

std::size_t CacheManager::invalidate(const std::string& pattern) {
  return apply_invalidation(pattern, /*rebroadcast=*/true, self_, 0);
}

std::size_t CacheManager::on_peer_invalidate(const std::string& pattern) {
  return apply_invalidation(pattern, /*rebroadcast=*/false, kInvalidNode, 0);
}

std::size_t CacheManager::on_peer_invalidate(const std::string& pattern,
                                             NodeId origin,
                                             std::uint64_t epoch) {
  return apply_invalidation(pattern, /*rebroadcast=*/false, origin, epoch);
}

void CacheManager::on_peer_dead(NodeId peer) {
  if (peer == self_) return;
  directory_->set_quarantined(peer, true);
  SWALA_LOG(Warn) << "node " << self_ << ": peer " << peer
                  << " declared dead; directory table quarantined";
}

void CacheManager::on_peer_recovered(NodeId peer) {
  if (peer == self_) return;
  const auto dropped = directory_->clear_table(peer);
  directory_->set_quarantined(peer, false);
  SWALA_LOG(Info) << "node " << self_ << ": peer " << peer
                  << " recovered; dropped " << dropped
                  << " stale directory entries pending resync";
}

// ---- Dynamic membership (PR10) ----

std::uint64_t CacheManager::membership_epoch() const {
  return membership_epoch_.load(std::memory_order_relaxed);
}

std::vector<NodeId> CacheManager::active_members() const {
  std::shared_lock lock(membership_mutex_);
  return members_;
}

bool CacheManager::is_member(NodeId node) const {
  std::shared_lock lock(membership_mutex_);
  return std::binary_search(members_.begin(), members_.end(), node);
}

CacheManager::HandoffStats CacheManager::member_joined(NodeId node) {
  HandoffStats stats;
  bool changed = false;
  bool ring_changed = false;
  HashRing old_ring(options_.ring_seed, options_.ring_vnodes);
  HashRing new_ring(options_.ring_seed, options_.ring_vnodes);
  {
    std::unique_lock lock(membership_mutex_);
    const auto pos = std::lower_bound(members_.begin(), members_.end(), node);
    if (pos == members_.end() || *pos != node) {
      members_.insert(pos, node);
      changed = true;
    }
    if (options_.directory_mode == DirectoryMode::kPartitioned &&
        !ring_.contains(node)) {
      old_ring = ring_;
      prev_ring_ = ring_;  // open the dual-read window
      ring_.add_node(node);
      new_ring = ring_;
      changed = ring_changed = true;
    }
  }
  if (!changed) return stats;
  membership_epoch_.fetch_add(1, std::memory_order_relaxed);
  membership_transitions_.fetch_add(1, std::memory_order_relaxed);
  if (node != self_) {
    // Drop any stale state from a previous life of this slot; a joining
    // member must not start its new life quarantined.
    directory_->clear_table(node);
    directory_->set_quarantined(node, false);
  }
  if (ring_changed) stats = reannounce_remapped(old_ring, new_ring);
  SWALA_LOG(Info) << "node " << self_ << ": member " << node
                  << " joined (epoch " << membership_epoch() << "); forwarded "
                  << stats.records + stats.entries << " remapped records";
  return stats;
}

CacheManager::HandoffStats CacheManager::member_left(NodeId node) {
  HandoffStats stats;
  if (node == self_) return stats;  // self-removal goes via decommission
  bool changed = false;
  bool ring_changed = false;
  HashRing old_ring(options_.ring_seed, options_.ring_vnodes);
  HashRing new_ring(options_.ring_seed, options_.ring_vnodes);
  {
    std::unique_lock lock(membership_mutex_);
    const auto pos = std::lower_bound(members_.begin(), members_.end(), node);
    if (pos != members_.end() && *pos == node) {
      members_.erase(pos);
      changed = true;
    }
    if (options_.directory_mode == DirectoryMode::kPartitioned &&
        ring_.contains(node)) {
      old_ring = ring_;
      prev_ring_ = ring_;  // open the dual-read window
      ring_.remove_node(node);
      new_ring = ring_;
      changed = ring_changed = true;
    }
  }
  if (!changed) return stats;
  membership_epoch_.fetch_add(1, std::memory_order_relaxed);
  membership_transitions_.fetch_add(1, std::memory_order_relaxed);
  // Graceful leave, not death: clear the table without quarantining (the
  // leaver handed its state off; quarantine is the unplanned-death path).
  directory_->clear_table(node);
  directory_->set_quarantined(node, false);
  if (ring_changed) stats = reannounce_remapped(old_ring, new_ring);
  SWALA_LOG(Info) << "node " << self_ << ": member " << node
                  << " left (epoch " << membership_epoch() << "); forwarded "
                  << stats.records + stats.entries << " remapped records";
  return stats;
}

void CacheManager::adopt_membership(std::uint64_t epoch,
                                    const std::vector<NodeId>& members) {
  std::vector<NodeId> sorted(members);
  sorted.push_back(self_);  // whatever the responder says, we exist
  std::sort(sorted.begin(), sorted.end());
  sorted.erase(std::unique(sorted.begin(), sorted.end()), sorted.end());
  bool changed = false;
  {
    std::unique_lock lock(membership_mutex_);
    if (sorted != members_) {
      if (options_.directory_mode == DirectoryMode::kPartitioned) {
        prev_ring_ = ring_;  // dual read across the adopted change
        HashRing fresh(options_.ring_seed, options_.ring_vnodes);
        for (const NodeId n : sorted) fresh.add_node(n);
        ring_ = std::move(fresh);
      }
      members_ = std::move(sorted);
      changed = true;
    }
  }
  // Advance to at least the responder's epoch: we were not around for the
  // transitions it already applied.
  auto current = membership_epoch_.load(std::memory_order_relaxed);
  while (epoch > current &&
         !membership_epoch_.compare_exchange_weak(current, epoch,
                                                  std::memory_order_relaxed)) {
  }
  if (changed) {
    membership_transitions_.fetch_add(1, std::memory_order_relaxed);
    // Introduce the local cache to the adopted cluster. Entries cached
    // while stand-alone (or under the old view) have no records at the
    // new directory owners — and peers wiped this node's table on
    // admission — so without this they would be invisible forever.
    std::size_t announced = 0;
    if (bus_ != nullptr) {
      for (const auto& meta : store_->resident_metas()) {
        announce_insert(meta);
        ++announced;
      }
    }
    handoff_records_sent_.fetch_add(announced, std::memory_order_relaxed);
    SWALA_LOG(Info) << "node " << self_ << ": adopted membership view ("
                    << members.size() << " members, epoch " << epoch
                    << "); announced " << announced << " resident entries";
  }
}

void CacheManager::begin_decommission() {
  if (!decommissioning_.exchange(true, std::memory_order_relaxed)) {
    SWALA_LOG(Info) << "node " << self_
                    << ": decommissioning; new inserts suspended";
  }
}

bool CacheManager::decommissioning() const {
  return decommissioning_.load(std::memory_order_relaxed);
}

NodeId CacheManager::successor_for(const std::string& key) const {
  std::shared_lock lock(membership_mutex_);
  if (options_.directory_mode == DirectoryMode::kPartitioned) {
    HashRing reduced = ring_;
    reduced.remove_node(self_);
    const auto owner = reduced.owner_of(key);
    return owner == HashRing::kNoOwner ? self_ : static_cast<NodeId>(owner);
  }
  // Replicated/query: deterministic key-hash spread over the survivors.
  std::size_t others = 0;
  for (const NodeId n : members_) {
    if (n != self_) ++others;
  }
  if (others == 0) return self_;
  std::size_t index = mix64(fnv1a64(key)) % others;
  for (const NodeId n : members_) {
    if (n == self_) continue;
    if (index-- == 0) return n;
  }
  return self_;  // unreachable
}

CacheManager::HandoffStats CacheManager::handoff_state(
    std::uint64_t batch_bytes) {
  HandoffStats stats;
  if (bus_ == nullptr) return stats;
  // Successor placement under the ring with self removed, computed once
  // (partitioned); replicated/query fall back to successor_for's key-hash
  // spread. begin_decommission already stopped inserts, so the snapshot
  // only races expiry (fetch() re-checks and skips).
  std::optional<HashRing> reduced;
  if (options_.directory_mode == DirectoryMode::kPartitioned) {
    std::shared_lock lock(membership_mutex_);
    reduced = ring_;
  }
  if (reduced) reduced->remove_node(self_);
  const auto successor = [&](const std::string& key) {
    if (!reduced) return successor_for(key);
    const auto owner = reduced->owner_of(key);
    return owner == HashRing::kNoOwner ? self_ : static_cast<NodeId>(owner);
  };
  for (const auto& meta : store_->resident_metas()) {
    const NodeId succ = successor(meta.key);
    if (succ == self_) continue;  // no survivor to take it
    auto cached = store_->fetch(meta.key);
    if (!cached) continue;  // expired between snapshot and read
    if (batch_bytes != 0 && cached->data.size() > batch_bytes) {
      SWALA_LOG(Warn) << "decommission: dropping " << meta.key
                      << " (body exceeds cluster.handoff_batch_bytes)";
      continue;
    }
    bus_->send_handoff(succ, cached->meta, cached->data);
    ++stats.entries;
  }
  if (reduced) {
    // Forward the directory partition this node owns to its post-removal
    // owners. Records pointing at our own (departing) cache are skipped:
    // those entries shipped above, and the successors' adoptions
    // re-announce them with a live owner.
    for (NodeId t = 0; t < directory_->num_nodes(); ++t) {
      if (t == self_) continue;
      for (const auto& meta : directory_->metas_at(t)) {
        if (ring_owner_of(meta.key) != self_) continue;  // not our partition
        const auto owner = reduced->owner_of(meta.key);
        if (owner == HashRing::kNoOwner) continue;
        const NodeId to = static_cast<NodeId>(owner);
        if (to == self_) continue;
        bus_->send_owner_insert(to, meta);
        ++stats.records;
      }
    }
  }
  handoff_entries_sent_.fetch_add(stats.entries, std::memory_order_relaxed);
  handoff_records_sent_.fetch_add(stats.records, std::memory_order_relaxed);
  SWALA_LOG(Info) << "node " << self_ << ": handed off " << stats.entries
                  << " entries and " << stats.records
                  << " directory records to successors";
  return stats;
}

bool CacheManager::adopt_entry(const EntryMeta& meta, const std::string& body) {
  if (decommissioning_.load(std::memory_order_relaxed)) return false;
  double ttl = 0.0;
  if (meta.expire_time != 0) {
    if (clock_ == nullptr) return false;
    ttl = to_seconds(meta.expire_time - clock_->now());
    if (ttl <= 0.0) return false;  // arrived already expired
  }
  if (degraded_should_skip()) {
    degraded_skips_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  std::lock_guard<std::mutex> commit(commit_mutex_);
  // A live local entry wins: it is at least as fresh as the handed-off copy
  // (versions are per-store counters and do not compare across nodes).
  if (store_->peek(meta.key).has_value()) return false;
  CacheKey key;
  key.text = meta.key;
  std::vector<EntryMeta> evicted;
  auto inserted = store_->insert(key, body, meta.cost_seconds, ttl,
                                 meta.content_type, meta.http_status,
                                 &evicted);
  for (const auto& victim : evicted) {
    directory_->apply_erase(self_, victim.key, victim.version);
    if (announce_erase(victim.key, victim.version)) {
      evictions_broadcast_.fetch_add(1, std::memory_order_relaxed);
    }
  }
  record_insert_outcome(!inserted &&
                        inserted.status().code() == StatusCode::kIoError);
  if (!inserted) {
    if (!evicted.empty()) ++commit_seq_;
    return false;
  }
  inserts_.fetch_add(1, std::memory_order_relaxed);
  handoff_entries_adopted_.fetch_add(1, std::memory_order_relaxed);
  directory_->apply_insert(inserted.value());
  announce_insert(inserted.value());
  ++commit_seq_;
  return true;
}

void CacheManager::finish_ring_transition() {
  std::unique_lock lock(membership_mutex_);
  prev_ring_.reset();
}

bool CacheManager::ring_transition_active() const {
  std::shared_lock lock(membership_mutex_);
  return prev_ring_.has_value();
}

std::uint64_t CacheManager::ring_version() const {
  std::shared_lock lock(membership_mutex_);
  return ring_.version();
}

CacheManager::HandoffStats CacheManager::reannounce_remapped(
    const HashRing& old_ring, const HashRing& new_ring) {
  HandoffStats stats;
  if (bus_ == nullptr) return stats;
  const auto owner_in = [this](const HashRing& ring, const std::string& key) {
    const auto owner = ring.owner_of(key);
    return owner == HashRing::kNoOwner ? self_ : static_cast<NodeId>(owner);
  };
  // Cache-node side: re-announce own entries whose directory owner moved.
  // The stale record at the old owner is left in place — during the
  // dual-read window it is what keeps pre-transition readers hitting, and
  // afterwards it ages out via expiry / version-guarded erase.
  for (const auto& meta : store_->resident_metas()) {
    const NodeId from = owner_in(old_ring, meta.key);
    const NodeId to = owner_in(new_ring, meta.key);
    if (from == to || to == self_) continue;
    bus_->send_owner_insert(to, meta);
    ++stats.entries;
  }
  // Owner side: directory partition records held for *other* nodes' caches
  // that now belong to another owner (own entries are covered above).
  for (NodeId t = 0; t < directory_->num_nodes(); ++t) {
    if (t == self_) continue;
    for (const auto& meta : directory_->metas_at(t)) {
      if (owner_in(old_ring, meta.key) != self_) continue;
      const NodeId to = owner_in(new_ring, meta.key);
      if (to == self_) continue;
      bus_->send_owner_insert(to, meta);
      ++stats.records;
    }
  }
  handoff_records_sent_.fetch_add(stats.records + stats.entries,
                                  std::memory_order_relaxed);
  return stats;
}

std::size_t CacheManager::apply_invalidation(const std::string& pattern,
                                             bool rebroadcast, NodeId origin,
                                             std::uint64_t epoch) {
  std::lock_guard<std::mutex> commit(commit_mutex_);
  std::uint64_t stamped_epoch = epoch;
  if (rebroadcast) {
    // Locally originated: stamp the next epoch inside the commit section so
    // the epoch order matches the store-mutation order.
    stamped_epoch = inv_log_.originate(self_, pattern).epoch;
  } else if (epoch != 0) {
    InvalidationRecord rec;
    rec.origin = origin;
    rec.epoch = epoch;
    rec.pattern = pattern;
    if (!inv_log_.admit(rec)) return 0;  // replayed frame: exact no-op
  }
  const auto dropped = store_->erase_matching(pattern);
  directory_->erase_matching(pattern);
  if (rebroadcast && bus_ != nullptr) {
    bus_->broadcast_invalidate(pattern, stamped_epoch);
  }
  invalidations_.fetch_add(dropped.size(), std::memory_order_relaxed);
  ++commit_seq_;
  return dropped.size();
}

EpochVector CacheManager::inv_high_vector() const {
  return inv_log_.high_vector();
}

EpochVector CacheManager::inv_floor_vector() const {
  return inv_log_.floor_vector();
}

bool CacheManager::inv_behind(const EpochVector& peer_high) const {
  return inv_log_.behind(peer_high);
}

std::vector<InvalidationRecord> CacheManager::inv_entries_after(
    const EpochVector& floors, bool* truncated) const {
  return inv_log_.entries_after(floors, truncated);
}

std::size_t CacheManager::apply_inv_sync(
    const std::vector<InvalidationRecord>& entries, bool truncated) {
  std::size_t applied = 0;
  {
    std::lock_guard<std::mutex> commit(commit_mutex_);
    for (const auto& rec : entries) {
      if (rec.epoch == 0 || !inv_log_.admit(rec)) continue;  // replay: no-op
      const auto dropped = store_->erase_matching(rec.pattern);
      directory_->erase_matching(rec.pattern);
      // Announce the erases: survivors' peer tables were re-polluted by the
      // additions-only resync and must drop the stale records too.
      for (const auto& meta : dropped) {
        announce_erase(meta.key, meta.version);
      }
      ++applied;
      inv_epoch_gaps_repaired_.fetch_add(1, std::memory_order_relaxed);
      invalidations_.fetch_add(dropped.size(), std::memory_order_relaxed);
      stale_serves_prevented_.fetch_add(dropped.size(),
                                        std::memory_order_relaxed);
    }
    if (truncated) {
      // The peer's log evicted records we needed. Conservatively drop
      // everything cached before the gap rather than stay stale forever.
      const auto dropped = store_->erase_matching("*");
      directory_->erase_matching("*");
      for (const auto& meta : dropped) {
        announce_erase(meta.key, meta.version);
      }
      inv_overflow_purges_.fetch_add(1, std::memory_order_relaxed);
      invalidations_.fetch_add(dropped.size(), std::memory_order_relaxed);
      stale_serves_prevented_.fetch_add(dropped.size(),
                                        std::memory_order_relaxed);
    }
    if (applied > 0 || truncated) ++commit_seq_;
  }
  if (applied > 0) {
    SWALA_LOG(Info) << "node " << self_ << ": repaired " << applied
                    << " missed invalidation(s) via anti-entropy pull";
  }
  return applied;
}

namespace {

// Order-independent xor of mixed (key, version) terms: mix64 decorrelates
// the terms so a single-bit version bump flips ~half the digest bits.
std::uint64_t digest_of(
    const std::vector<std::pair<std::string, std::uint64_t>>& pairs) {
  std::uint64_t d = 0;
  for (const auto& [key, version] : pairs) {
    d ^= mix64(fnv1a64(key) ^ version * 0x9E3779B97F4A7C15ULL);
  }
  return d;
}

}  // namespace

std::uint64_t CacheManager::digest_for_peer(NodeId peer,
                                            std::size_t* entries) const {
  std::vector<std::pair<std::string, std::uint64_t>> pairs;
  switch (options_.directory_mode) {
    case DirectoryMode::kReplicated:
      // The peer mirrors our whole self table.
      pairs = directory_->key_versions_at(self_);
      break;
    case DirectoryMode::kPartitioned: {
      // The peer holds directory records for the subset of our store it
      // owns on the ring.
      for (auto& [key, version] : directory_->key_versions_at(self_)) {
        if (ring_owner_of(key) == peer) pairs.emplace_back(std::move(key),
                                                           version);
      }
      break;
    }
    case DirectoryMode::kQuery:
      break;  // query mode keeps no peer state to compare
  }
  if (entries != nullptr) *entries = pairs.size();
  return digest_of(pairs);
}

std::uint64_t CacheManager::digest_of_peer_table(NodeId peer,
                                                 std::size_t* entries) const {
  std::vector<std::pair<std::string, std::uint64_t>> pairs;
  switch (options_.directory_mode) {
    case DirectoryMode::kReplicated:
      pairs = directory_->key_versions_at(peer);
      break;
    case DirectoryMode::kPartitioned: {
      // Only the keys we own on the ring: a mis-routed kOwnerUpdate parked
      // in our table must not cause a persistent mismatch storm.
      for (auto& [key, version] : directory_->key_versions_at(peer)) {
        if (ring_owner_of(key) == self_) pairs.emplace_back(std::move(key),
                                                            version);
      }
      break;
    }
    case DirectoryMode::kQuery:
      break;
  }
  if (entries != nullptr) *entries = pairs.size();
  return digest_of(pairs);
}

Status CacheManager::save_state(const std::string& manifest_path) {
  return store_->save_manifest(manifest_path);
}

Result<std::size_t> CacheManager::restore_state(
    const std::string& manifest_path) {
  std::lock_guard<std::mutex> commit(commit_mutex_);
  auto restored = store_->load_manifest(manifest_path);
  if (!restored &&
      restored.status().code() != StatusCode::kNotFound) {
    // Unreadable or newer-format manifest: leave the directory contents
    // alone (no scrub — a rollback must not destroy a newer deployment's
    // files) and surface the error. restore_pending_ stays set, so this
    // process will never checkpoint over the manifest either.
    return restored.status();
  }
  restore_pending_.store(false, std::memory_order_relaxed);
  const std::size_t count = restored ? restored.value() : 0;
  for (const auto& meta : store_->resident_metas()) {
    directory_->apply_insert(meta);
    announce_insert(meta);
  }
  // fsck: corrupt files were quarantined during adoption; now drop orphans
  // (torn puts the crash cut off, entries skipped as expired) and temps.
  // Runs even when the manifest is missing, so a first boot over a dirty
  // directory comes up clean.
  const ScrubReport report = store_->scrub_backend();
  {
    std::lock_guard<std::mutex> lock(durability_mutex_);
    last_scrub_ = report;
  }
  SWALA_LOG(Info) << "restore_state: " << count << " entries restored, "
                  << report.quarantined << " quarantined, "
                  << report.orphans_removed << " orphans and "
                  << report.temps_removed << " temp files removed";
  ++commit_seq_;
  if (!restored) return restored.status();  // kNotFound: scrubbed, 0 restored
  return restored;
}

ScrubReport CacheManager::last_scrub() const {
  std::lock_guard<std::mutex> lock(durability_mutex_);
  return last_scrub_;
}

ConsistencyReport CacheManager::debug_check_consistency() const {
  std::lock_guard<std::mutex> commit(commit_mutex_);
  return check_store_directory_consistency(*store_, *directory_);
}

std::uint64_t CacheManager::commit_sequence() const {
  std::lock_guard<std::mutex> commit(commit_mutex_);
  return commit_seq_;
}

ManagerStats CacheManager::stats() const {
  ManagerStats s;
  s.lookups = lookups_.load(std::memory_order_relaxed);
  s.uncacheable = uncacheable_.load(std::memory_order_relaxed);
  s.local_hits = local_hits_.load(std::memory_order_relaxed);
  s.remote_hits = remote_hits_.load(std::memory_order_relaxed);
  s.misses = misses_.load(std::memory_order_relaxed);
  s.inserts = inserts_.load(std::memory_order_relaxed);
  s.below_threshold = below_threshold_.load(std::memory_order_relaxed);
  s.failed_exec = failed_exec_.load(std::memory_order_relaxed);
  s.false_hits = false_hits_.load(std::memory_order_relaxed);
  s.false_misses = false_misses_.load(std::memory_order_relaxed);
  s.evictions_broadcast = evictions_broadcast_.load(std::memory_order_relaxed);
  s.invalidations = invalidations_.load(std::memory_order_relaxed);
  s.fallback_executions = fallback_executions_.load(std::memory_order_relaxed);
  s.remote_dir_lookups = remote_dir_lookups_.load(std::memory_order_relaxed);
  s.remote_dir_hits = remote_dir_hits_.load(std::memory_order_relaxed);
  s.peer_queries = peer_queries_.load(std::memory_order_relaxed);
  s.peer_query_hits = peer_query_hits_.load(std::memory_order_relaxed);
  s.coalesced_misses = coalesced_misses_.load(std::memory_order_relaxed);
  s.coalesce_timeouts = coalesce_timeouts_.load(std::memory_order_relaxed);
  s.failed_fast = failed_fast_.load(std::memory_order_relaxed);
  s.disk_errors = disk_errors_.load(std::memory_order_relaxed);
  s.degraded_skips = degraded_skips_.load(std::memory_order_relaxed);
  s.store_degraded = degraded_.load(std::memory_order_relaxed) ? 1 : 0;
  s.checkpoints = checkpoints_.load(std::memory_order_relaxed);
  s.checkpoint_failures = checkpoint_failures_.load(std::memory_order_relaxed);
  s.inv_epoch_gaps_repaired =
      inv_epoch_gaps_repaired_.load(std::memory_order_relaxed);
  s.stale_serves_prevented =
      stale_serves_prevented_.load(std::memory_order_relaxed);
  s.inv_overflow_purges = inv_overflow_purges_.load(std::memory_order_relaxed);
  s.membership_transitions =
      membership_transitions_.load(std::memory_order_relaxed);
  s.handoff_records_sent =
      handoff_records_sent_.load(std::memory_order_relaxed);
  s.handoff_entries_sent =
      handoff_entries_sent_.load(std::memory_order_relaxed);
  s.handoff_entries_adopted =
      handoff_entries_adopted_.load(std::memory_order_relaxed);
  s.dual_read_probes = dual_read_probes_.load(std::memory_order_relaxed);
  return s;
}

}  // namespace swala::core
