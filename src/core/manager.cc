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
      placement_(Placement::make(options_.directory_mode, this)),
      // The ring covers the initially active membership; member_joined /
      // member_left resize it at runtime. An *unplanned* dead owner still
      // quarantines its key range instead: it handed nothing off.
      membership_(self, num_nodes, options_.initial_members,
                  placement_->uses_ring(), options_.ring_seed,
                  options_.ring_vnodes),
      inv_log_(options_.inv_log_entries) {
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
    const Fetch fetched = fetch_hit_from(&out, *dir_hit, deadline);
    if (fetched == Fetch::kHit) return out;
    if (fetched == Fetch::kFalseHit) {
      directory_->apply_erase(dir_hit->owner, dir_hit->key);
    }
  } else if (placement_->probe(&out, key.text, deadline)) {
    return out;
  }

  misses_.fetch_add(1, std::memory_order_relaxed);
  out.outcome = LookupOutcome::kMissMustExecute;
  return finish_miss(std::move(out), key.text, deadline);
}

CacheManager::Fetch CacheManager::fetch_hit_from(LookupResult* out,
                                                 const EntryMeta& meta,
                                                 const Deadline* deadline) {
  if (bus_ == nullptr) return Fetch::kFailed;
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
    return Fetch::kHit;
  }
  if (remote.status().code() == StatusCode::kNotFound) {
    // False hit (§4.2): the entry was deleted at the caching node before
    // the directory caught up. Execute locally, per Figure 2.
    false_hits_.fetch_add(1, std::memory_order_relaxed);
    return Fetch::kFalseHit;
  }
  // Timeout, dead peer, torn connection: degrade gracefully by running the
  // CGI locally instead of failing the client request.
  fallback_executions_.fetch_add(1, std::memory_order_relaxed);
  SWALA_LOG(Warn) << "remote fetch from node " << meta.owner << " failed ("
                  << remote.status().to_string()
                  << "); falling back to local execution";
  return Fetch::kFailed;
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
  commit_insert(key, output.body, exec_seconds, rule.ttl_seconds,
                output.content_type, output.http_status);
}

bool CacheManager::commit_insert(const CacheKey& key, std::string_view body,
                                 double cost_seconds, double ttl_seconds,
                                 const std::string& content_type,
                                 int http_status) {
  std::vector<EntryMeta> evicted;
  auto inserted = store_->insert(key, body, cost_seconds, ttl_seconds,
                                 content_type, http_status, &evicted);
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
    return false;
  }
  inserts_.fetch_add(1, std::memory_order_relaxed);
  directory_->apply_insert(inserted.value());
  announce_insert(inserted.value());
  ++commit_seq_;
  return true;
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

CacheManager::HandoffStats CacheManager::apply_transition(NodeId node,
                                                          bool join) {
  HandoffStats stats;
  const auto change = membership_.transition(node, join);
  if (!change) return stats;
  membership_transitions_.fetch_add(1, std::memory_order_relaxed);
  if (node != self_) {
    // A joiner drops its slot's previous life; a graceful leaver handed its
    // state off. Neither is quarantined (that is the unplanned-death path).
    directory_->clear_table(node);
    directory_->set_quarantined(node, false);
  }
  if (change->before && bus_ != nullptr) {
    // Forward the remapped slice. Own entries go to their new owner; the
    // stale record at the old one keeps dual-read lookups hitting until it
    // ages out via expiry or a version-guarded erase.
    for (const auto& meta : store_->resident_metas()) {
      const NodeId to = membership_.owner_on(*change->after, meta.key);
      if (to == self_ || to == membership_.owner_on(*change->before, meta.key)) {
        continue;
      }
      bus_->send_owner_insert(to, meta);
      ++stats.entries;
    }
    stats.records = forward_partition(*change->before, *change->after);
    handoff_records_sent_.fetch_add(stats.records + stats.entries,
                                    std::memory_order_relaxed);
  }
  SWALA_LOG(Info) << "node " << self_ << ": member " << node
                  << (join ? " joined" : " left") << " (epoch "
                  << membership_epoch() << "); forwarded "
                  << stats.records + stats.entries << " remapped records";
  return stats;
}

std::size_t CacheManager::forward_partition(const HashRing& before,
                                            const HashRing& after,
                                            NodeId leaving) {
  // Own entries are not among them: the caller re-announces or ships those.
  std::size_t records = 0;
  for (NodeId t = 0; t < directory_->num_nodes(); ++t) {
    if (t == self_) continue;
    for (const auto& meta : directory_->metas_at(t)) {
      if (membership_.owner_on(before, meta.key) != self_) continue;
      const NodeId to = membership_.owner_on(after, meta.key, leaving);
      if (to == self_) continue;
      bus_->send_owner_insert(to, meta);
      ++records;
    }
  }
  return records;
}

void CacheManager::adopt_membership(std::uint64_t epoch,
                                    const std::vector<NodeId>& members) {
  if (!membership_.adopt(epoch, members)) return;
  membership_transitions_.fetch_add(1, std::memory_order_relaxed);
  // Introduce the local cache to the adopted cluster: entries cached while
  // stand-alone (or under the old view) have no records at the new owners,
  // and peers wiped this node's table on admission.
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

void CacheManager::begin_decommission() {
  if (!decommissioning_.exchange(true, std::memory_order_relaxed)) {
    SWALA_LOG(Info) << "node " << self_
                    << ": decommissioning; new inserts suspended";
  }
}

bool CacheManager::decommissioning() const {
  return decommissioning_.load(std::memory_order_relaxed);
}

CacheManager::HandoffStats CacheManager::handoff_state(
    std::uint64_t batch_bytes) {
  HandoffStats stats;
  if (bus_ == nullptr) return stats;
  // begin_decommission already stopped inserts, so the snapshot only races
  // expiry (fetch() re-checks and skips).
  for (const auto& meta : store_->resident_metas()) {
    const NodeId succ = successor_for(meta.key);
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
  if (membership_.keeps_ring()) {
    // Forward the directory partition this node owns to its post-removal
    // owners. Records pointing at our own (departing) cache were shipped
    // above, and the successors' adoptions re-announce them.
    const HashRing ring = membership_.ring();
    stats.records = forward_partition(ring, ring, /*leaving=*/self_);
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
  if (!commit_insert(key, body, meta.cost_seconds, ttl, meta.content_type,
                     meta.http_status)) {
    return false;
  }
  handoff_entries_adopted_.fetch_add(1, std::memory_order_relaxed);
  return true;
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
  } else if (!inv_log_.admit({origin, epoch, pattern})) {
    return 0;  // replayed frame: exact no-op
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
    const auto drop = [this](const std::string& pattern) {
      const auto dropped = store_->erase_matching(pattern);
      directory_->erase_matching(pattern);
      // Announce the erases: survivors' peer tables were re-polluted by the
      // additions-only resync and must drop the stale records too.
      for (const auto& meta : dropped) announce_erase(meta.key, meta.version);
      invalidations_.fetch_add(dropped.size(), std::memory_order_relaxed);
      stale_serves_prevented_.fetch_add(dropped.size(),
                                        std::memory_order_relaxed);
    };
    for (const auto& rec : entries) {
      if (!inv_log_.admit(rec)) continue;  // replay: no-op
      drop(rec.pattern);
      ++applied;
      inv_epoch_gaps_repaired_.fetch_add(1, std::memory_order_relaxed);
    }
    if (truncated) {
      // The peer's log evicted records we needed. Conservatively drop
      // everything cached before the gap rather than stay stale forever.
      drop("*");
      inv_overflow_purges_.fetch_add(1, std::memory_order_relaxed);
    }
    if (applied > 0 || truncated) ++commit_seq_;
  }
  if (applied > 0) {
    SWALA_LOG(Info) << "node " << self_ << ": repaired " << applied
                    << " missed invalidation(s) via anti-entropy pull";
  }
  return applied;
}

std::uint64_t CacheManager::digest_of(NodeId table, NodeId keeper,
                                      std::size_t* entries) const {
  // Order-independent xor of mixed (key, version) terms: mix64 decorrelates
  // the terms so a single-bit version bump flips ~half the digest bits.
  std::uint64_t d = 0;
  std::size_t n = 0;
  for (const auto& meta : directory_->metas_at(table)) {
    if (!holds_record(keeper, meta.key)) continue;
    d ^= mix64(fnv1a64(meta.key) ^ meta.version * 0x9E3779B97F4A7C15ULL);
    ++n;
  }
  if (entries != nullptr) *entries = n;
  return d;
}

CacheManager::Resync CacheManager::resync_for(NodeId peer,
                                              bool joining) const {
  Resync resync;
  resync.owner_frames = membership_.keeps_ring();
  if (joining && resync.owner_frames) return resync;
  for (auto& meta : store_->resident_metas()) {
    if (holds_record(peer, meta.key)) resync.records.push_back(std::move(meta));
  }
  return resync;
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
