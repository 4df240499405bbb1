#include "cluster/group.h"

#include <algorithm>
#include <chrono>

#include "common/logging.h"

namespace swala::cluster {

const char* peer_state_name(PeerState state) {
  switch (state) {
    case PeerState::kHealthy: return "healthy";
    case PeerState::kSuspect: return "suspect";
    case PeerState::kDead: return "dead";
  }
  return "?";
}

std::vector<MemberAddress> loopback_members(std::size_t n) {
  std::vector<MemberAddress> members(n);
  for (std::size_t i = 0; i < n; ++i) {
    members[i].id = static_cast<core::NodeId>(i);
    members[i].info_addr = {"127.0.0.1", 0};
    members[i].data_addr = {"127.0.0.1", 0};
  }
  return members;
}

NodeGroup::NodeGroup(core::NodeId self, std::vector<MemberAddress> members,
                     GroupOptions options)
    : self_(self),
      members_(std::move(members)),
      options_(options),
      transport_(options.fault_injector),
      backoff_rng_(options.backoff_seed) {
  query_rotation_.store(options.backoff_seed, std::memory_order_relaxed);
}

NodeGroup::~NodeGroup() { stop(); }

Status NodeGroup::start() {
  if (running_.exchange(true)) return Status::ok();

  const MemberAddress* me = nullptr;
  for (const auto& m : members_) {
    if (m.id == self_) me = &m;
  }
  if (me == nullptr) {
    running_ = false;
    return Status(StatusCode::kInvalidArgument, "self not in member list");
  }

  auto info = net::TcpListener::listen(me->info_addr);
  if (!info) {
    running_ = false;
    return info.status();
  }
  info_listener_ = std::move(info.value());

  auto data = net::TcpListener::listen(me->data_addr);
  if (!data) {
    running_ = false;
    return data.status();
  }
  data_listener_ = std::move(data.value());

  // One outbound queue + sender thread per peer: the broadcast is
  // asynchronous and never blocks a request thread on a slow peer.
  for (const auto& m : members_) {
    if (m.id == self_) continue;
    auto link = std::make_unique<PeerLink>();
    link->address = m;
    if (!options_.initial_active.empty()) {
      link->active.store(std::find(options_.initial_active.begin(),
                                   options_.initial_active.end(),
                                   m.id) != options_.initial_active.end(),
                         std::memory_order_release);
    }
    link->outbound =
        std::make_unique<BoundedQueue<Message>>(options_.outbound_queue_capacity);
    PeerLink* raw = link.get();
    link->sender = std::thread([this, raw] { sender_loop(raw); });
    peers_.push_back(std::move(link));
  }

  info_accept_thread_ = std::thread([this] { info_accept_loop(); });
  data_accept_thread_ = std::thread([this] { data_accept_loop(); });
  purge_thread_ = std::thread([this] { purge_loop(); });
  return Status::ok();
}

void NodeGroup::set_members(std::vector<MemberAddress> members) {
  members_ = std::move(members);
  for (auto& peer : peers_) {
    for (const auto& m : members_) {
      if (m.id == peer->address.id) peer->address = m;
    }
  }
}

void NodeGroup::stop() {
  if (!running_.exchange(false)) return;
  info_listener_.close();
  data_listener_.close();
  for (auto& peer : peers_) peer->outbound->close();
  for (auto& peer : peers_) {
    if (peer->sender.joinable()) peer->sender.join();
  }
  if (info_accept_thread_.joinable()) info_accept_thread_.join();
  if (data_accept_thread_.joinable()) data_accept_thread_.join();
  if (purge_thread_.joinable()) purge_thread_.join();
  {
    std::lock_guard<std::mutex> lock(reader_mutex_);
    for (auto& t : reader_threads_) {
      if (t.joinable()) t.join();
    }
    for (auto& t : data_threads_) {
      if (t.joinable()) t.join();
    }
    reader_threads_.clear();
    data_threads_.clear();
  }
  {
    std::lock_guard<std::mutex> lock(pool_mutex_);
    fetch_pool_.clear();
  }
  peers_.clear();
}

// ---- circuit breaker ----

NodeGroup::PeerLink* NodeGroup::find_link(core::NodeId id) const {
  for (const auto& peer : peers_) {
    if (peer->address.id == id) return peer.get();
  }
  return nullptr;
}

PeerState NodeGroup::state_of(PeerLink* link) const {
  std::lock_guard<std::mutex> lock(link->health_mutex);
  return link->state;
}

void NodeGroup::record_failure(PeerLink* link) {
  peer_failures_.fetch_add(1, std::memory_order_relaxed);
  link->total_failures.fetch_add(1, std::memory_order_relaxed);
  const auto now = std::chrono::steady_clock::now();
  const auto probe_gap = std::chrono::milliseconds(options_.probe_interval_ms);
  std::lock_guard<std::mutex> lock(link->health_mutex);
  ++link->consecutive_failures;
  if (link->state == PeerState::kDead) {
    // Failed probe: stay dead, push the next probe out.
    link->next_probe = now + probe_gap;
    return;
  }
  if (link->consecutive_failures >= options_.failure_threshold) {
    link->state = PeerState::kDead;
    link->next_probe = now + probe_gap;
    SWALA_LOG(Warn) << "node " << self_ << ": peer " << link->address.id
                    << " marked dead after " << link->consecutive_failures
                    << " consecutive failures";
    // Quarantine inside the transition so a racing recovery cannot leave
    // the directory visible for a peer we just wrote off.
    core::CacheManager* manager = manager_.load(std::memory_order_acquire);
    if (manager != nullptr) manager->on_peer_dead(link->address.id);
  } else {
    link->state = PeerState::kSuspect;
  }
}

void NodeGroup::record_success(PeerLink* link) {
  std::lock_guard<std::mutex> lock(link->health_mutex);
  const bool recovered = link->state == PeerState::kDead;
  link->state = PeerState::kHealthy;
  link->consecutive_failures = 0;
  if (!recovered) return;
  SWALA_LOG(Info) << "node " << self_ << ": peer " << link->address.id
                  << " recovered; requesting resync";
  core::CacheManager* manager = manager_.load(std::memory_order_acquire);
  if (manager != nullptr) manager->on_peer_recovered(link->address.id);
  // Converge both directions: ask the peer to re-announce its entries to
  // us, and re-announce ours to it (it may have restarted with a blank
  // view of this node's table).
  resyncs_requested_.fetch_add(1, std::memory_order_relaxed);
  link->outbound->try_push(Message::sync_req(self_));
  push_state_to(link);
}

void NodeGroup::push_state_to(PeerLink* link) {
  core::CacheManager* manager = manager_.load(std::memory_order_acquire);
  if (manager == nullptr) return;
  const auto mode = manager->directory_mode();
  if (mode == core::DirectoryMode::kQuery) return;  // no remote state to sync
  for (const auto& meta : manager->store().resident_metas()) {
    if (mode == core::DirectoryMode::kReplicated) {
      link->outbound->try_push(Message::insert(self_, meta));
    } else if (manager->ring_owner_of(meta.key) == link->address.id) {
      // Partitioned: a rejoining owner lost its partition; re-announce only
      // the entries it owns (every survivor does this, so the owner's view
      // of the whole partition converges).
      link->outbound->try_push(Message::owner_insert(self_, meta));
    }
  }
}

void NodeGroup::probe_dead_peers() {
  const auto now = std::chrono::steady_clock::now();
  for (auto& peer : peers_) {
    if (!peer->active.load(std::memory_order_acquire)) continue;
    std::lock_guard<std::mutex> lock(peer->health_mutex);
    if (peer->state != PeerState::kDead || now < peer->next_probe) continue;
    peer->next_probe = now + std::chrono::milliseconds(options_.probe_interval_ms);
    peer->probes.fetch_add(1, std::memory_order_relaxed);
    probes_sent_.fetch_add(1, std::memory_order_relaxed);
    peer->outbound->try_push(make_hello());
  }
}

Message NodeGroup::make_hello() const {
  // The epoch vector rides every greeting/probe, so the first exchange
  // after a rejoin already exposes any invalidation gap. Before attach()
  // there is no log yet: plain HELLO.
  core::CacheManager* manager = manager_.load(std::memory_order_acquire);
  if (manager == nullptr) return Message::hello(self_);
  // The membership epoch rides along too, so divergent views surface on the
  // first exchange (status pages and tests compare them; the kJoin protocol
  // itself converges via kJoinAck).
  return Message::hello_membership(self_, manager->inv_high_vector(),
                                   manager->membership_epoch());
}

void NodeGroup::anti_entropy_round() {
  core::CacheManager* manager = manager_.load(std::memory_order_acquire);
  if (manager == nullptr) return;
  // A node outside the membership (pre-join stand-alone) or on its way out
  // (decommissioning, drain-only) does not gossip: its digests would read
  // as permanent drift to peers that already cleared its table.
  if (!manager->is_member(self_) || manager->decommissioning()) return;
  anti_entropy_rounds_.fetch_add(1, std::memory_order_relaxed);
  const auto high = manager->inv_high_vector();
  // Query mode keeps no remote directory state to compare, so its digest
  // is omitted; the epoch vector still repairs lost invalidations.
  const bool has_digest =
      manager->directory_mode() != core::DirectoryMode::kQuery;
  for (auto& peer : peers_) {
    if (!peer->active.load(std::memory_order_acquire)) continue;
    if (state_of(peer.get()) == PeerState::kDead) continue;  // probes handle it
    std::size_t entries = 0;
    const std::uint64_t digest =
        has_digest ? manager->digest_for_peer(peer->address.id, &entries) : 0;
    if (peer->outbound->try_push(
            Message::make_digest(self_, high, has_digest, digest))) {
      digests_sent_.fetch_add(1, std::memory_order_relaxed);
    } else {
      send_failures_.fetch_add(1, std::memory_order_relaxed);
    }
  }
}

void NodeGroup::maybe_pull_inv_sync(core::NodeId peer,
                                    const core::EpochVector& high) {
  if (high.empty()) return;
  core::CacheManager* manager = manager_.load(std::memory_order_acquire);
  if (manager == nullptr || !manager->inv_behind(high)) return;
  inv_syncs_pulled_.fetch_add(1, std::memory_order_relaxed);
  // Budget like a directory probe: the pull is an optimization pass and
  // must not stall the info reader behind a slow peer.
  const int io_timeout_ms = options_.query_timeout_ms;
  const int connect_timeout_ms =
      std::min(options_.connect_timeout_ms, io_timeout_ms);
  auto resp = data_exchange(peer,
                            Message::inv_sync(self_, manager->inv_floor_vector()),
                            MsgType::kInvSyncResp, io_timeout_ms,
                            connect_timeout_ms);
  if (!resp) return;  // next round retries; the gap persists until repaired
  manager->apply_inv_sync(resp.value().inv_entries, resp.value().truncated);
}

void NodeGroup::check_digest(core::NodeId peer, bool has_digest,
                             std::uint64_t digest) {
  if (!has_digest) return;
  core::CacheManager* manager = manager_.load(std::memory_order_acquire);
  PeerLink* link = find_link(peer);
  if (manager == nullptr || link == nullptr) return;
  std::size_t entries = 0;
  const std::uint64_t local = manager->digest_of_peer_table(peer, &entries);
  bool repair = false;
  {
    std::lock_guard<std::mutex> lock(link->health_mutex);
    if (link->state == PeerState::kDead) return;  // rejoin machinery owns it
    repair = link->digest_strikes.observe(digest, local);
  }
  if (!repair) return;
  digest_repairs_.fetch_add(1, std::memory_order_relaxed);
  SWALA_LOG(Warn) << "node " << self_ << ": directory digest drift vs peer "
                  << peer << " persisted two rounds; resyncing";
  // Same flow as a rejoin: drop our stale view of the peer's table and ask
  // it to re-announce.
  manager->on_peer_recovered(peer);
  resyncs_requested_.fetch_add(1, std::memory_order_relaxed);
  link->outbound->try_push(Message::sync_req(self_));
}

int NodeGroup::backoff_delay_ms(int attempt) {
  std::int64_t base = options_.backoff_base_ms;
  for (int i = 1; i < attempt && base < options_.backoff_max_ms; ++i) base *= 2;
  if (base > options_.backoff_max_ms) base = options_.backoff_max_ms;
  if (base < 1) base = 1;
  // Jitter in [base/2, base] de-synchronizes the per-peer sender threads.
  std::lock_guard<std::mutex> lock(backoff_mutex_);
  return static_cast<int>(backoff_rng_.uniform_int(base / 2, base));
}

// ---- info channel ----

void NodeGroup::info_accept_loop() {
  while (running_.load(std::memory_order_relaxed)) {
    auto conn = info_listener_.accept(/*timeout_ms=*/200);
    if (!conn) {
      if (conn.status().code() == StatusCode::kTimeout) continue;
      break;  // listener closed
    }
    (void)conn.value().set_no_delay(true);
    (void)conn.value().set_recv_timeout(200);
    std::lock_guard<std::mutex> lock(reader_mutex_);
    reader_threads_.emplace_back(
        [this, stream = std::move(conn.value())]() mutable {
          info_read_loop(std::move(stream));
        });
  }
}

void NodeGroup::info_read_loop(net::TcpStream stream) {
  while (running_.load(std::memory_order_relaxed)) {
    auto msg = read_message(stream);
    if (!msg) {
      if (msg.status().code() == StatusCode::kTimeout) continue;
      return;  // closed or corrupt; drop the connection
    }
    if (msg.value().type == MsgType::kBatch) {
      // Inner messages apply in encode order, so the sender's version order
      // (inserts before their erases, etc.) is preserved exactly as if each
      // update had arrived in its own frame.
      for (const Message& inner : msg.value().batch) {
        updates_received_.fetch_add(1, std::memory_order_relaxed);
        apply_info_message(inner);
      }
    } else {
      updates_received_.fetch_add(1, std::memory_order_relaxed);
      apply_info_message(msg.value());
    }
  }
}

void NodeGroup::apply_info_message(const Message& msg) {
  core::CacheManager* manager = manager_.load(std::memory_order_acquire);
  switch (msg.type) {
    case MsgType::kHello:
      // A HELLO from a peer we had written off is the rejoin signal: the
      // restarted node greets before its first broadcast.
      if (PeerLink* link = find_link(msg.sender)) {
        record_success(link);
      }
      // The greeting's piggybacked epoch vector exposes any invalidation
      // gap immediately (first exchange after a rejoin, not a full
      // anti-entropy round later). Runs after record_success returns so no
      // health_mutex is held across the synchronous pull.
      maybe_pull_inv_sync(msg.sender, msg.epochs);
      break;
    case MsgType::kDigest:
      // Anti-entropy round: epoch gap first (repairs lost invalidations),
      // then the directory digest (repairs lost inserts/owner updates).
      // Straggler digests from a node we no longer (or don't yet) consider
      // a member are dropped: we keep no table for it to compare.
      if (manager != nullptr && !manager->is_member(msg.sender)) break;
      maybe_pull_inv_sync(msg.sender, msg.epochs);
      check_digest(msg.sender, msg.has_digest, msg.digest);
      break;
    case MsgType::kSyncReq:
      // The peer cleared its copy of our table; re-announce what we hold.
      // A non-member requester gets nothing (its records would point at a
      // node the cluster no longer routes to).
      if (manager != nullptr && !manager->is_member(msg.sender)) break;
      if (PeerLink* link = find_link(msg.sender)) {
        resyncs_served_.fetch_add(1, std::memory_order_relaxed);
        push_state_to(link);
      }
      break;
    case MsgType::kInsert:
      if (manager != nullptr) {
        if (msg.handoff) {
          // Decommission handoff: the departing owner shipped us the whole
          // entry (meta + body); adopt it into our own store instead of
          // recording a directory entry for a node that is leaving.
          if (manager->adopt_entry(msg.meta, msg.data)) {
            handoffs_adopted_.fetch_add(1, std::memory_order_relaxed);
          }
        } else {
          manager->on_peer_insert(msg.meta);
        }
      }
      break;
    case MsgType::kErase:
      if (manager != nullptr) {
        manager->on_peer_erase(msg.sender, msg.key, msg.version);
      }
      break;
    case MsgType::kInvalidate:
      // The frame's sender is the originating node: invalidations are
      // broadcast by their origin only, never relayed.
      if (manager != nullptr) {
        manager->on_peer_invalidate(msg.key, msg.sender, msg.epoch);
      }
      break;
    case MsgType::kDecommission:
      // Graceful leave. Deactivate the slot without the dead-peer
      // quarantine: the leaver already handed its state off, so there is
      // nothing to resync when (if) the slot rejoins.
      decommissions_observed_.fetch_add(1, std::memory_order_relaxed);
      SWALA_LOG(Info) << "node " << self_ << ": peer " << msg.sender
                      << " decommissioned (epoch " << msg.membership_epoch
                      << ")";
      if (PeerLink* link = find_link(msg.sender)) {
        link->active.store(false, std::memory_order_release);
        // Not a death: reset the breaker so a later rejoin starts clean.
        std::lock_guard<std::mutex> lock(link->health_mutex);
        link->state = PeerState::kHealthy;
        link->consecutive_failures = 0;
      }
      if (manager != nullptr) manager->member_left(msg.sender);
      break;
    case MsgType::kOwnerUpdate:
      // Partitioned-mode unicast. A mis-routed frame (we are not this key's
      // ring owner) still carries true information, so apply it anyway:
      // apply_insert/apply_erase bounds-check the cache node id, and
      // answer_query serves from every table.
      if (manager != nullptr) {
        if (msg.owner_op == OwnerOp::kInsert) {
          manager->on_peer_insert(msg.meta);
        } else {
          manager->on_peer_erase(msg.meta.owner, msg.key, msg.version);
        }
      }
      break;
    default:
      // kBatch lands here too: nesting is decode-rejected, so seeing one
      // means a peer skipped its own flattening — ignore it.
      SWALA_LOG(Warn) << "unexpected message type on info channel";
      break;
  }
}

// ---- data channel ----

void NodeGroup::data_accept_loop() {
  while (running_.load(std::memory_order_relaxed)) {
    auto conn = data_listener_.accept(/*timeout_ms=*/200);
    if (!conn) {
      if (conn.status().code() == StatusCode::kTimeout) continue;
      break;
    }
    (void)conn.value().set_no_delay(true);
    // Short read slices so the serving thread notices shutdown promptly;
    // the loop in serve_data_request tolerates timeouts between requests.
    (void)conn.value().set_recv_timeout(250);
    (void)conn.value().set_send_timeout(options_.fetch_timeout_ms);
    // The paper starts a separate thread per data request; with pooled
    // requester connections each thread serves a stream of fetches.
    std::lock_guard<std::mutex> lock(reader_mutex_);
    // Opportunistically reap finished data threads to bound the vector.
    if (data_threads_.size() > 256) {
      for (auto& t : data_threads_) {
        if (t.joinable()) t.join();
      }
      data_threads_.clear();
    }
    data_threads_.emplace_back(
        [this, stream = std::move(conn.value())]() mutable {
          serve_data_request(std::move(stream));
        });
  }
}

void NodeGroup::serve_data_request(net::TcpStream stream) {
  // Serve fetches until the peer closes or goes idle: requesters pool and
  // reuse these connections, so one connection handles many fetches.
  while (running_.load(std::memory_order_relaxed)) {
    auto msg = read_message(stream);
    if (!msg) {
      if (msg.status().code() == StatusCode::kTimeout) continue;
      return;  // closed or corrupt
    }
    if (msg.value().type == MsgType::kQuery) {
      // Directory probe (partitioned owner lookup or query-mode kQuery):
      // answer from the directory alone, never touching the blob store.
      queries_served_.fetch_add(1, std::memory_order_relaxed);
      Message resp = Message::query_miss(self_);
      core::CacheManager* manager = manager_.load(std::memory_order_acquire);
      if (manager != nullptr) {
        if (auto meta = manager->answer_query(msg.value().key)) {
          resp = Message::query_hit(self_, *meta);
        }
      }
      if (!transport_.send(stream, msg.value().sender, resp).is_ok()) return;
      continue;
    }
    if (msg.value().type == MsgType::kInvSync) {
      // Anti-entropy pull: ship every logged invalidation above the
      // requester's floors so it can repair the gap it detected.
      inv_syncs_served_.fetch_add(1, std::memory_order_relaxed);
      Message resp = Message::inv_sync_resp(self_, {}, false);
      core::CacheManager* manager = manager_.load(std::memory_order_acquire);
      if (manager != nullptr) {
        bool truncated = false;
        auto entries =
            manager->inv_entries_after(msg.value().epochs, &truncated);
        resp = Message::inv_sync_resp(self_, std::move(entries), truncated);
      }
      if (!transport_.send(stream, msg.value().sender, resp).is_ok()) return;
      continue;
    }
    if (msg.value().type == MsgType::kJoin) {
      // Join admission (two-phase join, phase executed per peer): activate
      // the sender's slot, fold it into the ring, and answer with our
      // post-join membership view so the joiner can adopt it.
      joins_served_.fetch_add(1, std::memory_order_relaxed);
      Message resp = Message::join_ack(self_, 0, {});
      core::CacheManager* manager = manager_.load(std::memory_order_acquire);
      PeerLink* link = find_link(msg.value().sender);
      if (link != nullptr) {
        link->active.store(true, std::memory_order_release);
        // A joining node is reachable by definition; clear whatever breaker
        // state the slot accumulated while it was empty.
        std::lock_guard<std::mutex> lock(link->health_mutex);
        link->state = PeerState::kHealthy;
        link->consecutive_failures = 0;
      }
      if (manager != nullptr) {
        manager->member_joined(msg.value().sender);
        // Replicated mode: the newcomer starts with an empty directory, so
        // ship it our entries (in partitioned mode member_joined already
        // re-announced exactly the remapped ranges).
        if (link != nullptr &&
            manager->directory_mode() == core::DirectoryMode::kReplicated) {
          push_state_to(link);
        }
        resp = Message::join_ack(self_, manager->membership_epoch(),
                                 manager->active_members());
      }
      if (!transport_.send(stream, msg.value().sender, resp).is_ok()) return;
      continue;
    }
    if (msg.value().type != MsgType::kFetchReq) return;

    Message resp = Message::fetch_resp_miss(self_);
    core::CacheManager* manager = manager_.load(std::memory_order_acquire);
    if (manager != nullptr) {
      auto result = manager->serve_peer_fetch(msg.value().key);
      if (result) {
        fetches_served_.fetch_add(1, std::memory_order_relaxed);
        resp = Message::fetch_resp_found(self_, result.value().meta,
                                         std::move(result.value().data));
      } else {
        fetch_misses_served_.fetch_add(1, std::memory_order_relaxed);
      }
    }
    if (!transport_.send(stream, msg.value().sender, resp).is_ok()) return;
  }
}

// ---- purge daemon ----

void NodeGroup::purge_loop() {
  const auto interval =
      std::chrono::duration<double>(options_.purge_interval_seconds);
  auto next = std::chrono::steady_clock::now() + interval;
  if (options_.anti_entropy_interval_ms > 0) {
    next_anti_entropy_ =
        std::chrono::steady_clock::now() +
        std::chrono::milliseconds(options_.anti_entropy_interval_ms);
  }
  while (running_.load(std::memory_order_relaxed)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    // Half-open probing rides the purger's fine-grained tick, not its
    // multi-second purge interval.
    probe_dead_peers();
    // So does the anti-entropy digest round (its own, usually shorter,
    // cadence: it bounds the staleness window).
    if (options_.anti_entropy_interval_ms > 0 &&
        std::chrono::steady_clock::now() >= next_anti_entropy_) {
      next_anti_entropy_ =
          std::chrono::steady_clock::now() +
          std::chrono::milliseconds(options_.anti_entropy_interval_ms);
      anti_entropy_round();
    }
    if (std::chrono::steady_clock::now() < next) continue;
    next = std::chrono::steady_clock::now() + interval;
    core::CacheManager* manager = manager_.load(std::memory_order_acquire);
    if (manager != nullptr) manager->purge_expired();
  }
}

// ---- outbound ----

void NodeGroup::enqueue_broadcast(const Message& msg) {
  for (auto& peer : peers_) {
    if (!peer->active.load(std::memory_order_acquire)) continue;
    if (!peer->outbound->try_push(msg)) {
      send_failures_.fetch_add(1, std::memory_order_relaxed);
    }
  }
  broadcasts_sent_.fetch_add(1, std::memory_order_relaxed);
}

void NodeGroup::broadcast_insert(const core::EntryMeta& meta) {
  enqueue_broadcast(Message::insert(self_, meta));
}

void NodeGroup::broadcast_erase(core::NodeId owner, const std::string& key,
                                std::uint64_t version) {
  (void)owner;  // only the owner broadcasts erases for its own entries
  enqueue_broadcast(Message::erase(self_, key, version));
}

void NodeGroup::broadcast_invalidate(const std::string& pattern) {
  enqueue_broadcast(Message::invalidate(self_, pattern));
}

void NodeGroup::broadcast_invalidate(const std::string& pattern,
                                     std::uint64_t epoch) {
  enqueue_broadcast(Message::invalidate(self_, pattern, epoch));
}

void NodeGroup::enqueue_to(core::NodeId id, const Message& msg) {
  PeerLink* link = find_link(id);
  if (link == nullptr) return;  // self or unknown id: nothing to send
  if (!link->active.load(std::memory_order_acquire)) {
    // Slot outside the active set: drop (anti-entropy repairs any update
    // that raced a membership transition).
    link->dropped.fetch_add(1, std::memory_order_relaxed);
    messages_dropped_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  if (!link->outbound->try_push(msg)) {
    send_failures_.fetch_add(1, std::memory_order_relaxed);
  }
}

void NodeGroup::send_owner_insert(core::NodeId ring_owner,
                                  const core::EntryMeta& meta) {
  owner_updates_sent_.fetch_add(1, std::memory_order_relaxed);
  enqueue_to(ring_owner, Message::owner_insert(self_, meta));
}

void NodeGroup::send_owner_erase(core::NodeId ring_owner,
                                 core::NodeId cache_node,
                                 const std::string& key,
                                 std::uint64_t version) {
  owner_updates_sent_.fetch_add(1, std::memory_order_relaxed);
  enqueue_to(ring_owner, Message::owner_erase(self_, cache_node, key, version));
}

void NodeGroup::send_handoff(core::NodeId successor,
                             const core::EntryMeta& meta,
                             const std::string& body) {
  handoff_frames_sent_.fetch_add(1, std::memory_order_relaxed);
  enqueue_to(successor, Message::insert_handoff(self_, meta, body));
}

namespace {

/// Info-channel updates safe to coalesce. HELLO carries probe/greeting
/// semantics and SYNC_REQ triggers a state push, so both keep their own
/// frames.
bool batchable(const Message& msg) {
  return msg.type == MsgType::kInsert || msg.type == MsgType::kErase ||
         msg.type == MsgType::kInvalidate || msg.type == MsgType::kOwnerUpdate;
}

/// Cheap upper-bound estimate of a message's encoded size; close enough to
/// enforce batch_max_bytes without encoding twice.
std::size_t approx_encoded_size(const Message& msg) {
  return 64 + msg.key.size() + msg.data.size() + msg.meta.key.size() +
         msg.meta.content_type.size();
}

}  // namespace

void NodeGroup::collect_batch(PeerLink* link, std::vector<Message>* run,
                              std::optional<Message>* carry) {
  std::size_t bytes = approx_encoded_size(run->front());
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(options_.batch_linger_ms);
  while (run->size() < options_.batch_max_messages &&
         bytes < options_.batch_max_bytes) {
    std::optional<Message> next = link->outbound->try_pop();
    if (!next) {
      const auto now = std::chrono::steady_clock::now();
      if (now >= deadline || !running_.load(std::memory_order_relaxed)) break;
      next = link->outbound->pop_for(deadline - now);
      if (!next) break;  // lingered in vain (or queue closed)
    }
    if (!batchable(*next)) {
      *carry = std::move(next);  // sent on its own, right after this batch
      break;
    }
    bytes += approx_encoded_size(*next);
    run->push_back(std::move(*next));
  }
}

void NodeGroup::sender_loop(PeerLink* link) {
  net::TcpStream stream;
  bool greeted = false;
  // A non-batchable message pulled while collecting a batch waits here and
  // is consumed before the queue is polled again, so nothing is reordered
  // past it and nothing is lost on shutdown.
  std::optional<Message> carry;
  for (;;) {
    std::optional<Message> msg;
    if (carry.has_value()) {
      msg = std::move(carry);
      carry.reset();
    } else {
      msg = link->outbound->pop();
      if (!msg) break;  // queue closed and drained
    }
    if (!link->active.load(std::memory_order_acquire)) {
      // Slot left the active set after this message was queued; drop it.
      link->dropped.fetch_add(1, std::memory_order_relaxed);
      messages_dropped_.fetch_add(1, std::memory_order_relaxed);
      continue;
    }
    const bool is_probe = msg->type == MsgType::kHello;
    const PeerState state = state_of(link);
    if (state == PeerState::kDead && !is_probe) {
      // Breaker open: dropping beats retrying into a dead socket. The
      // rejoin resync repairs whatever the peer missed.
      link->dropped.fetch_add(1, std::memory_order_relaxed);
      messages_dropped_.fetch_add(1, std::memory_order_relaxed);
      continue;
    }

    // Coalesce a run of queued directory updates into one kBatch frame.
    // The batch is the retry unit below; a run of one goes out in its
    // plain unbatched form, byte-identical to older builds.
    std::vector<Message> run;
    run.push_back(std::move(*msg));
    if (options_.batch_max_messages > 1 && batchable(run.front())) {
      collect_batch(link, &run, &carry);
    }
    const std::size_t run_size = run.size();
    Message out = run_size == 1 ? std::move(run.front())
                                : Message::make_batch(self_, std::move(run));

    // Probes get a single attempt (the purger reschedules them); regular
    // traffic retries with exponential backoff + jitter.
    const int max_attempts =
        state == PeerState::kDead ? 1 : std::max(1, options_.broadcast_retry_limit);
    bool sent = false;
    for (int attempt = 0; attempt < max_attempts; ++attempt) {
      if (attempt > 0) {
        if (!running_.load(std::memory_order_relaxed)) break;
        send_retries_.fetch_add(1, std::memory_order_relaxed);
        std::this_thread::sleep_for(
            std::chrono::milliseconds(backoff_delay_ms(attempt)));
      }
      if (!stream.valid()) {
        auto conn = net::TcpStream::connect(link->address.info_addr,
                                            options_.connect_timeout_ms);
        if (!conn) continue;
        stream = std::move(conn.value());
        (void)stream.set_no_delay(true);
        (void)stream.set_send_timeout(options_.connect_timeout_ms);
        greeted = false;
      }
      if (!greeted) {
        if (!transport_.send(stream, link->address.id, make_hello())
                 .is_ok()) {
          stream.close();
          continue;
        }
        frames_sent_.fetch_add(1, std::memory_order_relaxed);
        greeted = true;
        if (is_probe) {
          sent = true;  // the greeting itself proved the peer reachable
          break;
        }
      }
      if (transport_.send(stream, link->address.id, out).is_ok()) {
        frames_sent_.fetch_add(1, std::memory_order_relaxed);
        sent = true;
        break;
      }
      stream.close();
    }
    if (sent) {
      if (run_size > 1) {
        batched_broadcasts_.fetch_add(run_size, std::memory_order_relaxed);
      }
      record_success(link);
    } else {
      stream.close();
      send_failures_.fetch_add(1, std::memory_order_relaxed);
      if (running_.load(std::memory_order_relaxed)) record_failure(link);
    }
  }
}

// ---- synchronous remote fetch ----

Result<core::CachedResult> NodeGroup::fetch_remote(core::NodeId owner,
                                                   const std::string& key) {
  return fetch_remote(owner, key, /*budget_ms=*/-1);
}

Result<core::CachedResult> NodeGroup::fetch_remote(core::NodeId owner,
                                                   const std::string& key,
                                                   int budget_ms) {
  remote_fetches_.fetch_add(1, std::memory_order_relaxed);
  // A request deadline caps every socket timeout: with `budget_ms` set, a
  // fetch can never out-live the request that issued it, so a slow peer
  // costs at most the remaining budget before the local-CGI fallback runs.
  const int io_timeout_ms =
      budget_ms > 0 ? std::min(options_.fetch_timeout_ms, budget_ms)
                    : options_.fetch_timeout_ms;
  const int connect_timeout_ms =
      budget_ms > 0 ? std::min(options_.connect_timeout_ms, budget_ms)
                    : options_.connect_timeout_ms;
  auto resp = data_exchange(owner, Message::fetch_req(self_, key),
                            MsgType::kFetchResp, io_timeout_ms,
                            connect_timeout_ms);
  if (!resp) return resp.status();
  if (!resp.value().found) {
    return Status(StatusCode::kNotFound, "remote miss (false hit)");
  }
  core::CachedResult result;
  result.meta = resp.value().meta;
  result.data = std::move(resp.value().data);
  return result;
}

Result<core::EntryMeta> NodeGroup::lookup_at_owner(core::NodeId ring_owner,
                                                   const std::string& key,
                                                   int budget_ms) {
  queries_sent_.fetch_add(1, std::memory_order_relaxed);
  // Probes cap at query_timeout_ms regardless of the request budget: an
  // owner that cannot answer quickly should not delay the local fallback.
  int io_timeout_ms = options_.query_timeout_ms;
  if (budget_ms > 0) io_timeout_ms = std::min(io_timeout_ms, budget_ms);
  const int connect_timeout_ms =
      std::min(options_.connect_timeout_ms, io_timeout_ms);
  auto resp = data_exchange(ring_owner, Message::query(self_, key),
                            MsgType::kQueryHit, io_timeout_ms,
                            connect_timeout_ms);
  if (!resp) return resp.status();
  if (!resp.value().found) {
    return Status(StatusCode::kNotFound, "owner knows of no cached copy");
  }
  query_hits_.fetch_add(1, std::memory_order_relaxed);
  return resp.value().meta;
}

Result<core::EntryMeta> NodeGroup::query_peers(const std::string& key,
                                               int budget_ms) {
  // Bounded sequential probe: each healthy peer gets at most
  // query_timeout_ms, and the whole sweep never exceeds the overall budget
  // (the request deadline when one is known). The first "found" wins.
  //
  // Probe order rotates (seeded per node) and visits healthy peers before
  // suspects: a fixed slot order would aim every sweep's first probe — and
  // therefore most of the budget — at the same peer, and a suspect probed
  // early can eat the whole budget in timeouts before a healthy peer that
  // has the entry is ever asked.
  const auto start = std::chrono::steady_clock::now();
  const int overall = budget_ms > 0 ? budget_ms : options_.fetch_timeout_ms;
  const std::size_t n = peers_.size();
  if (n == 0) return Status(StatusCode::kNotFound, "no peer caches this key");
  const std::size_t offset = static_cast<std::size_t>(
      query_rotation_.fetch_add(1, std::memory_order_relaxed) % n);
  std::vector<PeerLink*> order;
  order.reserve(n);
  for (int pass = 0; pass < 2; ++pass) {
    for (std::size_t i = 0; i < n; ++i) {
      PeerLink* peer = peers_[(offset + i) % n].get();
      if (!peer->active.load(std::memory_order_acquire)) continue;
      const PeerState state = state_of(peer);
      if (state == PeerState::kDead) continue;
      if ((state == PeerState::kHealthy) == (pass == 0)) order.push_back(peer);
    }
  }
  bool every_peer_answered = true;
  for (PeerLink* peer : order) {
    const int elapsed = static_cast<int>(
        std::chrono::duration_cast<std::chrono::milliseconds>(
            std::chrono::steady_clock::now() - start)
            .count());
    const int remaining = overall - elapsed;
    if (remaining <= 0) {
      every_peer_answered = false;
      break;
    }
    queries_sent_.fetch_add(1, std::memory_order_relaxed);
    const int io_timeout_ms = std::min(options_.query_timeout_ms, remaining);
    const int connect_timeout_ms =
        std::min(options_.connect_timeout_ms, io_timeout_ms);
    auto resp = data_exchange(peer->address.id, Message::query(self_, key),
                              MsgType::kQueryHit, io_timeout_ms,
                              connect_timeout_ms);
    if (!resp) {
      every_peer_answered = false;  // timeout/dead: treat as silence, move on
      continue;
    }
    if (resp.value().found) {
      query_hits_.fetch_add(1, std::memory_order_relaxed);
      return resp.value().meta;
    }
  }
  if (every_peer_answered) {
    return Status(StatusCode::kNotFound, "no peer caches this key");
  }
  return Status(StatusCode::kTimeout, "query budget exhausted without a hit");
}

Result<Message> NodeGroup::data_exchange(core::NodeId peer_id,
                                         const Message& request,
                                         MsgType expected, int io_timeout_ms,
                                         int connect_timeout_ms) {
  const MemberAddress* peer = nullptr;
  for (const auto& m : members_) {
    if (m.id == peer_id) peer = &m;
  }
  if (peer == nullptr) {
    return Status(StatusCode::kInvalidArgument,
                  "unknown node " + std::to_string(peer_id));
  }
  PeerLink* link = find_link(peer_id);
  if (link != nullptr && !link->active.load(std::memory_order_acquire)) {
    // Not an active member (decommissioned or never joined): fail fast,
    // exactly like an open breaker, so callers fall back immediately.
    return Status(StatusCode::kUnavailable,
                  "peer " + std::to_string(peer_id) + " not an active member");
  }
  if (link != nullptr && state_of(link) == PeerState::kDead) {
    // Breaker open: fail fast so the request thread goes straight to the
    // local CGI fallback instead of burning a connect timeout.
    return Status(StatusCode::kUnavailable,
                  "peer " + std::to_string(peer_id) + " dead (circuit open)");
  }

  const auto fail = [&](const Status& st) -> Status {
    if (link != nullptr) record_failure(link);
    return st;
  };

  // Up to two attempts: a pooled connection may have been closed by the
  // peer while idle; retry once on a fresh one.
  Status last_error(StatusCode::kUnavailable, "no attempt made");
  for (int attempt = 0; attempt < 2; ++attempt) {
    net::TcpStream stream;
    bool from_pool = false;
    if (attempt == 0 && options_.fetch_pool_size > 0) {
      std::lock_guard<std::mutex> lock(pool_mutex_);
      auto& idle = fetch_pool_[peer_id];
      if (!idle.empty()) {
        stream = std::move(idle.back());
        idle.pop_back();
        from_pool = true;
      }
    }
    if (!stream.valid()) {
      auto conn =
          net::TcpStream::connect(peer->data_addr, connect_timeout_ms);
      if (!conn) return fail(conn.status());
      stream = std::move(conn.value());
      (void)stream.set_no_delay(true);
    }
    // Pooled streams carry whatever timeout the previous request set, so
    // (re)arm both directions for this request's budget unconditionally.
    (void)stream.set_recv_timeout(io_timeout_ms);
    (void)stream.set_send_timeout(io_timeout_ms);

    if (auto st = transport_.send(stream, peer_id, request); !st.is_ok()) {
      last_error = st;
      if (from_pool) continue;  // stale pooled connection; retry fresh
      return fail(st);
    }
    auto resp = read_message(stream);
    if (!resp) {
      last_error = resp.status();
      if (from_pool) continue;
      return fail(resp.status());
    }
    if (resp.value().type != expected) {
      return fail(Status(StatusCode::kInternal, "unexpected response type"));
    }

    // Healthy exchange: return the connection to the pool.
    if (link != nullptr) record_success(link);
    if (options_.fetch_pool_size > 0 &&
        running_.load(std::memory_order_relaxed)) {
      std::lock_guard<std::mutex> lock(pool_mutex_);
      auto& idle = fetch_pool_[peer_id];
      if (idle.size() < options_.fetch_pool_size) {
        idle.push_back(std::move(stream));
      }
    }
    return std::move(resp.value());
  }
  return fail(last_error);
}

// ---- dynamic membership ----

Status NodeGroup::join_cluster() {
  core::CacheManager* manager = manager_.load(std::memory_order_acquire);
  if (manager == nullptr) {
    return Status(StatusCode::kInvalidArgument,
                  "attach() a manager before joining");
  }
  const int io_timeout_ms = options_.join_timeout_ms;
  const int connect_timeout_ms =
      std::min(options_.connect_timeout_ms, io_timeout_ms);
  // Phase 1 (staged): every active peer gets its own kJoin, so each member
  // admits us explicitly (a HELLO alone must not activate a slot: a
  // decommissioned node still greets while draining). The first ack's view
  // is remembered but NOT adopted yet — adoption re-announces our resident
  // entries, and a peer that has not yet processed our kJoin would wipe
  // those records again when member_joined clears our table.
  // Phase 2 (active): with every member's admission in hand, adopt the
  // acked view, realign slot flags, and greet.
  bool acked = false;
  std::uint64_t acked_epoch = 0;
  std::vector<core::NodeId> acked_members;
  Status last_error(StatusCode::kUnavailable, "no active peer to join via");
  for (auto& peer : peers_) {
    if (!peer->active.load(std::memory_order_acquire)) continue;
    joins_sent_.fetch_add(1, std::memory_order_relaxed);
    auto resp = data_exchange(peer->address.id, Message::join(self_),
                              MsgType::kJoinAck, io_timeout_ms,
                              connect_timeout_ms);
    if (!resp) {
      last_error = resp.status();
      continue;
    }
    if (acked) continue;
    acked = true;
    acked_epoch = resp.value().membership_epoch;
    acked_members = resp.value().members;
  }
  if (!acked) return last_error;
  manager->adopt_membership(acked_epoch, acked_members);
  for (auto& p : peers_) {
    p->active.store(manager->is_member(p->address.id),
                    std::memory_order_release);
  }
  // Greet the cluster so the sender links come up and epoch vectors flow.
  for (auto& peer : peers_) {
    if (!peer->active.load(std::memory_order_acquire)) continue;
    peer->outbound->try_push(make_hello());
  }
  SWALA_LOG(Info) << "node " << self_ << ": joined cluster (epoch "
                  << manager->membership_epoch() << ", "
                  << manager->active_members().size() << " members)";
  return Status::ok();
}

void NodeGroup::announce_decommission() {
  core::CacheManager* manager = manager_.load(std::memory_order_acquire);
  const std::uint64_t epoch =
      manager != nullptr ? manager->membership_epoch() : 0;
  SWALA_LOG(Info) << "node " << self_
                  << ": announcing decommission (epoch " << epoch << ")";
  enqueue_broadcast(Message::decommission(self_, epoch));
}

void NodeGroup::set_member_active(core::NodeId id, bool active) {
  PeerLink* link = find_link(id);
  if (link == nullptr) return;
  link->active.store(active, std::memory_order_release);
}

bool NodeGroup::member_active(core::NodeId id) const {
  if (id == self_) return true;
  PeerLink* link = find_link(id);
  if (link == nullptr) return false;
  return link->active.load(std::memory_order_acquire);
}

std::size_t NodeGroup::outbound_backlog() const {
  std::size_t backlog = 0;
  for (const auto& peer : peers_) backlog += peer->outbound->size();
  return backlog;
}

std::vector<PeerHealth> NodeGroup::peer_health() const {
  std::vector<PeerHealth> out;
  out.reserve(peers_.size());
  for (const auto& peer : peers_) {
    PeerHealth h;
    h.id = peer->address.id;
    h.active = peer->active.load(std::memory_order_acquire);
    {
      std::lock_guard<std::mutex> lock(peer->health_mutex);
      h.state = peer->state;
      h.consecutive_failures =
          static_cast<std::uint64_t>(peer->consecutive_failures);
    }
    h.total_failures = peer->total_failures.load(std::memory_order_relaxed);
    h.messages_dropped = peer->dropped.load(std::memory_order_relaxed);
    h.probes_sent = peer->probes.load(std::memory_order_relaxed);
    h.outbound_backlog = peer->outbound->size();
    out.push_back(h);
  }
  return out;
}

PeerState NodeGroup::peer_state(core::NodeId id) const {
  PeerLink* link = find_link(id);
  if (link == nullptr) return PeerState::kHealthy;
  return state_of(link);
}

GroupStats NodeGroup::stats() const {
  GroupStats s;
  s.broadcasts_sent = broadcasts_sent_.load(std::memory_order_relaxed);
  s.frames_sent = frames_sent_.load(std::memory_order_relaxed);
  s.batched_broadcasts = batched_broadcasts_.load(std::memory_order_relaxed);
  s.updates_received = updates_received_.load(std::memory_order_relaxed);
  s.fetches_served = fetches_served_.load(std::memory_order_relaxed);
  s.fetch_misses_served = fetch_misses_served_.load(std::memory_order_relaxed);
  s.remote_fetches = remote_fetches_.load(std::memory_order_relaxed);
  s.send_failures = send_failures_.load(std::memory_order_relaxed);
  s.send_retries = send_retries_.load(std::memory_order_relaxed);
  s.peer_failures = peer_failures_.load(std::memory_order_relaxed);
  s.messages_dropped = messages_dropped_.load(std::memory_order_relaxed);
  s.probes_sent = probes_sent_.load(std::memory_order_relaxed);
  s.resyncs_requested = resyncs_requested_.load(std::memory_order_relaxed);
  s.resyncs_served = resyncs_served_.load(std::memory_order_relaxed);
  s.owner_updates_sent = owner_updates_sent_.load(std::memory_order_relaxed);
  s.queries_sent = queries_sent_.load(std::memory_order_relaxed);
  s.query_hits = query_hits_.load(std::memory_order_relaxed);
  s.queries_served = queries_served_.load(std::memory_order_relaxed);
  s.anti_entropy_rounds = anti_entropy_rounds_.load(std::memory_order_relaxed);
  s.digests_sent = digests_sent_.load(std::memory_order_relaxed);
  s.digest_repairs = digest_repairs_.load(std::memory_order_relaxed);
  s.inv_syncs_pulled = inv_syncs_pulled_.load(std::memory_order_relaxed);
  s.inv_syncs_served = inv_syncs_served_.load(std::memory_order_relaxed);
  s.joins_sent = joins_sent_.load(std::memory_order_relaxed);
  s.joins_served = joins_served_.load(std::memory_order_relaxed);
  s.decommissions_observed =
      decommissions_observed_.load(std::memory_order_relaxed);
  s.handoff_frames_sent = handoff_frames_sent_.load(std::memory_order_relaxed);
  s.handoffs_adopted = handoffs_adopted_.load(std::memory_order_relaxed);
  return s;
}

}  // namespace swala::cluster
