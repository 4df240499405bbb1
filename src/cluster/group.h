// NodeGroup: the distributed half of the cacher module. Implements the
// paper's three daemon threads per node (§4.1):
//   1. info receiver  — accepts peer connections on the info port and applies
//                       INSERT/ERASE broadcasts to the local directory
//   2. data server    — listens on the data port and starts a thread per
//                       incoming FETCH request to return cached contents
//   3. purger         — wakes every `purge_interval` and deletes expired
//                       entries (broadcasting the deletions)
// plus per-peer sender threads that drain an outbound queue, making the
// broadcast genuinely asynchronous (no global locks; §4.2).
//
// Failure handling (beyond the paper, which assumed a healthy cluster):
// every peer link carries a circuit breaker. Send/fetch failures move a peer
// Healthy → Suspect → Dead after `failure_threshold` consecutive failures;
// a dead peer's directory table is quarantined via the manager, broadcasts
// to it are dropped instead of retried, and remote fetches fast-fail so
// request threads fall back to local CGI execution. While dead, the purger
// enqueues a HELLO probe every `probe_interval_ms`; the first successful
// exchange (or an inbound re-HELLO from the restarted peer) closes the
// breaker, clears the stale table and triggers a SYNC_REQ resync.
//
// All outgoing messages flow through a Transport, whose optional
// FaultInjector deterministically drops / delays / truncates / black-holes
// traffic for the failure tests.
//
// NodeGroup implements core::CooperationBus, so a CacheManager wired to it
// becomes a cooperative cache.
#pragma once

#include <atomic>
#include <chrono>
#include <memory>
#include <thread>
#include <unordered_map>
#include <vector>

#include "cluster/digest_strikes.h"
#include "cluster/framing.h"
#include "cluster/transport.h"
#include "common/queue.h"
#include "common/random.h"
#include "core/manager.h"
#include "net/socket.h"

namespace swala::cluster {

/// One provisioned member slot. The paper uses a fixed cluster; since PR10
/// the *capacity* (the slot list) is fixed at config time while the active
/// set within it is dynamic — kJoin activates a slot, kDecommission
/// deactivates one (see join_cluster / announce_decommission).
struct MemberAddress {
  core::NodeId id = core::kInvalidNode;
  net::InetAddress info_addr;  ///< receives directory broadcasts
  net::InetAddress data_addr;  ///< serves cache fetches
};

/// Circuit-breaker state of one peer as seen from this node.
enum class PeerState {
  kHealthy,  ///< breaker closed; traffic flows normally
  kSuspect,  ///< recent failure(s); still trying, not yet written off
  kDead,     ///< breaker open; broadcasts dropped, fetches fast-fail
};

const char* peer_state_name(PeerState state);

struct GroupOptions {
  double purge_interval_seconds = 2.0;  ///< "wakes up every few seconds"
  int fetch_timeout_ms = 10000;         ///< read deadline on FETCH_REQ
  int connect_timeout_ms = 5000;
  std::size_t outbound_queue_capacity = 65536;
  /// Idle data connections kept per peer for reuse (0 disables pooling and
  /// opens a connection per fetch, as the original Swala did).
  std::size_t fetch_pool_size = 4;
  /// Per-exchange ceiling for directory probes (partitioned-mode owner
  /// lookups and query-mode kQuery probes). Deliberately much tighter than
  /// fetch_timeout_ms: a probe is an optimization, and a slow answer must
  /// not delay the local-execution fallback.
  int query_timeout_ms = 300;

  // ---- broadcast batching ----
  /// Most queued directory updates (INSERT/ERASE/INVALIDATE) a sender loop
  /// packs into one kBatch frame. 1 disables batching: every update goes in
  /// its own frame, wire-identical to older builds. Kept off by default so
  /// per-type fault-injection rules and frame-level tests see the unbatched
  /// protocol unless a deployment opts in (node config defaults it on).
  std::size_t batch_max_messages = 1;
  /// Approximate payload ceiling for one batch frame.
  std::size_t batch_max_bytes = 256 * 1024;
  /// How long a sender lingers for more updates once it holds the first one
  /// and the queue runs dry. Bounds the latency batching can add.
  int batch_linger_ms = 2;

  // ---- failure handling ----
  /// Send attempts per queued broadcast before counting a failure.
  int broadcast_retry_limit = 3;
  int backoff_base_ms = 10;   ///< delay before the first retry (doubles)
  int backoff_max_ms = 200;   ///< backoff ceiling
  std::uint64_t backoff_seed = 0xB0FF5EEDu;  ///< jitter rng seed
  /// Consecutive failures that flip a peer's breaker to kDead.
  int failure_threshold = 3;
  /// How often the purger probes a dead peer with a HELLO.
  int probe_interval_ms = 250;
  /// Anti-entropy cadence: every this many milliseconds the purger sends
  /// each live peer a kDigest (high-water invalidation epochs + directory
  /// digest). A receiver that detects an epoch gap pulls the missed
  /// invalidations (kInvSync); a digest mismatch on two consecutive rounds
  /// triggers a directory resync. 0 disables anti-entropy (legacy
  /// fire-and-forget behaviour; node config defaults it on at 1000 ms).
  int anti_entropy_interval_ms = 0;
  /// Optional deterministic fault hook applied to every outgoing message
  /// (not owned; tests and the simulator share the same injector type).
  FaultInjector* fault_injector = nullptr;

  // ---- dynamic membership (PR10) ----
  /// Per-peer ceiling on one kJoin/kJoinAck exchange.
  int join_timeout_ms = 3000;
  /// Largest entry body shipped in one decommission handoff frame; larger
  /// entries are dropped (a lost cache entry costs one re-execution).
  std::size_t handoff_batch_bytes = 256 * 1024;
  /// Member ids active at start (this node's initial view). Empty = every
  /// configured slot. A node started outside the active set joins via
  /// join_cluster(); peers list it here-absent until its kJoin/HELLO.
  std::vector<core::NodeId> initial_active;
};

/// Counters for the overhead experiments (Tables 3 and 4).
struct GroupStats {
  std::uint64_t broadcasts_sent = 0;
  /// Frames actually written to peer info sockets by the sender loops
  /// (greetings included). With batching this is what amortization shrinks:
  /// many queued updates ride in one frame.
  std::uint64_t frames_sent = 0;
  /// Updates that rode inside a kBatch frame (counts inner messages).
  std::uint64_t batched_broadcasts = 0;
  std::uint64_t updates_received = 0;
  std::uint64_t fetches_served = 0;
  std::uint64_t fetch_misses_served = 0;  ///< peers' false hits seen from here
  std::uint64_t remote_fetches = 0;
  std::uint64_t send_failures = 0;
  // ---- failure handling ----
  std::uint64_t send_retries = 0;      ///< backoff-gated resend attempts
  std::uint64_t peer_failures = 0;     ///< breaker failure recordings
  std::uint64_t messages_dropped = 0;  ///< discarded while a peer was dead
  std::uint64_t probes_sent = 0;       ///< HELLO probes to dead peers
  std::uint64_t resyncs_requested = 0; ///< SYNC_REQs sent on recovery
  std::uint64_t resyncs_served = 0;    ///< peers' SYNC_REQs answered
  // ---- cooperation modes ----
  std::uint64_t owner_updates_sent = 0; ///< unicast kOwnerUpdate frames
  std::uint64_t queries_sent = 0;       ///< kQuery probes issued
  std::uint64_t query_hits = 0;         ///< probes answered "found"
  std::uint64_t queries_served = 0;     ///< peers' kQuery probes answered
  // ---- anti-entropy consistency repair ----
  std::uint64_t anti_entropy_rounds = 0;  ///< digest rounds initiated
  std::uint64_t digests_sent = 0;         ///< kDigest frames enqueued
  std::uint64_t digest_repairs = 0;       ///< directory resyncs a mismatch forced
  std::uint64_t inv_syncs_pulled = 0;     ///< kInvSync pulls issued on a gap
  std::uint64_t inv_syncs_served = 0;     ///< peers' kInvSync pulls answered
  // ---- dynamic membership ----
  std::uint64_t joins_sent = 0;           ///< kJoin requests issued
  std::uint64_t joins_served = 0;         ///< peers' kJoin requests admitted
  std::uint64_t decommissions_observed = 0;  ///< kDecommission frames applied
  std::uint64_t handoff_frames_sent = 0;  ///< kInsert handoff frames enqueued
  std::uint64_t handoffs_adopted = 0;     ///< handed-off entries adopted here
};

/// Snapshot of one peer's health (exposed via /swala-status).
struct PeerHealth {
  core::NodeId id = core::kInvalidNode;
  PeerState state = PeerState::kHealthy;
  bool active = true;  ///< member slot currently in the active set
  std::uint64_t consecutive_failures = 0;
  std::uint64_t total_failures = 0;
  std::uint64_t messages_dropped = 0;
  std::uint64_t probes_sent = 0;
  std::size_t outbound_backlog = 0;
};

class NodeGroup final : public core::CooperationBus {
 public:
  /// `members` describes every node including this one (matched by `self`).
  NodeGroup(core::NodeId self, std::vector<MemberAddress> members,
            GroupOptions options = {});
  ~NodeGroup() override;

  NodeGroup(const NodeGroup&) = delete;
  NodeGroup& operator=(const NodeGroup&) = delete;

  /// Wires the manager the daemons deliver updates to. The manager itself
  /// needs `this` as its bus, hence the two-phase setup: start() → attach().
  /// Release store: the daemons (already running) acquire-load the pointer,
  /// so everything constructed before attach() is visible to them.
  void attach(core::CacheManager* manager) {
    manager_.store(manager, std::memory_order_release);
  }

  /// Replaces the member address list. Needed when the group was created
  /// with ephemeral (port 0) addresses: after start() has bound the real
  /// ports, the resolved list is distributed to every group.
  /// Precondition: no cache traffic has flowed yet (call right after
  /// start(), before attach()).
  void set_members(std::vector<MemberAddress> members);

  /// Binds the info/data listeners and starts the daemon threads.
  Status start();

  /// Stops all daemons and closes all connections. Idempotent.
  void stop();

  // ---- core::CooperationBus ----
  void broadcast_insert(const core::EntryMeta& meta) override;
  void broadcast_erase(core::NodeId owner, const std::string& key,
                       std::uint64_t version) override;
  Result<core::CachedResult> fetch_remote(core::NodeId owner,
                                          const std::string& key) override;
  /// Budget-capped fetch: every socket timeout (connect, send, recv) is
  /// min(configured, budget_ms), so the fetch cannot outlive the request
  /// deadline that issued it. budget_ms <= 0 = configured timeouts.
  Result<core::CachedResult> fetch_remote(core::NodeId owner,
                                          const std::string& key,
                                          int budget_ms) override;
  void broadcast_invalidate(const std::string& pattern) override;
  void broadcast_invalidate(const std::string& pattern,
                            std::uint64_t epoch) override;
  // Partitioned mode: unicast directory updates ride the info channel (and
  // batch like broadcasts); owner lookups ride the data channel.
  void send_owner_insert(core::NodeId ring_owner,
                         const core::EntryMeta& meta) override;
  void send_owner_erase(core::NodeId ring_owner, core::NodeId cache_node,
                        const std::string& key,
                        std::uint64_t version) override;
  Result<core::EntryMeta> lookup_at_owner(core::NodeId ring_owner,
                                          const std::string& key,
                                          int budget_ms) override;
  // Query mode: a bounded sequential probe of the healthy peers (ICP uses
  // UDP multicast; over TCP the pooled data connections make a short
  // request/response round cheap). Total time never exceeds `budget_ms`
  // (<=0 = fetch_timeout_ms); each peer gets at most query_timeout_ms.
  Result<core::EntryMeta> query_peers(const std::string& key,
                                      int budget_ms) override;
  /// Decommission handoff: ships one cached entry (meta + body) to its
  /// successor as a kInsert frame flagged handoff, so the receiver adopts
  /// the entry into its own store instead of recording a directory entry.
  void send_handoff(core::NodeId successor, const core::EntryMeta& meta,
                    const std::string& body) override;

  // ---- dynamic membership (PR10) ----

  /// Two-phase join into a running cluster. Sends kJoin over the data
  /// channel to active peers in slot order until one admits us, adopts the
  /// returned membership (epoch + active set), then HELLOs every active
  /// peer so each of them activates our slot too. Requires attach() first.
  Status join_cluster();

  /// Broadcasts kDecommission to every active peer. The caller sequences
  /// the full graceful leave: manager->begin_decommission() →
  /// manager->handoff_state() → announce_decommission() → drain.
  void announce_decommission();

  /// Flips one member slot's active flag in this node's view (the protocol
  /// paths call this internally; tests and chaos use it directly). Inactive
  /// slots are skipped by broadcasts, probes, anti-entropy and queries —
  /// without the dead-peer quarantine a breaker trip would cause.
  void set_member_active(core::NodeId id, bool active);
  bool member_active(core::NodeId id) const;

  GroupStats stats() const;

  /// Health snapshot of every peer (excludes self).
  std::vector<PeerHealth> peer_health() const;

  /// Breaker state of one peer (kHealthy for self/unknown ids).
  PeerState peer_state(core::NodeId id) const;

  /// Listener ports after start() (useful when binding port 0).
  std::uint16_t info_port() const { return info_listener_.local_port(); }
  std::uint16_t data_port() const { return data_listener_.local_port(); }

  core::NodeId self() const { return self_; }
  std::size_t group_size() const { return members_.size(); }

  /// Messages enqueued to peers but not yet handed to their sender sockets.
  /// Tests poll this to quiesce deterministically before invariant checks.
  std::size_t outbound_backlog() const;

 private:
  struct PeerLink {
    MemberAddress address;
    std::unique_ptr<BoundedQueue<Message>> outbound;
    std::thread sender;
    /// Member slot currently in the active set (this node's view). An
    /// inactive slot is not dead — its breaker state is untouched — it is
    /// simply not a member: no broadcasts, probes, digests or queries.
    std::atomic<bool> active{true};

    // ---- circuit breaker ----
    mutable std::mutex health_mutex;
    PeerState state = PeerState::kHealthy;          // guarded by health_mutex
    int consecutive_failures = 0;                   // guarded by health_mutex
    std::chrono::steady_clock::time_point next_probe{};  // guarded
    std::atomic<std::uint64_t> total_failures{0};
    std::atomic<std::uint64_t> dropped{0};
    std::atomic<std::uint64_t> probes{0};

    /// Anti-entropy digest mismatches (guarded by health_mutex).
    DigestStrikes digest_strikes;
  };

  void info_accept_loop();
  void info_read_loop(net::TcpStream stream);
  /// Applies one (non-batch) info-channel message to the local state.
  void apply_info_message(const Message& msg);
  /// Pulls additional batchable messages from `link`'s queue into `run`
  /// until size/byte/linger limits; a non-batchable pull lands in `carry`.
  void collect_batch(PeerLink* link, std::vector<Message>* run,
                     std::optional<Message>* carry);
  void data_accept_loop();
  void serve_data_request(net::TcpStream stream);
  void purge_loop();
  void sender_loop(PeerLink* link);
  void enqueue_broadcast(const Message& msg);
  /// Unicast onto one peer's outbound queue (no-op for self/unknown ids).
  void enqueue_to(core::NodeId id, const Message& msg);

  /// One request/response round on the data channel: pooled connection,
  /// breaker fast-fail, one stale-pool retry, success/failure recording.
  /// Shared by fetch_remote, lookup_at_owner and query_peers. Timeouts are
  /// explicit because the three callers budget differently.
  Result<Message> data_exchange(core::NodeId peer_id, const Message& request,
                                MsgType expected, int io_timeout_ms,
                                int connect_timeout_ms);

  PeerLink* find_link(core::NodeId id) const;
  PeerState state_of(PeerLink* link) const;
  int backoff_delay_ms(int attempt);

  /// Breaker bookkeeping. `record_failure` opens the breaker (and
  /// quarantines the peer's table) after `failure_threshold` consecutive
  /// failures; `record_success` closes it and, when the peer was dead,
  /// clears the stale table, requests a resync and re-announces our own
  /// entries so both directions converge after a rejoin.
  void record_failure(PeerLink* link);
  void record_success(PeerLink* link);

  /// Enqueues HELLO probes to dead peers whose probe deadline has passed.
  void probe_dead_peers();

  /// Re-announces every locally cached entry to one peer (resync).
  void push_state_to(PeerLink* link);

  /// A HELLO carrying this node's invalidation high-water epochs (plain
  /// HELLO before a manager is attached).
  Message make_hello() const;

  /// One anti-entropy round: enqueue a tailored kDigest to every live peer.
  void anti_entropy_round();

  /// Reacts to a peer-advertised epoch vector: when we are behind, pulls
  /// the missed invalidations over the data channel (kInvSync) and applies
  /// them. Called outside any health_mutex.
  void maybe_pull_inv_sync(core::NodeId peer, const core::EpochVector& high);

  /// Digest comparison for one kDigest frame; two consecutive mismatches
  /// with the same expected value trigger a directory resync with `peer`.
  void check_digest(core::NodeId peer, bool has_digest, std::uint64_t digest);

  core::NodeId self_;
  std::vector<MemberAddress> members_;
  GroupOptions options_;
  Transport transport_;
  /// Written once by attach() while the daemon threads are already running
  /// and polling it; atomic so that publication is race-free.
  std::atomic<core::CacheManager*> manager_{nullptr};

  net::TcpListener info_listener_;
  net::TcpListener data_listener_;

  std::atomic<bool> running_{false};
  std::thread info_accept_thread_;
  std::thread data_accept_thread_;
  std::thread purge_thread_;
  std::vector<std::unique_ptr<PeerLink>> peers_;  // excludes self

  std::mutex reader_mutex_;
  std::vector<std::thread> reader_threads_;
  std::vector<std::thread> data_threads_;

  // Pooled idle data connections, keyed by peer node id.
  std::mutex pool_mutex_;
  std::unordered_map<core::NodeId, std::vector<net::TcpStream>> fetch_pool_;

  std::mutex backoff_mutex_;
  Rng backoff_rng_;  // guarded by backoff_mutex_

  mutable std::atomic<std::uint64_t> broadcasts_sent_{0}, frames_sent_{0},
      batched_broadcasts_{0}, updates_received_{0},
      fetches_served_{0}, fetch_misses_served_{0}, remote_fetches_{0},
      send_failures_{0}, send_retries_{0}, peer_failures_{0},
      messages_dropped_{0}, probes_sent_{0}, resyncs_requested_{0},
      resyncs_served_{0}, owner_updates_sent_{0}, queries_sent_{0},
      query_hits_{0}, queries_served_{0}, anti_entropy_rounds_{0},
      digests_sent_{0}, digest_repairs_{0}, inv_syncs_pulled_{0},
      inv_syncs_served_{0}, joins_sent_{0}, joins_served_{0},
      decommissions_observed_{0}, handoff_frames_sent_{0},
      handoffs_adopted_{0};
  /// Rotating start offset for query_peers sweeps (seeded from backoff_seed
  /// so probe order is deterministic per node yet differs across nodes).
  std::atomic<std::uint64_t> query_rotation_{0};
  /// Next anti-entropy round deadline (purge-loop thread only).
  std::chrono::steady_clock::time_point next_anti_entropy_{};
};

/// Builds loopback member addresses with ephemeral ports for `n` in-process
/// nodes (test/bench helper). Real ports are assigned when each group's
/// start() binds; LocalCluster redistributes them via set_members().
std::vector<MemberAddress> loopback_members(std::size_t n);

}  // namespace swala::cluster
