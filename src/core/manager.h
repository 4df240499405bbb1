// CacheManager: the paper's "cacher module" (§4.1, Figure 2). Request
// threads ask it to classify a request as uncacheable / cacheable-but-not-
// cached / cached, fetch hits (local or remote, with false-hit fallback),
// and insert results after successful, long-enough CGI executions.
//
// Cooperation with the rest of the group goes through the `CooperationBus`
// interface; the real TCP implementation lives in src/cluster, an in-memory
// one in src/sim and the tests. A null bus produces a stand-alone cache.
//
// Commit protocol: every path that changes the local store's membership
// (complete, invalidate, on_peer_invalidate, purge_expired, the false-hit
// self-cleanup in lookup, restore_state) runs inside one mutation section
// guarded by `commit_mutex_`. Within a section the store change, the
// matching directory self-table change, and the broadcast enqueue are
// published together, so the directory self-table is a faithful mirror of
// the store at every section boundary (the paper's Section 3 invariant).
// Broadcast enqueues are non-blocking (per-peer bounded queues), so holding
// the commit mutex across them cannot deadlock or stall on a slow peer.
// Peer-table updates (on_peer_insert/on_peer_erase) stay outside the
// section: they never touch the local store and are weakly consistent by
// design. Each committed section bumps `commit_sequence()`.
#pragma once

#include <atomic>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <unordered_map>
#include <vector>

#include "cgi/handler.h"
#include "common/clock.h"
#include "common/deadline.h"
#include "common/hash.h"
#include "core/consistency.h"
#include "core/directory.h"
#include "core/inv_log.h"
#include "core/rules.h"
#include "core/store.h"
#include "core/volume.h"

namespace swala::core {

/// How the manager talks to the other nodes in the group.
class CooperationBus {
 public:
  virtual ~CooperationBus() = default;

  /// Announces a new/updated local entry to all peers (asynchronous).
  virtual void broadcast_insert(const EntryMeta& meta) = 0;

  /// Announces a local deletion to all peers (asynchronous).
  virtual void broadcast_erase(NodeId owner, const std::string& key,
                               std::uint64_t version) = 0;

  /// Fetches a cached result from `owner`'s cache (synchronous).
  /// kNotFound signals a false hit: the entry is gone at the owner.
  virtual Result<CachedResult> fetch_remote(NodeId owner,
                                            const std::string& key) = 0;

  /// Deadline-budgeted fetch: the transport should give up after
  /// `budget_ms` (<=0 = use the configured timeout). Default ignores the
  /// budget so single-purpose buses (tests, simulator) need not care; the
  /// real TCP group caps its socket timeouts at the budget.
  virtual Result<CachedResult> fetch_remote(NodeId owner,
                                            const std::string& key,
                                            int budget_ms) {
    (void)budget_ms;
    return fetch_remote(owner, key);
  }

  /// Announces a cluster-wide invalidation of every key matching a
  /// shell-style glob (application-driven invalidation, §4.2 future work).
  /// Default: no-op, so single-purpose buses (tests, simulator) need not
  /// care unless they exercise invalidation.
  virtual void broadcast_invalidate(const std::string& pattern) {
    (void)pattern;
  }

  /// Epoch-stamped variant (anti-entropy repair layer): the frame carries
  /// the origin's monotonic epoch so peers can detect and repair a lost
  /// invalidation. Default forwards to the unepoched overload so legacy
  /// buses keep working.
  virtual void broadcast_invalidate(const std::string& pattern,
                                    std::uint64_t epoch) {
    (void)epoch;
    broadcast_invalidate(pattern);
  }

  // ---- partitioned mode (DirectoryMode::kPartitioned) ----
  // Defaults are no-ops / unavailable so replicated-only buses need not
  // care; the TCP group and the simulator override them.

  /// Unicasts "my cache now holds `meta`" to the key's ring owner.
  virtual void send_owner_insert(NodeId ring_owner, const EntryMeta& meta) {
    (void)ring_owner;
    (void)meta;
  }

  /// Unicasts "`cache_node` dropped `key`" to the key's ring owner.
  virtual void send_owner_erase(NodeId ring_owner, NodeId cache_node,
                                const std::string& key,
                                std::uint64_t version) {
    (void)ring_owner;
    (void)cache_node;
    (void)key;
    (void)version;
  }

  /// Asks the ring owner who caches `key` (synchronous, budgeted).
  /// kNotFound = the owner definitively knows of no copy.
  virtual Result<EntryMeta> lookup_at_owner(NodeId ring_owner,
                                            const std::string& key,
                                            int budget_ms) {
    (void)ring_owner;
    (void)key;
    (void)budget_ms;
    return Status(StatusCode::kUnavailable, "no partitioned-mode transport");
  }

  // ---- query mode (DirectoryMode::kQuery) ----

  /// Probes the peers for a cached copy of `key` (ICP-style, bounded by
  /// `budget_ms`; <=0 = transport default). kNotFound = every peer that
  /// answered in time reported a miss.
  virtual Result<EntryMeta> query_peers(const std::string& key,
                                        int budget_ms) {
    (void)key;
    (void)budget_ms;
    return Status(StatusCode::kUnavailable, "no query-mode transport");
  }

  // ---- dynamic membership (PR10) ----

  /// Graceful decommission: ship one cached entry (meta + body) to
  /// `successor`, which adopts it into its own store (a kInsert frame with
  /// the handoff tail). Default: no-op, so single-purpose buses need not
  /// care unless they exercise membership change.
  virtual void send_handoff(NodeId successor, const EntryMeta& meta,
                            const std::string& body) {
    (void)successor;
    (void)meta;
    (void)body;
  }
};

/// Classification of one incoming request.
enum class LookupOutcome {
  kUncacheable,      ///< execute, never cache
  kMissMustExecute,  ///< cacheable; execute and call `complete` (or `fail`)
  kHit,              ///< served from cache; `result` is valid
  /// Fail without executing: the key is negative-cached after a recent
  /// execution failure, the in-flight leader this request coalesced onto
  /// failed, or the request's deadline expired while waiting for the
  /// leader. `fail_status`/`fail_reason` describe the error. Only the
  /// deadline-aware lookup produces this outcome.
  kFailedFast,
};

struct LookupResult {
  LookupOutcome outcome = LookupOutcome::kUncacheable;
  RuleDecision rule;
  CachedResult result;   ///< valid when outcome == kHit
  bool remote = false;   ///< hit was fetched from a peer
  /// Hit was produced by riding another request's in-flight execution of
  /// the same key (single-flight miss coalescing), not by the cache proper.
  bool coalesced = false;
  NodeId owner = kInvalidNode;
  int fail_status = 0;      ///< HTTP status when outcome == kFailedFast
  std::string fail_reason;  ///< diagnostic when outcome == kFailedFast
};

/// Counters for the experiments (all monotonic).
struct ManagerStats {
  std::uint64_t lookups = 0;
  std::uint64_t uncacheable = 0;
  std::uint64_t local_hits = 0;
  std::uint64_t remote_hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t inserts = 0;
  std::uint64_t below_threshold = 0;  ///< executed but too fast to cache
  std::uint64_t failed_exec = 0;      ///< CGI failed; result discarded
  std::uint64_t false_hits = 0;       ///< remote fetch found entry deleted
  std::uint64_t false_misses = 0;     ///< duplicate caching detected
  std::uint64_t evictions_broadcast = 0;
  std::uint64_t invalidations = 0;    ///< entries dropped by invalidate()
  /// Remote fetch failed for a reason other than a false hit (timeout, dead
  /// peer, torn connection) and the request fell back to local execution.
  std::uint64_t fallback_executions = 0;

  // ---- cooperation modes (cluster.directory_mode) ----
  /// Partitioned mode: misses that asked the key's ring owner for the
  /// directory entry (the local table had nothing).
  std::uint64_t remote_dir_lookups = 0;
  /// ... of which the owner knew a cached copy.
  std::uint64_t remote_dir_hits = 0;
  /// Query mode: misses that probed the peers (kQuery multicast).
  std::uint64_t peer_queries = 0;
  /// ... of which some peer advertised a cached copy.
  std::uint64_t peer_query_hits = 0;

  // ---- overload protection (single-flight miss coalescing) ----
  /// Misses that rode another request's in-flight execution instead of
  /// forking their own CGI (success or failure — the waiters got the
  /// leader's result either way).
  std::uint64_t coalesced_misses = 0;
  /// Waiters whose deadline expired before the leader finished; the
  /// request failed fast rather than outliving its budget.
  std::uint64_t coalesce_timeouts = 0;
  /// Lookups answered from the per-key negative cache (a recent execution
  /// failure is remembered for `negative_ttl_seconds`, stopping retry
  /// storms on a persistently failing CGI).
  std::uint64_t failed_fast = 0;

  // ---- durability ----
  /// Store inserts that failed with a disk I/O error.
  std::uint64_t disk_errors = 0;
  /// Inserts skipped because the store is degraded (request still served,
  /// just uncached — the disk equivalent of fallback_executions).
  std::uint64_t degraded_skips = 0;
  /// 1 while the store is degraded after `disk_failure_threshold`
  /// consecutive put failures; probe inserts eventually clear it.
  std::uint64_t store_degraded = 0;
  /// Successful periodic manifest checkpoints (purge-tick cadence).
  std::uint64_t checkpoints = 0;
  /// Checkpoint attempts that failed (manifest write error).
  std::uint64_t checkpoint_failures = 0;

  // ---- anti-entropy consistency repair ----
  /// Missed invalidations pulled from a peer via kInvSync and applied
  /// (each one is an invalidation this node would otherwise never see).
  std::uint64_t inv_epoch_gaps_repaired = 0;
  /// Stale store entries dropped by repaired invalidations — each was a
  /// pre-invalidation version this node would have kept serving until TTL.
  std::uint64_t stale_serves_prevented = 0;
  /// Conservative full purges taken because the peer's replay log had
  /// already evicted records this node needed (inv_log_entries too small
  /// for the gap).
  std::uint64_t inv_overflow_purges = 0;

  // ---- dynamic membership (PR10) ----
  /// Membership transitions applied locally (joins + leaves).
  std::uint64_t membership_transitions = 0;
  /// Directory records forwarded to a new ring owner (ring change or
  /// decommission partition handoff) — kOwnerUpdate frames.
  std::uint64_t handoff_records_sent = 0;
  /// Cached entries shipped to successors at decommission (kInsert handoff).
  std::uint64_t handoff_entries_sent = 0;
  /// Handed-off entries this node adopted into its own store.
  std::uint64_t handoff_entries_adopted = 0;
  /// Partitioned lookups that probed the pre-transition ring owner during a
  /// dual-read window.
  std::uint64_t dual_read_probes = 0;

  std::uint64_t hits() const { return local_hits + remote_hits; }
};

/// Which durable store implementation backs the cache when `disk_dir` is
/// set ([cache] store = files | volume).
enum class StoreBackendKind {
  kFiles,   ///< DiskBackend: one file per entry (the paper's design)
  kVolume,  ///< VolumeBackend: log-structured single preallocated file
};

/// Configuration for one node's cache manager.
struct ManagerOptions {
  StoreLimits limits;
  PolicyKind policy = PolicyKind::kLru;
  CacheabilityRules rules;
  /// Storage directory for the disk backend; empty selects MemoryBackend.
  std::string disk_dir;
  /// Durable store implementation under `disk_dir` (default: the paper's
  /// file-per-entry DiskBackend, which stays the fault-injection reference).
  StoreBackendKind store = StoreBackendKind::kFiles;
  /// Volume-store tuning; `volume.volume_bytes` must be set when
  /// store == kVolume.
  VolumeOptions volume;
  /// Manifest path for periodic checkpointing; empty disables it. A crash
  /// then loses at most `checkpoint_interval_seconds` of cache additions,
  /// not the whole cache.
  std::string state_file;
  /// Minimum seconds between checkpoints. Checkpoints ride the purge tick
  /// (purge_expired), so the effective cadence is
  /// max(purge_interval, checkpoint_interval_seconds).
  double checkpoint_interval_seconds = 10.0;
  /// Consecutive insert I/O failures before the store degrades to
  /// serve-uncacheable mode.
  int disk_failure_threshold = 5;
  /// While degraded, one insert in this many is attempted as a recovery
  /// probe; a success re-enables caching.
  int degraded_probe_every = 32;
  /// Injectable filesystem seam threaded into the disk backend (tests).
  /// Null = the real filesystem. Not owned.
  FsOps* fs_ops = nullptr;
  /// Seconds a failed execution is remembered per key; deadline-aware
  /// lookups within the window fail fast (kFailedFast) instead of
  /// re-executing a CGI that just failed. 0 disables the negative cache.
  double negative_ttl_seconds = 0.0;
  /// How directory state is shared across the group (see DirectoryMode).
  /// Every node must agree on the mode, seed and vnode count.
  DirectoryMode directory_mode = DirectoryMode::kReplicated;
  /// Consistent-hash placement parameters (partitioned mode only). The ring
  /// covers the *active* membership: initially `initial_members` (or all of
  /// [0, num_nodes) when empty), then member_joined/member_left resize it —
  /// only the remapped key ranges migrate, and a dual-read window (probe
  /// the pre-transition owner first) covers the migration. A dead owner's
  /// key range is still handled by quarantine + local-execution fallback,
  /// not by resizing (an unplanned death hands nothing off).
  std::uint64_t ring_seed = HashRing::kDefaultSeed;
  std::size_t ring_vnodes = HashRing::kDefaultVnodes;
  /// Active members at construction. Empty = every slot [0, num_nodes).
  /// The directory always provisions `num_nodes` tables — capacity is fixed
  /// at config time; which slots are *active* is dynamic (join/decommission).
  std::vector<NodeId> initial_members;
  /// Bound on the epoch-stamped invalidation replay log (anti-entropy
  /// repair). A peer whose gap outruns the log falls back to a conservative
  /// full purge instead of staying stale.
  std::size_t inv_log_entries = 4096;
};

class CacheManager {
 public:
  CacheManager(NodeId self, std::size_t num_nodes, ManagerOptions options,
               const Clock* clock, CooperationBus* bus = nullptr,
               LockingMode locking = LockingMode::kPerTable);

  // ---- Request-thread API (Figure 2) ----

  /// Classifies and, on a hit, fetches. A false hit (remote copy vanished)
  /// comes back as kMissMustExecute after cleaning the directory. Misses
  /// are not coalesced, so a caller that completes misses later on one
  /// thread (the simulator, the chaos harness) never blocks.
  LookupResult lookup(http::Method method, const http::Uri& uri);

  /// Deadline-aware lookup with single-flight miss coalescing: concurrent
  /// misses (and expired-TTL refreshes) of one key share a single
  /// execution. The first miss becomes the *leader* (kMissMustExecute; it
  /// MUST later call `complete` or `fail`, or waiters stall until their
  /// deadlines); later misses block — up to `deadline` — for the leader's
  /// result and come back as a coalesced kHit or a propagated kFailedFast.
  /// Remote fetches cap their socket timeouts at the remaining budget.
  LookupResult lookup(http::Method method, const http::Uri& uri,
                      const Deadline& deadline);

  /// Reports a finished CGI execution so the result can be cached and
  /// broadcast. `rule` must be the decision `lookup` returned. Also
  /// releases single-flight waiters with the output (even when the result
  /// is not cached) and negative-caches the key on a failed execution.
  void complete(http::Method method, const http::Uri& uri,
                const RuleDecision& rule, const cgi::CgiOutput& output,
                double exec_seconds);

  /// Reports that the execution could not run at all (fork failure, gate
  /// timeout, deadline bail-out): releases single-flight waiters with the
  /// error and — when `remember` is set — negative-caches the key for
  /// `negative_ttl_seconds`. Pass remember=false for overload bail-outs
  /// (the CGI itself is fine; a short 503 must not poison the key).
  void fail(http::Method method, const http::Uri& uri,
            const RuleDecision& rule, int http_status,
            const std::string& reason, bool remember);

  // ---- Cluster-facing API (info/data daemon threads) ----

  /// Peer announced an insert.
  void on_peer_insert(const EntryMeta& meta);

  /// Peer announced a deletion.
  void on_peer_erase(NodeId owner, const std::string& key,
                     std::uint64_t version);

  /// Serves a peer's data request from the local store.
  Result<CachedResult> serve_peer_fetch(const std::string& key);

  /// Answers a peer's kQuery / owner-lookup probe: who caches `key`?
  /// Query mode answers from the self table alone (that is all the state
  /// the mode keeps, and it keeps the probe O(1)); partitioned owners scan
  /// every table (their partition is spread across per-cache-node tables).
  std::optional<EntryMeta> answer_query(const std::string& key) const;

  /// Purge daemon tick: drop expired local entries, broadcast the erases.
  /// Also the durability heartbeat: checkpoints the manifest when
  /// `state_file` is set and the checkpoint interval has elapsed. Returns
  /// how many entries were purged.
  std::size_t purge_expired();

  // ---- Invalidation (§4.2 future work, IBM-style [12]) ----

  /// Cluster-wide invalidation: removes every entry whose key matches the
  /// shell-style glob — from the local store, from every directory table,
  /// and (via broadcast) from all peers. Patterns match the full cache key
  /// ("GET /cgi-bin/report?q=1"). Returns local removals.
  std::size_t invalidate(const std::string& pattern);

  /// Applies a peer's invalidation broadcast (no re-broadcast).
  std::size_t on_peer_invalidate(const std::string& pattern);

  /// Epoch-stamped variant: the (origin, epoch) pair feeds the replay log's
  /// exact duplicate filter, so a replayed frame is a no-op. Epoch 0 =
  /// legacy/unepoched (always applied, never logged).
  std::size_t on_peer_invalidate(const std::string& pattern, NodeId origin,
                                 std::uint64_t epoch);

  // ---- Anti-entropy repair (epoch log + digest exchange) ----

  /// Highest invalidation epoch applied per origin (piggybacked on HELLO
  /// and the periodic kDigest round).
  EpochVector inv_high_vector() const;

  /// Contiguous floor per origin (what our kInvSync pull asks "after").
  EpochVector inv_floor_vector() const;

  /// True when a peer's advertised high-water vector proves we may have
  /// missed an invalidation (gap detected → pull via kInvSync).
  bool inv_behind(const EpochVector& peer_high) const;

  /// Serves a peer's kInvSync pull: every logged record above the
  /// requester's floors. Sets `*truncated` when the log already evicted
  /// records the requester needs.
  std::vector<InvalidationRecord> inv_entries_after(const EpochVector& floors,
                                                    bool* truncated) const;

  /// Applies a kInvSyncResp: admits each record through the duplicate
  /// filter and applies the new ones (counting inv_epoch_gaps_repaired and
  /// stale_serves_prevented). A truncated response falls back to a
  /// conservative full purge ("*"), counted as an inv_overflow_purge.
  /// Returns how many records were newly applied.
  std::size_t apply_inv_sync(const std::vector<InvalidationRecord>& entries,
                             bool truncated);

  /// Order-independent xor digest of (key, version) pairs this node expects
  /// `peer` to hold in its directory for us: replicated mode digests our
  /// whole self table; partitioned mode digests the subset of our store
  /// owned by `peer` on the ring; query mode keeps no peer state (0/empty).
  /// `*entries` gets the number of pairs digested.
  std::uint64_t digest_for_peer(NodeId peer, std::size_t* entries) const;

  /// The receiving side of the comparison: digest of what we actually hold
  /// in our table for `peer` (replicated: table[peer]; partitioned:
  /// table[peer] filtered to keys whose ring owner is us, so mis-routed
  /// frames cannot cause a persistent mismatch).
  std::uint64_t digest_of_peer_table(NodeId peer, std::size_t* entries) const;

  // ---- Dynamic membership (PR10) ----
  //
  // Capacity (directory tables, id space) is fixed at config time; the
  // *active set* within [0, num_nodes) is mutable. A join activates a slot,
  // a decommission deactivates one. In partitioned mode each transition
  // resizes the consistent-hash ring: only the remapped key ranges migrate
  // (targeted kOwnerUpdate forwarding), and until finish_ring_transition()
  // lookups run a dual-read window — probe the pre-transition owner first,
  // then the new one — so no lookup misses during migration.

  /// What a membership transition or decommission handoff actually sent.
  struct HandoffStats {
    std::size_t records = 0;  ///< directory records forwarded (kOwnerUpdate)
    std::size_t entries = 0;  ///< cached entries re-announced / shipped
  };

  /// Monotonic count of membership transitions applied by this node. Two
  /// nodes that applied the same joins/leaves report the same epoch
  /// (carried on HELLO / kJoinAck / kDecommission for divergence checks).
  std::uint64_t membership_epoch() const;

  /// Currently active member ids, sorted ascending.
  std::vector<NodeId> active_members() const;

  /// Whether `node` is in the active set.
  bool is_member(NodeId node) const;

  /// Activates `node` (two-phase join, activation side): adds it to the
  /// active set and the ring, bumps the membership epoch, clears any stale
  /// table state, and — in partitioned mode — opens the dual-read window
  /// and forwards the remapped slice (directory records this node owns that
  /// now map to `node`, plus re-announcing own entries whose owner moved).
  /// Idempotent: a no-op (zero stats, no epoch bump) if already active.
  HandoffStats member_joined(NodeId node);

  /// Deactivates `node` (graceful decommission observed, or operator
  /// removal): removes it from the active set and the ring, bumps the
  /// epoch, clears its table *without* quarantining (the leaver handed its
  /// state off; quarantine is for the unplanned-death path), opens the
  /// dual-read window, and re-announces own entries whose owner moved.
  /// Idempotent. Self-removal is rejected (use begin_decommission).
  HandoffStats member_left(NodeId node);

  /// Joiner side of kJoinAck: adopt the responder's membership view.
  /// Rebuilds the active set (self is always retained) and — in partitioned
  /// mode — the ring, with a dual-read window over the change; the epoch
  /// advances to at least `epoch`.
  void adopt_membership(std::uint64_t epoch,
                        const std::vector<NodeId>& members);

  /// Decommission step 1: stop accepting new inserts and adoptions, so the
  /// handoff below cannot race fresh state into the departing store.
  /// Lookups keep serving until the server-level drain.
  void begin_decommission();
  bool decommissioning() const;

  /// Decommission step 2: ship every cached entry (meta + body) to its
  /// post-removal successor via the bus's handoff channel — bodies larger
  /// than `batch_bytes` are skipped (a lost cache entry costs one future
  /// re-execution, never correctness; 0 = no cap) — and, in partitioned
  /// mode, forward this node's directory partition to its new owners.
  HandoffStats handoff_state(std::uint64_t batch_bytes);

  /// The node that takes over `key` once this node leaves: the ring owner
  /// with self removed (partitioned), or a key-hash pick among the other
  /// active members (replicated/query). Self when no other member exists.
  NodeId successor_for(const std::string& key) const;

  /// Receiving side of the handoff channel: adopt a shipped entry into the
  /// local store (one commit section: insert + directory + announce).
  /// Skipped — returns false — when already cached locally, expired, being
  /// decommissioned ourselves, or the store rejects it.
  bool adopt_entry(const EntryMeta& meta, const std::string& body);

  /// Closes the dual-read window (lookups stop probing the old owner).
  /// The next transition reopens it over the latest change.
  void finish_ring_transition();
  bool ring_transition_active() const;

  /// Current ring transition counter (HashRing::version).
  std::uint64_t ring_version() const;

  // ---- Peer failure handling (cluster circuit breaker) ----

  /// The cluster layer declared `peer` dead: quarantine its directory table
  /// so lookups stop advertising entries we cannot fetch.
  void on_peer_dead(NodeId peer);

  /// `peer` re-HELLOed: drop its stale table (a resync re-announces the
  /// live entries) and lift the quarantine.
  void on_peer_recovered(NodeId peer);

  // ---- Warm restart (disk-backed caches) ----

  /// Saves the local store's manifest and marks the data files for
  /// retention, so the next process can `restore_state`.
  Status save_state(const std::string& manifest_path);

  /// Restores the local store from a manifest, repopulates the local
  /// directory table, and (if clustered) broadcasts the restored entries so
  /// peers relearn them. Then scrubs the cache directory: corrupt files
  /// were quarantined during adoption, orphans (files no manifest line
  /// references — e.g. a put the crash cut off, or entries save_manifest
  /// skipped as expired) and leftover temp files are deleted. Returns how
  /// many entries came back; a missing manifest restores zero but still
  /// scrubs (first boot over a dirty directory).
  Result<std::size_t> restore_state(const std::string& manifest_path);

  /// What the startup scrub found (zeros before restore_state ran).
  ScrubReport last_scrub() const;

  /// Backend operational counters (erase errors, volume flush/compaction/
  /// recovery stats) for the /swala-status durability object.
  StorageCounters storage_counters() const {
    return store_->storage_counters();
  }

  /// Whether the storage backend is usable (cache dir creation can fail).
  Status storage_status() const { return store_->backend_init_status(); }

  /// True while inserts are suspended after repeated disk failures.
  bool store_degraded() const {
    return degraded_.load(std::memory_order_relaxed);
  }

  // ---- Introspection ----

  ManagerStats stats() const;
  const CacheStore& store() const { return *store_; }
  const CacheDirectory& directory() const { return *directory_; }
  const CacheabilityRules& rules() const { return options_.rules; }
  NodeId self() const { return self_; }
  DirectoryMode directory_mode() const { return options_.directory_mode; }

  /// The node owning `key`'s directory entry on the consistent-hash ring.
  /// Outside partitioned mode (or on an empty ring) this is `self`, so
  /// callers can treat "owner == self" uniformly as "no remote owner".
  NodeId ring_owner_of(const std::string& key) const;

  /// Cross-verifies the store's key set against the directory self-table
  /// under the commit mutex, so the answer is exact (no commit can be half
  /// applied while the check runs). Callable from tests, housekeeping
  /// threads, and the /swala-admin/check-consistency endpoint.
  ConsistencyReport debug_check_consistency() const;

  /// Number of mutation sections committed so far (diagnostics).
  std::uint64_t commit_sequence() const;

  /// Key for a request, exposed for tests and the simulator.
  static CacheKey key_for(http::Method method, const http::Uri& uri);

 private:
  /// One in-flight execution; waiters block on `cv` until the leader
  /// publishes. Held by shared_ptr so a waiter can outlive the map entry.
  struct InFlight {
    std::mutex mutex;
    std::condition_variable cv;
    bool done = false;     // guarded by mutex
    bool success = false;  // guarded by mutex
    cgi::CgiOutput output;  ///< valid when success
    int fail_status = 500;
    std::string fail_reason;
  };

  /// A remembered execution failure (negative cache).
  struct NegativeEntry {
    TimeNs expires = 0;
    int status = 503;
    std::string reason;
  };

  /// Shared body of the two lookup overloads; `deadline` null = the plain
  /// Figure-2 flow (no single-flight, no negative cache, uncapped remote
  /// fetch) that single-threaded virtual-time drivers rely on.
  LookupResult lookup_impl(http::Method method, const http::Uri& uri,
                           const Deadline* deadline);

  /// Partitioned-mode probe of one candidate directory owner (current or
  /// pre-transition). True when the lookup was satisfied (`out` is a hit).
  bool probe_dir_owner(LookupResult* out, NodeId owner_node,
                       const std::string& key, const Deadline* deadline);

  /// `key`'s owner under the pre-transition ring, or the current owner when
  /// no dual-read window is open (so prev != current ⇔ dual read needed).
  NodeId prev_ring_owner_of(const std::string& key) const;

  /// After a ring change old→new: forward the remapped slice — own store
  /// entries whose directory owner moved (re-announce to the new owner) and
  /// directory partition records this node owned that now belong elsewhere.
  HandoffStats reannounce_remapped(const HashRing& old_ring,
                                   const HashRing& new_ring);

  /// Who to tell about a stale directory record discovered via a false hit.
  enum class FalseHitSource {
    kLocalTable,  ///< replicated: erase from our own peer table
    kRingOwner,   ///< partitioned: also unicast the erase to the ring owner
    kProbe,       ///< query: no durable record exists anywhere — do nothing
  };

  /// Fetches `meta` from its caching node and fills `out` on success.
  /// Handles the false-hit (kNotFound) bookkeeping per `source` and counts
  /// fallback_executions on transport failure. Returns true on a hit.
  bool fetch_hit_from(LookupResult* out, const EntryMeta& meta,
                      const Deadline* deadline, FalseHitSource source);

  /// Mode-aware announcement of a local insert/erase: broadcast in
  /// replicated mode, unicast to the ring owner in partitioned mode, silent
  /// in query mode. announce_erase returns whether anything was sent.
  void announce_insert(const EntryMeta& meta);
  bool announce_erase(const std::string& key, std::uint64_t version);

  /// Single-flight entry point for a miss: leader registration or waiting.
  LookupResult finish_miss(LookupResult out, const std::string& key,
                           const Deadline* deadline);

  /// Releases waiters for `key` with a result or an error. No-op when no
  /// in-flight entry exists (plain-lookup callers never register one).
  void publish_execution(const std::string& key, bool success,
                         const cgi::CgiOutput* output, int fail_status,
                         const std::string& fail_reason);

  /// Remembers a failed execution for negative_ttl_seconds (if enabled).
  void record_negative(const std::string& key, int status,
                       const std::string& reason);

  /// Drops expired negative-cache entries (purge-tick housekeeping).
  void prune_negative();

  /// Removes `key` from store + directory and broadcasts the erase, all in
  /// one commit section. Used by lookup's self-cleanup when the directory
  /// advertises an entry the store can no longer serve. Re-validates under
  /// the mutex and leaves a fresh re-insert untouched.
  void retire_dead_entry(const std::string& key);

  /// Shared body of invalidate / on_peer_invalidate: one commit section
  /// dropping matching keys from the store and every directory table, plus
  /// (optionally) the re-broadcast. Returns local store removals.
  /// Rebroadcast (a locally originated invalidate) stamps the next epoch
  /// for this node; the peer path admits (origin, epoch) through the replay
  /// log's duplicate filter first and no-ops on a replay.
  std::size_t apply_invalidation(const std::string& pattern, bool rebroadcast,
                                 NodeId origin, std::uint64_t epoch);

  /// Degradation bookkeeping around one store insert outcome. Returns true
  /// when the insert should not even be attempted (degraded, not a probe).
  bool degraded_should_skip();
  void record_insert_outcome(bool io_failure);

  /// Saves the manifest if `state_file` is set and the checkpoint interval
  /// elapsed. Called from purge_expired (outside the commit mutex: the
  /// store serializes itself, and a slow disk must not stall lookups).
  void maybe_checkpoint();

  NodeId self_;
  ManagerOptions options_;
  const Clock* clock_;
  CooperationBus* bus_;

  std::unique_ptr<CacheStore> store_;
  std::unique_ptr<CacheDirectory> directory_;
  /// Key → directory-owner placement (partitioned mode; empty otherwise).
  /// Guarded by membership_mutex_ since PR10 (the ring resizes at runtime).
  HashRing ring_;
  // ---- dynamic membership state (guarded by membership_mutex_) ----
  /// Shared (not the commit mutex): ring_owner_of sits on the lookup hot
  /// path; transitions are rare and take the writer side. Lock order:
  /// commit_mutex_ → membership_mutex_ (announce_* under a commit section
  /// read the ring); transitions themselves never hold commit_mutex_.
  mutable std::shared_mutex membership_mutex_;
  /// Pre-transition ring while a dual-read window is open.
  std::optional<HashRing> prev_ring_;
  std::vector<NodeId> members_;  ///< sorted active set (all modes)
  std::atomic<std::uint64_t> membership_epoch_{0};
  std::atomic<bool> decommissioning_{false};
  /// Epoch-stamped invalidation replay log (anti-entropy repair). Its own
  /// mutex; epoch assignment/admission happens inside the commit section so
  /// the epoch order matches the store-mutation order.
  InvalidationLog inv_log_;

  /// Guards every local-store membership change together with its directory
  /// update and broadcast enqueue (see file header). Mutable so read-side
  /// diagnostics (debug_check_consistency) can take it on a const manager.
  mutable std::mutex commit_mutex_;
  std::uint64_t commit_seq_ = 0;  ///< guarded by commit_mutex_

  std::atomic<std::uint64_t> lookups_{0}, uncacheable_{0}, local_hits_{0},
      remote_hits_{0}, misses_{0}, inserts_{0}, below_threshold_{0},
      failed_exec_{0}, false_hits_{0}, false_misses_{0},
      evictions_broadcast_{0}, invalidations_{0}, fallback_executions_{0},
      coalesced_misses_{0}, coalesce_timeouts_{0}, failed_fast_{0},
      remote_dir_lookups_{0}, remote_dir_hits_{0}, peer_queries_{0},
      peer_query_hits_{0}, inv_epoch_gaps_repaired_{0},
      stale_serves_prevented_{0}, inv_overflow_purges_{0},
      membership_transitions_{0}, handoff_records_sent_{0},
      handoff_entries_sent_{0}, handoff_entries_adopted_{0},
      dual_read_probes_{0};

  // ---- single-flight state ----
  /// Guards inflight_ and negative_. Never held while waiting: waiters
  /// block on the flight's own mutex/cv so other keys stay unobstructed.
  std::mutex inflight_mutex_;
  std::unordered_map<std::string, std::shared_ptr<InFlight>> inflight_;
  std::unordered_map<std::string, NegativeEntry> negative_;

  // ---- durability state ----
  std::atomic<bool> degraded_{false};
  /// Checkpointing is held off until restore_state has run (set when
  /// `state_file` is configured): the purge daemon starts before the warm
  /// restore, and a checkpoint of the still-empty store would overwrite the
  /// very manifest the restore is about to read. Stays set when the restore
  /// fails for any reason other than a missing manifest, so an unreadable or
  /// newer-format manifest is never clobbered by this process.
  std::atomic<bool> restore_pending_{false};
  std::atomic<int> consecutive_put_failures_{0};
  std::atomic<std::uint64_t> degraded_attempts_{0};  ///< probe cadence
  std::atomic<std::uint64_t> disk_errors_{0}, degraded_skips_{0},
      checkpoints_{0}, checkpoint_failures_{0};
  /// Guards last_checkpoint_time_ and last_scrub_ (cold path only).
  mutable std::mutex durability_mutex_;
  TimeNs last_checkpoint_time_ = 0;
  ScrubReport last_scrub_;
};

}  // namespace swala::core
