// The simulated cooperation fabric behind both virtual-time drivers — the
// cluster simulator (Figure 4, Tables 3, 5 and 6, the directory-mode and
// churn ablations) and the chaos harness: real CacheManagers on one
// discrete-event engine, joined by an in-memory CooperationBus. One-way
// frames arrive after a propagation delay and pass through the sender's
// seeded FaultInjector the way cluster::Transport::send treats them: a
// drop/truncate/blackhole loses the frame, kDuplicate delivers it twice,
// kDelay stretches its latency. Peers outside the sender's membership view
// get nothing, and a node that is down when a frame lands never sees it.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "cluster/message.h"
#include "cluster/transport.h"
#include "core/manager.h"
#include "sim/engine.h"

namespace swala::sim {

struct SimCosts;
class SimBus;

/// Directory traffic shared by every node's bus (one per cluster). Frames
/// and bytes are counted at send time, fault-injected legs included —
/// traffic offered to the network, as a packet capture would see it.
struct SimTraffic {
  std::uint64_t update_frames = 0;
  std::uint64_t update_bytes = 0;
  std::uint64_t query_frames = 0;
  std::uint64_t query_bytes = 0;
  // Membership-churn accounting (see SimReport).
  std::uint64_t transition_frames = 0;
  std::uint64_t transition_bytes = 0;
  std::uint64_t handoff_frames = 0;
  std::uint64_t handoff_bytes = 0;
  std::uint64_t handoffs_adopted = 0;
  /// Resident entries re-announced to one peer (SimBus::push_state_to).
  std::uint64_t resync_frames = 0;
  std::uint64_t resync_bytes = 0;
  /// While set, update legs count as transition traffic instead of regular
  /// directory updates (join_member / decommission_member raise it around
  /// the protocol steps, whose forwarding rides the same bus).
  bool in_transition = false;
};

/// One simulated cluster. Single-threaded: only engine callbacks touch it.
struct SimCluster {
  SimCluster() = default;
  SimCluster(const SimCluster&) = delete;  // buses and callbacks hold `this`
  SimCluster& operator=(const SimCluster&) = delete;

  SimEngine engine;
  SimTraffic traffic;
  std::vector<std::unique_ptr<SimBus>> buses;
  std::vector<std::unique_ptr<core::CacheManager>> managers;
  /// Harness view of the active set: a staged joiner has not been admitted
  /// yet, a decommissioned leaver handed its state off.
  std::vector<char> member;
  /// Nodes on the network. A crashed node keeps its store but receives
  /// nothing, and fetches and owner lookups to it time out.
  std::vector<char> alive;
  std::uint64_t membership_transitions = 0;  ///< joins + leaves applied

  bool live_member(std::size_t node) const {
    return alive[node] != 0 && member[node] != 0;
  }
};

/// CooperationBus for node `self` of a SimCluster. Remote fetches and
/// directory probes read the peer's state immediately; their latency is
/// the driver's to charge (see take_pending_latency).
class SimBus final : public core::CooperationBus {
 public:
  /// `faults` is the sender-side injector (null = no faults); `costs`
  /// supplies the propagation and probe latencies.
  SimBus(SimCluster* cluster, core::NodeId self, const SimCosts* costs,
         cluster::FaultInjector* faults);
  SimBus(const SimBus&) = delete;  // pending engine callbacks hold `this`
  SimBus& operator=(const SimBus&) = delete;

  /// Virtual latency accrued by synchronous directory probes since the last
  /// call (the probes themselves read peer state instantaneously).
  double take_pending_latency();

  /// Consults the injector for one frame to `peer`: how many copies arrive
  /// (0 = lost, 2 = duplicated); kDelay adds its latency to `*delay`.
  int deliveries(core::NodeId peer, cluster::MsgType type, double* delay);

  /// Re-announces this node's resident entries to `to`, as
  /// NodeGroup::push_state_to answers a kSyncReq or seeds a joiner: every
  /// entry in replicated mode, only the entries `to` owns in partitioned
  /// mode, nothing in query mode. Counted as resync traffic and not
  /// fault-injected.
  void push_state_to(core::NodeId to);

  void broadcast_insert(const core::EntryMeta& meta) override;
  void broadcast_erase(core::NodeId owner, const std::string& key,
                       std::uint64_t version) override;
  void broadcast_invalidate(const std::string& pattern) override {
    broadcast_invalidate(pattern, 0);
  }
  void broadcast_invalidate(const std::string& pattern,
                            std::uint64_t epoch) override;
  void send_owner_insert(core::NodeId ring_owner,
                         const core::EntryMeta& meta) override;
  void send_owner_erase(core::NodeId ring_owner, core::NodeId cache_node,
                        const std::string& key,
                        std::uint64_t version) override;
  Result<core::EntryMeta> lookup_at_owner(core::NodeId ring_owner,
                                          const std::string& key,
                                          int budget_ms) override;
  Result<core::EntryMeta> query_peers(const std::string& key,
                                      int budget_ms) override;
  Result<core::CachedResult> fetch_remote(core::NodeId owner,
                                          const std::string& key) override;
  void send_handoff(core::NodeId successor, const core::EntryMeta& meta,
                    const std::string& body) override;

 private:
  /// Peers outside the sender's membership view get no traffic (the TCP
  /// group drops frames to inactive slots at the sender).
  bool peer_is_member(std::size_t peer) const;
  /// Broadcast fan-out under the current membership view.
  std::size_t member_legs() const;
  /// Counts `legs` copies of an update frame as offered directory traffic
  /// (or as membership-transition traffic while in_transition is set).
  void count_update_legs(const cluster::Message& msg, std::size_t legs);
  /// One kQuery exchange against `peer`'s directory. Returns {answered,
  /// hit}: `answered` is false when the peer is down or fault injection
  /// eats the request or the response (the requester times out).
  std::pair<bool, std::optional<core::EntryMeta>> probe(
      core::NodeId peer, const std::string& key);

  /// One copy of a frame lands at `to` after `delay`; dropped there if `to`
  /// is down by then.
  template <typename Apply>
  void arrive(std::size_t to, double delay, Apply apply);
  /// One fault-injected one-way frame to `to`.
  template <typename Apply>
  void send(std::size_t to, cluster::MsgType type, const Apply& apply);
  /// The same frame to every member peer.
  template <typename Apply>
  void fan_out(cluster::MsgType type, const Apply& apply);

  SimCluster* cluster_;
  core::NodeId self_;
  const SimCosts* costs_;
  cluster::FaultInjector* faults_;
  double pending_latency_ = 0.0;
};

/// Per-member outcome of a join's admission step.
struct JoinAdmission {
  core::NodeId member = core::kInvalidNode;
  core::CacheManager::HandoffStats stats;
};

/// Two-phase join of `joiner` (the kJoin / kJoinAck exchange): every live
/// member admits it — partitioned mode forwards the remapped directory
/// slice, replicated mode also seeds the joiner with a full push — then the
/// joiner adopts the first live member's view. Returns each admission in
/// member order.
std::vector<JoinAdmission> join_member(SimCluster* cluster,
                                       core::NodeId joiner);

/// Graceful decommission of `leaver`: it stops admitting entries, ships its
/// cached state to ring successors over the handoff channel (bodies above
/// `batch_bytes` stay behind; 0 = no cap), and every live member drops it
/// without quarantine. Returns what the handoff sent.
core::CacheManager::HandoffStats decommission_member(SimCluster* cluster,
                                                     core::NodeId leaver,
                                                     std::uint64_t batch_bytes);

}  // namespace swala::sim
