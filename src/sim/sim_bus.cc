#include "sim/sim_bus.h"

#include "sim/cluster_sim.h"

namespace swala::sim {

SimBus::SimBus(SimCluster* cluster, core::NodeId self, const SimCosts* costs,
               cluster::FaultInjector* faults)
    : cluster_(cluster), self_(self), costs_(costs), faults_(faults) {}

double SimBus::take_pending_latency() {
  const double lat = pending_latency_;
  pending_latency_ = 0.0;
  return lat;
}

int SimBus::deliveries(core::NodeId peer, cluster::MsgType type,
                       double* delay) {
  if (faults_ == nullptr) return 1;
  const auto fault = faults_->decide(peer, type);
  switch (fault.kind) {
    case cluster::FaultKind::kNone:
      return 1;
    case cluster::FaultKind::kDelay:
      *delay += fault.delay_ms / 1000.0;
      return 1;
    case cluster::FaultKind::kDuplicate:
      return 2;
    case cluster::FaultKind::kDrop:
    case cluster::FaultKind::kTruncate:
    case cluster::FaultKind::kBlackhole:
      return 0;
  }
  return 1;
}

template <typename Apply>
void SimBus::arrive(std::size_t to, double delay, Apply apply) {
  cluster_->engine.schedule_in(delay, [this, to, apply] {
    if (!cluster_->alive[to]) return;  // lost on the floor of a crash
    apply(cluster_->managers[to].get());
  });
}

template <typename Apply>
void SimBus::send(std::size_t to, cluster::MsgType type, const Apply& apply) {
  double delay = costs_->directory_update_delay;
  const int copies = deliveries(static_cast<core::NodeId>(to), type, &delay);
  for (int copy = 0; copy < copies; ++copy) arrive(to, delay, apply);
}

template <typename Apply>
void SimBus::fan_out(cluster::MsgType type, const Apply& apply) {
  for (std::size_t peer = 0; peer < cluster_->managers.size(); ++peer) {
    if (peer == self_ || !peer_is_member(peer)) continue;
    send(peer, type, apply);
  }
}

void SimBus::push_state_to(core::NodeId to) {
  const core::CacheManager* m = cluster_->managers[self_].get();
  const auto mode = m->directory_mode();
  if (mode == core::DirectoryMode::kQuery) return;  // no remote state
  const bool replicated = mode == core::DirectoryMode::kReplicated;
  for (const auto& meta : m->store().resident_metas()) {
    if (!replicated && m->ring_owner_of(meta.key) != to) continue;
    cluster_->traffic.resync_frames += 1;
    cluster_->traffic.resync_bytes +=
        cluster::encode_message(replicated
                                    ? cluster::Message::insert(self_, meta)
                                    : cluster::Message::owner_insert(self_,
                                                                     meta))
            .size();
    arrive(to, costs_->directory_update_delay,
           [meta](core::CacheManager* peer) { peer->on_peer_insert(meta); });
  }
}

void SimBus::broadcast_insert(const core::EntryMeta& meta) {
  count_update_legs(cluster::Message::insert(self_, meta), member_legs());
  fan_out(cluster::MsgType::kInsert,
          [meta](core::CacheManager* peer) { peer->on_peer_insert(meta); });
}

void SimBus::broadcast_erase(core::NodeId owner, const std::string& key,
                             std::uint64_t version) {
  count_update_legs(cluster::Message::erase(self_, key, version),
                    member_legs());
  fan_out(cluster::MsgType::kErase,
          [owner, key, version](core::CacheManager* peer) {
            peer->on_peer_erase(owner, key, version);
          });
}

void SimBus::broadcast_invalidate(const std::string& pattern,
                                  std::uint64_t epoch) {
  count_update_legs(cluster::Message::invalidate(self_, pattern, epoch),
                    member_legs());
  fan_out(cluster::MsgType::kInvalidate,
          [pattern, origin = self_, epoch](core::CacheManager* peer) {
            peer->on_peer_invalidate(pattern, origin, epoch);
          });
}

void SimBus::send_owner_insert(core::NodeId ring_owner,
                               const core::EntryMeta& meta) {
  if (ring_owner >= cluster_->managers.size() || ring_owner == self_) return;
  count_update_legs(cluster::Message::owner_insert(self_, meta), 1);
  send(ring_owner, cluster::MsgType::kOwnerUpdate,
       [meta](core::CacheManager* owner) { owner->on_peer_insert(meta); });
}

void SimBus::send_owner_erase(core::NodeId ring_owner, core::NodeId cache_node,
                              const std::string& key, std::uint64_t version) {
  if (ring_owner >= cluster_->managers.size() || ring_owner == self_) return;
  count_update_legs(
      cluster::Message::owner_erase(self_, cache_node, key, version), 1);
  send(ring_owner, cluster::MsgType::kOwnerUpdate,
       [cache_node, key, version](core::CacheManager* owner) {
         owner->on_peer_erase(cache_node, key, version);
       });
}

Result<core::EntryMeta> SimBus::lookup_at_owner(core::NodeId ring_owner,
                                                const std::string& key,
                                                int budget_ms) {
  (void)budget_ms;  // virtual time: the probe either answers or faults
  if (ring_owner >= cluster_->managers.size()) {
    return Status(StatusCode::kInvalidArgument, "bad ring owner");
  }
  pending_latency_ += costs_->query_latency;
  auto answer = probe(ring_owner, key);
  if (!answer.first) {
    return Status(StatusCode::kTimeout, "simulated owner-lookup timeout");
  }
  if (!answer.second) {
    return Status(StatusCode::kNotFound, "owner knows of no cached copy");
  }
  return *answer.second;
}

Result<core::EntryMeta> SimBus::query_peers(const std::string& key,
                                            int budget_ms) {
  (void)budget_ms;
  // One multicast round: every peer is probed "in parallel", so the
  // request pays query_latency once; frames are counted per probed peer
  // (the sweep stops early on the first hit, as the TCP group does).
  pending_latency_ += costs_->query_latency;
  bool every_peer_answered = true;
  for (std::size_t peer = 0; peer < cluster_->managers.size(); ++peer) {
    if (peer == self_ || !peer_is_member(peer)) continue;
    auto answer = probe(static_cast<core::NodeId>(peer), key);
    if (!answer.first) {
      every_peer_answered = false;
      continue;
    }
    if (answer.second) return *answer.second;
  }
  if (every_peer_answered) {
    return Status(StatusCode::kNotFound, "no peer caches this key");
  }
  return Status(StatusCode::kTimeout, "query budget exhausted without a hit");
}

Result<core::CachedResult> SimBus::fetch_remote(core::NodeId owner,
                                                const std::string& key) {
  if (owner >= cluster_->managers.size()) {
    return Status(StatusCode::kInvalidArgument, "bad owner");
  }
  // A lost request or response: the requester's deadline expires and the
  // manager falls back to local execution. Latency (kDelay) is the node
  // model's job; a duplicated request/response changes nothing.
  double delay = 0.0;
  if (!cluster_->alive[owner] ||
      deliveries(owner, cluster::MsgType::kFetchReq, &delay) == 0) {
    return Status(StatusCode::kTimeout, "simulated fetch deadline");
  }
  return cluster_->managers[owner]->serve_peer_fetch(key);
}

void SimBus::send_handoff(core::NodeId successor, const core::EntryMeta& meta,
                          const std::string& body) {
  if (successor >= cluster_->managers.size() || successor == self_) return;
  SimTraffic& traffic = cluster_->traffic;
  traffic.handoff_frames += 1;
  traffic.handoff_bytes +=
      cluster::encode_message(
          cluster::Message::insert_handoff(self_, meta, body))
          .size();
  // A lost handoff costs one future re-execution, not data.
  send(successor, cluster::MsgType::kInsert,
       [&traffic, meta, body](core::CacheManager* peer) {
         if (peer->adopt_entry(meta, body)) traffic.handoffs_adopted += 1;
       });
}

bool SimBus::peer_is_member(std::size_t peer) const {
  return cluster_->managers[self_]->is_member(static_cast<core::NodeId>(peer));
}

std::size_t SimBus::member_legs() const {
  std::size_t legs = 0;
  for (std::size_t peer = 0; peer < cluster_->managers.size(); ++peer) {
    if (peer != self_ && peer_is_member(peer)) ++legs;
  }
  return legs;
}

void SimBus::count_update_legs(const cluster::Message& msg, std::size_t legs) {
  if (legs == 0) return;
  SimTraffic& traffic = cluster_->traffic;
  const std::size_t bytes = cluster::encode_message(msg).size();
  if (traffic.in_transition) {
    traffic.transition_frames += legs;
    traffic.transition_bytes += legs * bytes;
  } else {
    traffic.update_frames += legs;
    traffic.update_bytes += legs * bytes;
  }
}

std::pair<bool, std::optional<core::EntryMeta>> SimBus::probe(
    core::NodeId peer, const std::string& key) {
  // Traffic counts the request frame always and the response frame only
  // when one comes back.
  SimTraffic& traffic = cluster_->traffic;
  traffic.query_frames += 1;
  traffic.query_bytes +=
      cluster::encode_message(cluster::Message::query(self_, key)).size();
  double delay = 0.0;
  if (!cluster_->alive[peer] ||
      deliveries(peer, cluster::MsgType::kQuery, &delay) == 0) {
    return {false, std::nullopt};
  }
  pending_latency_ += delay;
  auto answer = cluster_->managers[peer]->answer_query(key);
  const cluster::Message resp = answer
                                    ? cluster::Message::query_hit(peer, *answer)
                                    : cluster::Message::query_miss(peer);
  traffic.query_frames += 1;
  traffic.query_bytes += cluster::encode_message(resp).size();
  return {true, std::move(answer)};
}

std::vector<JoinAdmission> join_member(SimCluster* cluster,
                                       core::NodeId joiner) {
  auto& managers = cluster->managers;
  const bool replicated =
      managers[joiner]->directory_mode() == core::DirectoryMode::kReplicated;
  std::vector<JoinAdmission> admissions;
  cluster->traffic.in_transition = true;
  for (std::size_t o = 0; o < managers.size(); ++o) {
    if (o == joiner || !cluster->live_member(o)) continue;
    admissions.push_back(
        {static_cast<core::NodeId>(o), managers[o]->member_joined(joiner)});
    if (replicated) cluster->buses[o]->push_state_to(joiner);
  }
  cluster->member[joiner] = 1;
  if (!admissions.empty()) {
    // kJoinAck: the joiner adopts the responder's post-admission view and
    // re-announces its stand-alone residents.
    const core::CacheManager& responder = *managers[admissions.front().member];
    managers[joiner]->adopt_membership(responder.membership_epoch(),
                                       responder.active_members());
  }
  cluster->traffic.in_transition = false;
  cluster->membership_transitions += 1;
  return admissions;
}

core::CacheManager::HandoffStats decommission_member(
    SimCluster* cluster, core::NodeId leaver, std::uint64_t batch_bytes) {
  auto& managers = cluster->managers;
  managers[leaver]->begin_decommission();
  cluster->traffic.in_transition = true;
  const auto handed_off = managers[leaver]->handoff_state(batch_bytes);
  for (std::size_t o = 0; o < managers.size(); ++o) {
    if (o == leaver || !cluster->live_member(o)) continue;
    managers[o]->member_left(leaver);
  }
  cluster->traffic.in_transition = false;
  cluster->member[leaver] = 0;
  cluster->membership_transitions += 1;
  return handed_off;
}

}  // namespace swala::sim
