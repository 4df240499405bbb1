// Virtual-time chaos driver: the whole scenario runs on the discrete-event
// engine, so every run of a given schedule is bit-for-bit identical —
// event log included. The nodes talk over the simulator's SimBus (the one
// the paper's tables use); this driver adds the TCP group's repair
// protocol on top (epoch piggyback on rejoin, periodic digest rounds with
// the two-strike mismatch rule, kInvSync pulls, recovery resync pushes),
// charging repair traffic at real encoded-frame sizes.
#include <memory>

#include "chaos/chaos.h"
#include "chaos/internal.h"
#include "cluster/digest_strikes.h"
#include "cluster/message.h"
#include "http/uri.h"
#include "sim/cluster_sim.h"
#include "sim/sim_bus.h"

namespace swala::chaos {
namespace {

using core::CacheManager;
using core::NodeId;
using detail::fmt3;
using detail::stamp;

constexpr double kDeliveryDelay = 0.01;  ///< virtual propagation latency
constexpr double kPollInterval = 0.05;   ///< staleness probe cadence

/// Everything one sim run owns on top of the simulated cluster.
/// Single-threaded: only engine callbacks touch it.
struct SimState : sim::SimCluster {
  const ChaosSchedule* schedule = nullptr;
  const OracleOptions* oracle = nullptr;
  sim::SimCosts costs;
  std::vector<std::unique_ptr<cluster::FaultInjector>> injectors;
  ChaosVerdict verdict;
  detail::StalenessProbe probe;
  /// Digest mismatch tracking per (receiver, sender).
  std::vector<std::vector<cluster::DigestStrikes>> strikes;

  void log(const std::string& text) {
    verdict.log.push_back(stamp(engine.now(), text));
  }
  void count_repair(const cluster::Message& msg) {
    verdict.repair_frames += 1;
    verdict.repair_bytes += cluster::encode_message(msg).size();
  }
};

// ---- repair protocol (mirrors NodeGroup's anti-entropy paths) ----

/// `puller` pulls missed invalidations from `source` over the simulated
/// kInvSync exchange, with both legs subject to fault injection.
void pull_inv_sync(SimState* state, std::size_t puller, std::size_t source) {
  CacheManager* p = state->managers[puller].get();
  CacheManager* s = state->managers[source].get();
  double delay = 0.0;
  const auto req = cluster::Message::inv_sync(static_cast<NodeId>(puller),
                                              p->inv_floor_vector());
  state->count_repair(req);
  if (state->buses[puller]->deliveries(static_cast<NodeId>(source),
                                       cluster::MsgType::kInvSync,
                                       &delay) == 0) {
    state->log("node " + std::to_string(puller) +
               ": kInvSync pull to node " + std::to_string(source) +
               " lost (fault injection)");
    return;
  }
  bool truncated = false;
  const auto entries = s->inv_entries_after(p->inv_floor_vector(), &truncated);
  const auto resp = cluster::Message::inv_sync_resp(
      static_cast<NodeId>(source), entries, truncated);
  state->count_repair(resp);
  if (state->buses[source]->deliveries(static_cast<NodeId>(puller),
                                       cluster::MsgType::kInvSyncResp,
                                       &delay) == 0) {
    state->log("node " + std::to_string(puller) +
               ": kInvSyncResp from node " + std::to_string(source) +
               " lost (fault injection)");
    return;
  }
  const std::size_t applied = p->apply_inv_sync(entries, truncated);
  state->log("node " + std::to_string(puller) + ": pulled " +
             std::to_string(entries.size()) + " invalidation records from " +
             std::to_string(source) + ", applied " + std::to_string(applied) +
             (truncated ? " (log truncated: full purge)" : ""));
}

/// Epoch-gap check: if `source`'s advertised high vector proves `receiver`
/// missed an invalidation, pull.
void maybe_pull(SimState* state, std::size_t receiver, std::size_t source,
                const core::EpochVector& advertised_high) {
  if (advertised_high.empty()) return;
  if (!state->managers[receiver]->inv_behind(advertised_high)) return;
  state->log("node " + std::to_string(receiver) +
             ": epoch gap behind node " + std::to_string(source));
  pull_inv_sync(state, receiver, source);
}

/// One periodic digest round: every live node sends every live peer a
/// tailored kDigest; receivers pull on an epoch gap and resync on a
/// two-strike digest mismatch.
void digest_round(SimState* state) {
  state->verdict.anti_entropy_rounds += 1;
  for (std::size_t s = 0; s < state->managers.size(); ++s) {
    if (!state->live_member(s)) continue;
    CacheManager* sender = state->managers[s].get();
    const auto high = sender->inv_high_vector();
    for (std::size_t p = 0; p < state->managers.size(); ++p) {
      if (p == s || !state->live_member(p)) continue;
      std::size_t entries = 0;
      const std::uint64_t digest =
          sender->digest_for_peer(static_cast<NodeId>(p), &entries);
      const auto msg =
          cluster::Message::make_digest(static_cast<NodeId>(s), high, digest);
      state->count_repair(msg);
      double delay = kDeliveryDelay;
      if (state->buses[s]->deliveries(static_cast<NodeId>(p),
                                      cluster::MsgType::kDigest, &delay) == 0) {
        continue;  // this round's frame lost; the next round retries
      }
      state->engine.schedule_in(delay, [state, s, p, high, digest] {
        if (!state->alive[p] || !state->alive[s]) return;
        maybe_pull(state, p, s, high);
        // Query mode digests an empty set to 0 on both sides: no strike.
        std::size_t n = 0;
        const std::uint64_t local =
            state->managers[p]->digest_of_peer_table(static_cast<NodeId>(s),
                                                     &n);
        if (!state->strikes[p][s].observe(digest, local)) return;
        // Confirmed drift: drop the table and ask for a resync.
        state->log("node " + std::to_string(p) + ": digest mismatch vs node " +
                   std::to_string(s) + " confirmed; resyncing table");
        state->managers[p]->on_peer_recovered(static_cast<NodeId>(s));
        state->buses[s]->push_state_to(static_cast<NodeId>(p));
      });
    }
  }
}

/// Rejoin after a crash: mirrors what record_success + the greeting HELLO
/// exchange do on the TCP substrate — survivors drop their quarantined
/// table of the rejoiner and re-push, the rejoiner re-pushes its surviving
/// store, and the HELLO epoch vectors expose invalidation gaps both ways.
void rejoin(SimState* state, std::size_t node) {
  state->alive[node] = 1;
  state->probe.restart_at[node] = state->engine.now();
  if (!state->member[node]) return;  // outside the cluster: nothing to resync
  for (std::size_t o = 0; o < state->managers.size(); ++o) {
    if (o == node || !state->live_member(o)) continue;
    state->managers[o]->on_peer_recovered(static_cast<NodeId>(node));
    state->managers[node]->on_peer_recovered(static_cast<NodeId>(o));
    state->buses[o]->push_state_to(static_cast<NodeId>(node));
    state->buses[node]->push_state_to(static_cast<NodeId>(o));
    // HELLO epoch piggyback, both directions.
    maybe_pull(state, node, o, state->managers[o]->inv_high_vector());
    maybe_pull(state, o, node, state->managers[node]->inv_high_vector());
  }
}

void apply_action(SimState* state, const ChaosAction& action) {
  const std::size_t n = action.node;
  switch (action.kind) {
    case ActionKind::kAddFault:
      state->log("node " + std::to_string(n) + ": add fault " +
                 cluster::fault_kind_name(action.rule.kind) + " peer=" +
                 (action.rule.peer == core::kInvalidNode
                      ? std::string("*")
                      : std::to_string(action.rule.peer)));
      state->injectors[n]->add_rule(action.rule);
      break;
    case ActionKind::kClearFaults:
      state->log("node " + std::to_string(n) + ": clear faults");
      state->injectors[n]->clear();
      break;
    case ActionKind::kCrash:
      if (!state->alive[n]) break;
      state->log("node " + std::to_string(n) + ": CRASH (off the network)");
      state->alive[n] = 0;
      break;
    case ActionKind::kRestart:
      if (state->alive[n]) break;
      state->log("node " + std::to_string(n) + ": RESTART (rejoin resync)");
      rejoin(state, n);
      break;
    case ActionKind::kInvalidate: {
      if (!state->alive[n]) {
        state->log("node " + std::to_string(n) +
                   ": invalidate skipped (node down)");
        break;
      }
      state->probe.invalidations.push_back(
          {action.key_or_pattern, state->engine.now()});
      const std::size_t removed =
          state->managers[n]->invalidate(action.key_or_pattern);
      state->log("node " + std::to_string(n) + ": invalidate \"" +
                 action.key_or_pattern + "\" removed " +
                 std::to_string(removed) + " local");
      if (state->oracle->expect_instant_consistency) {
        // Broken-oracle self-test: probe before the broadcast can land.
        state->engine.schedule_in(kDeliveryDelay / 2, [state] {
          std::vector<const CacheManager*> nodes;
          for (std::size_t i = 0; i < state->managers.size(); ++i) {
            nodes.push_back(state->member[i] ? state->managers[i].get()
                                             : nullptr);
          }
          state->probe.poll(state->engine.now(), nodes, state->alive,
                            &state->verdict);
        });
      }
      break;
    }
    case ActionKind::kInsert: {
      if (!state->alive[n]) {
        state->log("node " + std::to_string(n) +
                   ": insert skipped (node down)");
        break;
      }
      http::Uri uri;
      if (!http::parse_uri(action.key_or_pattern, &uri)) {
        state->log("node " + std::to_string(n) + ": bad insert target \"" +
                   action.key_or_pattern + "\"");
        break;
      }
      auto lookup = state->managers[n]->lookup(http::Method::kGet, uri);
      if (lookup.outcome != core::LookupOutcome::kMissMustExecute) {
        state->log("node " + std::to_string(n) + ": insert \"" +
                   action.key_or_pattern + "\" skipped (already cached)");
        break;
      }
      auto rule = lookup.rule;
      if (action.ttl_seconds > 0) rule.ttl_seconds = action.ttl_seconds;
      cgi::CgiOutput out;
      out.success = true;
      out.body = "chaos-" + action.key_or_pattern;
      state->managers[n]->complete(http::Method::kGet, uri, rule, out, 1.0);
      state->log("node " + std::to_string(n) + ": insert \"" +
                 action.key_or_pattern + "\"");
      break;
    }
    case ActionKind::kCheck: {
      std::vector<const CacheManager*> nodes;
      for (std::size_t i = 0; i < state->managers.size(); ++i) {
        nodes.push_back(state->live_member(i) ? state->managers[i].get()
                                              : nullptr);
      }
      const auto report = core::check_cluster_consistency(nodes);
      state->log(std::string("mid-run check: ") +
                 (report.consistent() ? "consistent" : "drift present") +
                 " (advisory)");
      break;
    }
    case ActionKind::kJoinNode: {
      if (!state->alive[n]) {
        state->log("node " + std::to_string(n) + ": join skipped (node down)");
        break;
      }
      if (state->member[n]) {
        state->log("node " + std::to_string(n) +
                   ": join skipped (already a member)");
        break;
      }
      // The kJoinAck responder is the first live member the kJoin fan-out
      // reaches; without one there is nobody to admit the joiner.
      bool any_live_member = false;
      for (std::size_t o = 0; o < state->managers.size(); ++o) {
        if (o != n && state->live_member(o)) any_live_member = true;
      }
      if (!any_live_member) {
        state->log("node " + std::to_string(n) +
                   ": join skipped (no live member to ack)");
        break;
      }
      for (const auto& admission : sim::join_member(state, n)) {
        const auto& hs = admission.stats;
        if (hs.records + hs.entries == 0) continue;
        state->log("node " + std::to_string(admission.member) + ": remapped " +
                   std::to_string(hs.records) + " records, re-announced " +
                   std::to_string(hs.entries) + " entries for joiner " +
                   std::to_string(n));
      }
      state->log("node " + std::to_string(n) + ": JOIN complete (epoch " +
                 std::to_string(state->managers[n]->membership_epoch()) + ")");
      break;
    }
    case ActionKind::kDecommissionNode: {
      if (!state->live_member(n)) {
        state->log("node " + std::to_string(n) +
                   ": decommission skipped (not an active member)");
        break;
      }
      const auto hs = sim::decommission_member(
          state, n, state->schedule->handoff_batch_bytes);
      state->log("node " + std::to_string(n) + ": DECOMMISSION (handed off " +
                 std::to_string(hs.records) + " records, " +
                 std::to_string(hs.entries) + " entries)");
      break;
    }
  }
}

}  // namespace

ChaosVerdict run_sim_chaos(const ChaosSchedule& schedule,
                           const OracleOptions& oracle) {
  SimState state;
  state.schedule = &schedule;
  state.oracle = &oracle;
  const std::size_t n = schedule.nodes;
  state.alive.assign(n, 1);
  if (schedule.initial_active.empty()) {
    state.member.assign(n, 1);
  } else {
    state.member.assign(n, 0);
    for (const NodeId id : schedule.initial_active) {
      if (id < n) state.member[id] = 1;
    }
  }
  state.strikes.assign(n, std::vector<cluster::DigestStrikes>(n));
  state.probe.interval = schedule.anti_entropy_interval_seconds;
  state.probe.slack = schedule.slack_seconds;
  state.probe.instant = oracle.expect_instant_consistency;
  state.probe.restart_at.assign(n, -1.0);

  state.costs.directory_update_delay = kDeliveryDelay;
  for (std::size_t i = 0; i < n; ++i) {
    state.injectors.push_back(std::make_unique<cluster::FaultInjector>(
        schedule.seed + i));
    state.buses.push_back(std::make_unique<sim::SimBus>(
        &state, static_cast<NodeId>(i), &state.costs,
        state.injectors[i].get()));
  }
  for (std::size_t i = 0; i < n; ++i) {
    core::ManagerOptions mo;
    mo.limits = {100000, 0};
    core::RuleDecision d;
    d.cacheable = true;
    mo.rules.add_rule("/cgi-bin/*", d);
    mo.directory_mode = schedule.directory_mode;
    mo.initial_members = schedule.initial_active;
    state.managers.push_back(std::make_unique<CacheManager>(
        static_cast<NodeId>(i), n, std::move(mo), state.engine.clock(),
        state.buses[i].get()));
  }

  state.log("chaos: " + std::to_string(n) + " nodes, seed " +
            std::to_string(schedule.seed) + ", anti-entropy interval " +
            fmt3(schedule.anti_entropy_interval_seconds) + "s, slack " +
            fmt3(schedule.slack_seconds) + "s");

  // Tail: enough for two repair rounds after the last scripted action.
  const double tail =
      2.0 * schedule.anti_entropy_interval_seconds + schedule.slack_seconds +
      0.5;
  const double t_end = schedule.duration_seconds + tail;

  for (const auto& action : schedule.actions) {
    state.engine.schedule_at(action.at_seconds, [&state, action] {
      apply_action(&state, action);
    });
  }
  if (schedule.anti_entropy_interval_seconds > 0) {
    for (double t = schedule.anti_entropy_interval_seconds; t < t_end;
         t += schedule.anti_entropy_interval_seconds) {
      state.engine.schedule_at(t, [&state] { digest_round(&state); });
    }
  }
  if (oracle.check_bounded_staleness) {
    for (double t = kPollInterval; t < t_end; t += kPollInterval) {
      state.engine.schedule_at(t, [&state] {
        std::vector<const CacheManager*> nodes;
        for (std::size_t i = 0; i < state.managers.size(); ++i) {
          nodes.push_back(state.member[i] ? state.managers[i].get()
                                          : nullptr);
        }
        state.probe.poll(state.engine.now(), nodes, state.alive,
                         &state.verdict);
      });
    }
  }
  state.engine.run();

  // Final global oracle: crashed nodes have no view to check.
  if (oracle.check_final_consistency) {
    std::vector<const CacheManager*> nodes;
    for (std::size_t i = 0; i < n; ++i) {
      nodes.push_back(state.live_member(i) ? state.managers[i].get()
                                           : nullptr);
    }
    const auto report = core::check_cluster_consistency(nodes);
    if (!report.consistent()) {
      state.verdict.violations.push_back(
          stamp(state.engine.now(),
                "FINAL: cluster inconsistent after repair rounds:\n" +
                    report.to_string()));
    }
    state.log(std::string("final check: ") +
              (report.consistent() ? "consistent" : "INCONSISTENT"));
  }
  state.verdict.repair_frames += state.traffic.resync_frames;
  state.verdict.repair_bytes += state.traffic.resync_bytes;
  state.verdict.membership_transitions = state.membership_transitions;
  state.verdict.handoff_frames = state.traffic.handoff_frames;
  state.verdict.handoff_bytes = state.traffic.handoff_bytes;
  state.verdict.handoffs_adopted = state.traffic.handoffs_adopted;
  for (const auto& m : state.managers) {
    const auto s = m->stats();
    state.verdict.gaps_repaired += s.inv_epoch_gaps_repaired;
    state.verdict.stale_serves_prevented += s.stale_serves_prevented;
    state.verdict.overflow_purges += s.inv_overflow_purges;
  }
  state.verdict.passed = state.verdict.violations.empty();
  state.log(std::string("verdict: ") +
            (state.verdict.passed ? "PASS" : "FAIL") + " (" +
            std::to_string(state.verdict.violations.size()) +
            " violations, " +
            std::to_string(state.verdict.gaps_repaired) + " gaps repaired, " +
            std::to_string(state.verdict.stale_serves_prevented) +
            " stale serves prevented)");
  return state.verdict;
}

}  // namespace swala::chaos
