// Deterministic chaos harness + invariant oracle for the anti-entropy
// consistency-repair layer.
//
// A ChaosSchedule is a seeded, time-scripted fault scenario: inserts,
// invalidations, fault-injection rules (drop storms, slow peers, duplicate
// replays, torn writes), crash/restart of whole nodes, and explicit
// mid-run checkpoints. The same schedule runs on two substrates:
//
//   * run_sim_chaos  — virtual time over the discrete-event engine; fully
//     deterministic (same seed + schedule ⇒ byte-identical event log and
//     verdict), so it can drive CI regression tests of the repair protocol.
//   * run_live_chaos — real loopback TCP via LocalCluster + the send-side
//     FaultInjector; wall-clock time, so the verdict is reproducible in
//     outcome but not byte-for-byte in its log.
//
// The oracle asserts the bounded-staleness invariant: after invalidate(P)
// at time t, no live node may still hold a matching pre-invalidation entry
// past t + anti_entropy_interval + slack. With the interval set to 0
// (anti-entropy disabled) the deadline collapses to t + slack, which is how
// the harness demonstrates the failure mode the repair layer exists to fix.
// It also runs the cluster-wide store↔directory consistency check at the
// end of the run (crashed nodes excluded — they have no view to check).
//
// Schedules must not re-insert a key matching a pattern they have already
// invalidated: the staleness probe is membership-based (an entry in the
// store matching an invalidated pattern is presumed pre-invalidation), and
// make_random_schedule respects that by construction.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "cluster/transport.h"
#include "core/manager.h"

namespace swala::chaos {

/// One scripted event in a chaos schedule.
enum class ActionKind {
  kAddFault,     ///< install `rule` on `node`'s send-side fault injector
  kClearFaults,  ///< clear every rule on `node`'s injector
  kCrash,        ///< take `node` off the network (its store survives —
                 ///< partition-like crash, the rejoin-staleness scenario)
  kRestart,      ///< bring `node` back; rejoin resync + epoch repair run
  kInvalidate,   ///< `node` originates invalidate(key_or_pattern)
  kInsert,       ///< `node` executes + caches GET key_or_pattern
  kCheck,        ///< log a mid-run cluster consistency snapshot (advisory:
                 ///< drift is legal mid-traffic under weak consistency)
  kJoinNode,     ///< `node` runs the two-phase join protocol into the live
                 ///< cluster (no-op when already an active member)
  kDecommissionNode,  ///< graceful leave: `node` stops admitting entries,
                      ///< hands cached state to its ring successors, and
                      ///< peers deactivate it without quarantining it
};

const char* action_kind_name(ActionKind kind);

struct ChaosAction {
  double at_seconds = 0.0;
  ActionKind kind = ActionKind::kCheck;
  core::NodeId node = 0;         ///< acting node
  cluster::FaultRule rule;       ///< kAddFault only
  std::string key_or_pattern;    ///< kInsert: request target; kInvalidate:
                                 ///< glob over full cache keys ("GET /…*")
  double ttl_seconds = 0.0;      ///< kInsert: 0 = never expires
};

/// A complete scripted scenario. `seed` feeds every per-node FaultInjector
/// (seed + node) and, for generated schedules, the action mix itself.
struct ChaosSchedule {
  std::size_t nodes = 3;
  std::uint64_t seed = 1;
  double duration_seconds = 10.0;
  /// Anti-entropy digest cadence; 0 disables the periodic repair rounds
  /// (HELLO-piggybacked epoch repair on rejoin still runs — it is part of
  /// the resync path, not the periodic round).
  double anti_entropy_interval_seconds = 1.0;
  /// Grace beyond one anti-entropy round before staleness is a violation
  /// (covers propagation delay and, on the live substrate, scheduling).
  double slack_seconds = 0.5;
  core::DirectoryMode directory_mode = core::DirectoryMode::kReplicated;
  /// Active members at t=0 (empty = every node). A node absent from this
  /// list starts outside the cluster — alive and addressable, but ignored
  /// by peers — and must kJoinNode before it cooperates.
  std::vector<core::NodeId> initial_active;
  /// Decommission handoff: entry bodies larger than this are not shipped
  /// (0 = no cap). Mirrors cluster.handoff_batch_bytes.
  std::uint64_t handoff_batch_bytes = 256 * 1024;
  std::vector<ChaosAction> actions;
};

/// What the oracle checks. `expect_instant_consistency` is a deliberately
/// broken invariant (staleness deadline t + ~0 instead of t + interval +
/// slack): the harness self-test uses it to prove the oracle actually fails
/// when given a falsifiable claim, guarding against a vacuous checker.
struct OracleOptions {
  bool check_bounded_staleness = true;
  bool check_final_consistency = true;
  bool expect_instant_consistency = false;
};

/// One observed stale interval: `node` still held a pre-invalidation entry
/// matching an invalidated pattern at `observed_at` (> invalidated_at).
/// A violation is such an observation past `deadline`.
struct StalenessWindow {
  core::NodeId node = core::kInvalidNode;
  std::string key;
  double invalidated_at = 0.0;
  double observed_at = 0.0;
  double deadline = 0.0;
  bool violation = false;
};

/// Verdict of one chaos run.
struct ChaosVerdict {
  bool passed = false;
  std::vector<std::string> violations;
  /// Chronological event log ("t=1.250 …"); byte-deterministic on the sim
  /// substrate for a given schedule.
  std::vector<std::string> log;
  std::vector<StalenessWindow> staleness_windows;

  // ---- repair-layer accounting (cost of the consistency guarantee) ----
  std::uint64_t anti_entropy_rounds = 0;
  std::uint64_t repair_frames = 0;  ///< kDigest + kInvSync(+Resp) + resync
  std::uint64_t repair_bytes = 0;
  std::uint64_t gaps_repaired = 0;          ///< sum of per-node stats
  std::uint64_t stale_serves_prevented = 0; ///< sum of per-node stats
  std::uint64_t overflow_purges = 0;        ///< sum of per-node stats

  // ---- membership churn accounting (kJoinNode / kDecommissionNode) ----
  std::uint64_t membership_transitions = 0;  ///< joins + decommissions applied
  std::uint64_t handoff_frames = 0;   ///< entries shipped on the handoff
                                      ///< channel (kInsert handoff frames)
  std::uint64_t handoff_bytes = 0;    ///< encoded size of those frames
                                      ///< (sim substrate only)
  std::uint64_t handoffs_adopted = 0; ///< shipped entries successors adopted

  /// The whole log as one newline-joined string (determinism guard tests
  /// compare this across runs).
  std::string log_text() const;
};

/// Generates a seeded random-but-deterministic schedule: a warmup wave of
/// inserts, a middle phase of fault storms / crashes / invalidations, a
/// fault-clearing step well before the end (so the tail anti-entropy rounds
/// can actually converge), and restarts for every crashed node.
ChaosSchedule make_random_schedule(std::uint64_t seed, std::size_t nodes,
                                   double duration_seconds);

/// Runs `schedule` under virtual time (discrete-event engine, the
/// simulator's SimBus, per-node seeded FaultInjectors). Deterministic.
ChaosVerdict run_sim_chaos(const ChaosSchedule& schedule,
                           const OracleOptions& oracle = {});

/// Runs `schedule` over real loopback TCP (LocalCluster). Crash/restart map
/// to NodeGroup::stop()/start(); wall-clock timing, so keep durations short
/// and slack generous.
ChaosVerdict run_live_chaos(const ChaosSchedule& schedule,
                            const OracleOptions& oracle = {});

}  // namespace swala::chaos
