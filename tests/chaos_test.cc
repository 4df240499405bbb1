// Chaos-harness tests: determinism of the sim substrate, the broken-oracle
// self-check (the oracle must be falsifiable), the acceptance scenario from
// the anti-entropy work (a 100% kInvalidate drop storm to one peer repairs
// within one anti-entropy round — and demonstrably does NOT with the repair
// layer disabled), duplicate-replay idempotency, and a short live-TCP run.
#include <gtest/gtest.h>

#include <string>

#include "chaos/chaos.h"

namespace swala::chaos {
namespace {

ChaosAction at(double t, ActionKind kind, core::NodeId node,
               std::string key_or_pattern = "") {
  ChaosAction a;
  a.at_seconds = t;
  a.kind = kind;
  a.node = node;
  a.key_or_pattern = std::move(key_or_pattern);
  return a;
}

/// The PR's acceptance scenario: three nodes each cache a key under one
/// namespace; node 0's sends of kInvalidate to node 2 are dropped 100%;
/// node 0 invalidates the namespace. Node 2 keeps serving its stale copy
/// until the anti-entropy layer pulls the missed invalidation.
ChaosSchedule drop_storm_schedule(double anti_entropy_interval) {
  ChaosSchedule s;
  s.nodes = 3;
  s.seed = 7;
  s.duration_seconds = 5.0;
  s.anti_entropy_interval_seconds = anti_entropy_interval;
  s.slack_seconds = 0.5;
  s.actions.push_back(at(0.1, ActionKind::kInsert, 0, "/cgi-bin/acc/a"));
  s.actions.push_back(at(0.15, ActionKind::kInsert, 1, "/cgi-bin/acc/b"));
  s.actions.push_back(at(0.2, ActionKind::kInsert, 2, "/cgi-bin/acc/c"));
  {
    ChaosAction storm = at(0.5, ActionKind::kAddFault, 0);
    storm.rule.peer = 2;
    storm.rule.type = cluster::MsgType::kInvalidate;
    storm.rule.kind = cluster::FaultKind::kDrop;
    storm.rule.probability = 1.0;
    s.actions.push_back(storm);
  }
  s.actions.push_back(at(1.0, ActionKind::kInvalidate, 0, "GET /cgi-bin/acc/*"));
  return s;
}

/// Membership churn scenario: node 3 starts outside the active set and
/// caches one entry stand-alone, joins mid-run (its pre-join entry must
/// become visible to the cluster), then node 0 decommissions gracefully —
/// handing its entries to ring successors — and an invalidation sweeps the
/// namespace under the post-churn membership.
ChaosSchedule churn_schedule() {
  ChaosSchedule s;
  s.nodes = 4;
  s.seed = 97;
  s.duration_seconds = 5.0;
  s.anti_entropy_interval_seconds = 1.0;
  s.slack_seconds = 0.5;
  s.initial_active = {0, 1, 2};
  s.actions.push_back(at(0.1, ActionKind::kInsert, 0, "/cgi-bin/churn/a"));
  s.actions.push_back(at(0.15, ActionKind::kInsert, 1, "/cgi-bin/churn/b"));
  s.actions.push_back(at(0.2, ActionKind::kInsert, 2, "/cgi-bin/churn/c"));
  s.actions.push_back(at(0.5, ActionKind::kInsert, 3, "/cgi-bin/churn/d"));
  s.actions.push_back(at(1.0, ActionKind::kJoinNode, 3));
  s.actions.push_back(at(1.5, ActionKind::kInsert, 3, "/cgi-bin/churn/e"));
  s.actions.push_back(at(2.0, ActionKind::kDecommissionNode, 0));
  s.actions.push_back(at(2.5, ActionKind::kInsert, 1, "/cgi-bin/churn/f"));
  s.actions.push_back(
      at(3.0, ActionKind::kInvalidate, 1, "GET /cgi-bin/churn/a*"));
  return s;
}

TEST(ChaosSimTest, SameSeedSameScheduleIsByteDeterministic) {
  const ChaosSchedule schedule = make_random_schedule(42, 3, 6.0);
  const ChaosVerdict first = run_sim_chaos(schedule);
  const ChaosVerdict second = run_sim_chaos(schedule);
  EXPECT_EQ(first.passed, second.passed);
  EXPECT_EQ(first.log_text(), second.log_text());
  EXPECT_EQ(first.violations, second.violations);
  EXPECT_EQ(first.repair_frames, second.repair_frames);
  EXPECT_EQ(first.repair_bytes, second.repair_bytes);
  EXPECT_EQ(first.gaps_repaired, second.gaps_repaired);
  EXPECT_FALSE(first.log.empty());

  // A different seed must actually change the scenario (the generator is
  // seed-driven, not constant).
  const ChaosVerdict other = run_sim_chaos(make_random_schedule(43, 3, 6.0));
  EXPECT_NE(first.log_text(), other.log_text());
}

TEST(ChaosSimTest, BrokenOracleFailsOnAHealthyRun) {
  // No faults at all — yet "instant consistency" is an impossible claim
  // under nonzero propagation delay, so the oracle MUST fail. Guards
  // against a vacuous checker that never fires.
  ChaosSchedule s;
  s.nodes = 3;
  s.seed = 11;
  s.duration_seconds = 3.0;
  s.actions.push_back(at(0.1, ActionKind::kInsert, 0, "/cgi-bin/acc/a"));
  s.actions.push_back(at(0.15, ActionKind::kInsert, 1, "/cgi-bin/acc/b"));
  s.actions.push_back(at(1.0, ActionKind::kInvalidate, 0, "GET /cgi-bin/acc/*"));

  OracleOptions broken;
  broken.expect_instant_consistency = true;
  const ChaosVerdict verdict = run_sim_chaos(s, broken);
  EXPECT_FALSE(verdict.passed);
  EXPECT_FALSE(verdict.violations.empty());

  // The same run under the real bounded-staleness deadline passes.
  EXPECT_TRUE(run_sim_chaos(s).passed);
}

TEST(ChaosSimTest, DropStormRepairedWithinOneAntiEntropyRound) {
  const ChaosVerdict verdict = run_sim_chaos(drop_storm_schedule(1.0));
  EXPECT_TRUE(verdict.passed) << verdict.log_text();
  EXPECT_GE(verdict.gaps_repaired, 1u)
      << "node 2 must have pulled the dropped invalidation";
  EXPECT_GE(verdict.stale_serves_prevented, 1u);
  EXPECT_GE(verdict.anti_entropy_rounds, 1u);
  EXPECT_GT(verdict.repair_frames, 0u);
  EXPECT_GT(verdict.repair_bytes, 0u);

  // The stale window existed (node 2 held the dead entry for a while) but
  // closed before the deadline.
  bool saw_window = false;
  for (const auto& w : verdict.staleness_windows) {
    if (w.node == 2 && !w.violation) saw_window = true;
    EXPECT_FALSE(w.violation) << w.key;
  }
  EXPECT_TRUE(saw_window) << "expected a transient stale window on node 2";
}

TEST(ChaosSimTest, DisabledAntiEntropyReproducesStaleServeUntilTtl) {
  // Same scenario, repair layer off: node 2 serves the stale entry past
  // every deadline and the final directory state never reconverges.
  const ChaosVerdict verdict = run_sim_chaos(drop_storm_schedule(0.0));
  EXPECT_FALSE(verdict.passed);
  EXPECT_EQ(verdict.gaps_repaired, 0u);
  bool stale_on_node_2 = false;
  for (const auto& w : verdict.staleness_windows) {
    if (w.node == 2 && w.violation) stale_on_node_2 = true;
  }
  EXPECT_TRUE(stale_on_node_2) << verdict.log_text();
}

TEST(ChaosSimTest, DuplicateRepliesAreIdempotent) {
  // Every frame node 0 and node 1 send is delivered twice; version and
  // epoch guards must make the copies no-ops, so the run stays consistent.
  ChaosSchedule s;
  s.nodes = 3;
  s.seed = 21;
  s.duration_seconds = 4.0;
  for (int n = 0; n < 2; ++n) {
    ChaosAction dup = at(0.05, ActionKind::kAddFault,
                         static_cast<core::NodeId>(n));
    dup.rule.kind = cluster::FaultKind::kDuplicate;
    dup.rule.probability = 1.0;
    s.actions.push_back(dup);
  }
  s.actions.push_back(at(0.2, ActionKind::kInsert, 0, "/cgi-bin/dup/a"));
  s.actions.push_back(at(0.3, ActionKind::kInsert, 1, "/cgi-bin/dup/b"));
  s.actions.push_back(at(0.4, ActionKind::kInsert, 2, "/cgi-bin/dup/c"));
  s.actions.push_back(at(1.0, ActionKind::kInvalidate, 0, "GET /cgi-bin/dup/a*"));
  s.actions.push_back(at(1.5, ActionKind::kInvalidate, 1, "GET /cgi-bin/dup/b*"));

  const ChaosVerdict verdict = run_sim_chaos(s);
  EXPECT_TRUE(verdict.passed) << verdict.log_text();
}

TEST(ChaosSimTest, CrashedNodeRejoinDropsEntriesInvalidatedWhilePartitioned) {
  // The rejoin-staleness scenario end to end on the sim substrate: node 2
  // crashes with a matching entry in its store, the invalidation fires
  // while it is away, and the rejoin epoch exchange must clean it up.
  ChaosSchedule s;
  s.nodes = 3;
  s.seed = 31;
  s.duration_seconds = 5.0;
  s.actions.push_back(at(0.1, ActionKind::kInsert, 0, "/cgi-bin/rj/a"));
  s.actions.push_back(at(0.2, ActionKind::kInsert, 2, "/cgi-bin/rj/c"));
  s.actions.push_back(at(0.5, ActionKind::kCrash, 2));
  s.actions.push_back(at(1.0, ActionKind::kInvalidate, 0, "GET /cgi-bin/rj/*"));
  s.actions.push_back(at(2.5, ActionKind::kRestart, 2));

  const ChaosVerdict verdict = run_sim_chaos(s);
  EXPECT_TRUE(verdict.passed) << verdict.log_text();
  EXPECT_GE(verdict.gaps_repaired, 1u);
  EXPECT_GE(verdict.stale_serves_prevented, 1u);
}

TEST(ChaosSimTest, MembershipChurnJoinThenDecommissionStaysConsistent) {
  const ChaosVerdict verdict = run_sim_chaos(churn_schedule());
  EXPECT_TRUE(verdict.passed) << verdict.log_text();
  EXPECT_EQ(verdict.membership_transitions, 2u);
  EXPECT_GE(verdict.handoff_frames, 1u)
      << "the decommission must hand entries to successors";
  EXPECT_GE(verdict.handoffs_adopted, 1u);
  EXPECT_GT(verdict.handoff_bytes, 0u);

  // Churn does not break determinism: same schedule, same byte-for-byte log.
  const ChaosVerdict second = run_sim_chaos(churn_schedule());
  EXPECT_EQ(verdict.log_text(), second.log_text());
  EXPECT_EQ(verdict.handoff_frames, second.handoff_frames);
}

TEST(ChaosSimTest, ChurnUnderDuplicateStormAdoptsEachEntryOnce) {
  // Every frame node 0 sends is delivered twice — including its handoff
  // frames at decommission. The already-cached guard in adopt_entry must
  // make the copies no-ops, so the run stays consistent and the adopted
  // count never exceeds the distinct entries shipped.
  ChaosSchedule s = churn_schedule();
  {
    ChaosAction dup = at(0.05, ActionKind::kAddFault, 0);
    dup.rule.kind = cluster::FaultKind::kDuplicate;
    dup.rule.probability = 1.0;
    s.actions.insert(s.actions.begin(), dup);
  }
  const ChaosVerdict verdict = run_sim_chaos(s);
  EXPECT_TRUE(verdict.passed) << verdict.log_text();
  EXPECT_EQ(verdict.membership_transitions, 2u);
  EXPECT_LE(verdict.handoffs_adopted, verdict.handoff_frames);
}

// The drop-storm and churn stories under every directory mode: the repair
// layer, the join seeding and the decommission handoff must hold whether
// directory state is replicated, partitioned by ring owner, or not kept at
// all (query mode probes peers on every miss).
class ChaosModeTest : public ::testing::TestWithParam<core::DirectoryMode> {};

TEST_P(ChaosModeTest, DropStormRepairedWithinOneAntiEntropyRound) {
  ChaosSchedule s = drop_storm_schedule(1.0);
  s.directory_mode = GetParam();
  const ChaosVerdict verdict = run_sim_chaos(s);
  EXPECT_TRUE(verdict.passed) << verdict.log_text();
  EXPECT_GE(verdict.gaps_repaired, 1u) << verdict.log_text();
  for (const auto& w : verdict.staleness_windows) {
    EXPECT_FALSE(w.violation) << w.key;
  }
}

TEST_P(ChaosModeTest, MembershipChurnJoinThenDecommissionStaysConsistent) {
  ChaosSchedule s = churn_schedule();
  s.directory_mode = GetParam();
  const ChaosVerdict verdict = run_sim_chaos(s);
  EXPECT_TRUE(verdict.passed) << verdict.log_text();
  EXPECT_EQ(verdict.membership_transitions, 2u);
  EXPECT_GE(verdict.handoff_frames, 1u) << verdict.log_text();
  EXPECT_GE(verdict.handoffs_adopted, 1u) << verdict.log_text();
}

INSTANTIATE_TEST_SUITE_P(
    AllModes, ChaosModeTest,
    ::testing::Values(core::DirectoryMode::kReplicated,
                      core::DirectoryMode::kPartitioned,
                      core::DirectoryMode::kQuery),
    [](const ::testing::TestParamInfo<core::DirectoryMode>& param) {
      return std::string(core::directory_mode_name(param.param));
    });

TEST(ChaosSimTest, QueryModeMissProbesPeers) {
  // Query mode keeps no directory: a miss must ask the peers, so a second
  // node requesting a key node 0 already caches finds it remotely and does
  // not execute (and cache) it again.
  ChaosSchedule s;
  s.nodes = 3;
  s.seed = 5;
  s.duration_seconds = 2.0;
  s.directory_mode = core::DirectoryMode::kQuery;
  s.actions.push_back(at(0.1, ActionKind::kInsert, 0, "/cgi-bin/q/a"));
  s.actions.push_back(at(0.5, ActionKind::kInsert, 1, "/cgi-bin/q/a"));
  const ChaosVerdict verdict = run_sim_chaos(s);
  EXPECT_TRUE(verdict.passed) << verdict.log_text();
  EXPECT_NE(verdict.log_text().find(
                "node 1: insert \"/cgi-bin/q/a\" skipped (already cached)"),
            std::string::npos)
      << verdict.log_text();
}

TEST(ChaosLiveTest, ScriptedRunOverRealTcpPasses) {
  // Short wall-clock smoke over loopback TCP: inserts, a kInvalidate drop
  // storm against one peer, an invalidation, repair via the real kDigest/
  // kInvSync exchange. Slack is generous — real threads, real timers.
  ChaosSchedule s = drop_storm_schedule(0.4);
  s.duration_seconds = 3.0;
  s.slack_seconds = 2.0;
  const ChaosVerdict verdict = run_live_chaos(s);
  EXPECT_TRUE(verdict.passed) << verdict.log_text();
  EXPECT_GE(verdict.gaps_repaired, 1u) << verdict.log_text();
  EXPECT_GE(verdict.anti_entropy_rounds, 1u);
}

TEST(ChaosLiveTest, MembershipChurnOverRealTcpPasses) {
  // The same churn story over loopback TCP: the staged joiner runs the real
  // two-phase kJoin exchange, the decommission ships real kInsert handoff
  // frames and broadcasts kDecommission, and the final oracle runs over the
  // post-churn membership.
  ChaosSchedule s = churn_schedule();
  s.duration_seconds = 4.0;
  s.anti_entropy_interval_seconds = 0.5;
  s.slack_seconds = 2.0;
  const ChaosVerdict verdict = run_live_chaos(s);
  EXPECT_TRUE(verdict.passed) << verdict.log_text();
  EXPECT_EQ(verdict.membership_transitions, 2u);
  EXPECT_GE(verdict.handoff_frames, 1u) << verdict.log_text();
  EXPECT_GE(verdict.handoffs_adopted, 1u);
}

}  // namespace
}  // namespace swala::chaos
