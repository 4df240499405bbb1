// Tests for the one placement rule (CacheManager::holds_record): under every
// directory mode, after an insert/erase burst, a join and a graceful leave,
// what each node digests for a peer equals what the peer digests of its
// table of that node, and a resync ships exactly the entries the rule
// selects. Runs on the simulator's in-process SimBus cluster, so the
// directory traffic is the real manager-to-manager protocol in virtual time.
#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <string>
#include <vector>

#include "sim/cluster_sim.h"
#include "sim/sim_bus.h"

namespace swala::sim {
namespace {

using core::DirectoryMode;
using core::NodeId;

constexpr std::size_t kNodes = 4;
constexpr NodeId kJoiner = 3;
constexpr NodeId kLeaver = 1;

/// Four SimBus nodes; node 3 is staged outside the initial view.
struct Cluster {
  explicit Cluster(DirectoryMode mode) {
    for (std::size_t i = 0; i < kNodes; ++i) {
      sim.buses.push_back(std::make_unique<SimBus>(
          &sim, static_cast<NodeId>(i), &costs, nullptr));
    }
    for (std::size_t i = 0; i < kNodes; ++i) {
      core::ManagerOptions mo;
      mo.limits = {40, 0};  // small enough that the burst evicts
      mo.directory_mode = mode;
      mo.initial_members = {0, 1, 2};
      core::RuleDecision rule;
      rule.cacheable = true;
      mo.rules.add_rule("/cgi-bin/*", rule);
      sim.managers.push_back(std::make_unique<core::CacheManager>(
          static_cast<NodeId>(i), kNodes, std::move(mo), sim.engine.clock(),
          sim.buses[i].get()));
    }
    sim.member = {1, 1, 1, 0};
    sim.alive = {1, 1, 1, 1};
  }

  /// One executed miss of `target` on `node`, cached by complete().
  void execute(std::size_t node, const std::string& target) {
    http::Uri uri;
    ASSERT_TRUE(http::parse_uri(target, &uri));
    core::CacheManager& m = *sim.managers[node];
    const auto looked = m.lookup(http::Method::kGet, uri);
    if (looked.outcome != core::LookupOutcome::kMissMustExecute) return;
    cgi::CgiOutput out;
    out.body = "body of " + target;
    m.complete(http::Method::kGet, uri, looked.rule, out, 1.0);
  }

  std::vector<NodeId> live() const {
    std::vector<NodeId> out;
    for (std::size_t i = 0; i < kNodes; ++i) {
      if (sim.live_member(i)) out.push_back(static_cast<NodeId>(i));
    }
    return out;
  }

  SimCosts costs;
  SimCluster sim;
};

class PlacementRuleTest : public ::testing::TestWithParam<DirectoryMode> {};

TEST_P(PlacementRuleTest, DigestsAndResyncFollowHoldsRecordThroughChurn) {
  Cluster c(GetParam());
  // Insert/erase burst: every node executes all 80 keys and evicts past
  // its 40-entry cap, then an invalidation drops a slice cluster-wide.
  // Enough entries stay that a join remaps some whose old directory owner
  // was the caching node itself (only its own re-announce covers those).
  for (int k = 0; k < 240; ++k) {
    c.execute(static_cast<std::size_t>(k % 3),
              "/cgi-bin/q?k=" + std::to_string(k % 80));
    c.sim.engine.run();
  }
  c.sim.managers[0]->invalidate("GET /cgi-bin/q?k=1*");
  c.sim.engine.run();

  join_member(&c.sim, kJoiner);
  c.sim.engine.run();
  for (int k = 0; k < 12; ++k) {
    c.execute(kJoiner, "/cgi-bin/j?k=" + std::to_string(k));
    c.sim.engine.run();
  }
  decommission_member(&c.sim, kLeaver, /*batch_bytes=*/0);
  c.sim.engine.run();
  for (const NodeId n : c.live()) c.sim.managers[n]->finish_ring_transition();

  std::size_t digested = 0;
  for (const NodeId a : c.live()) {
    const core::CacheManager& ma = *c.sim.managers[a];
    ASSERT_TRUE(ma.debug_check_consistency().consistent());
    for (const NodeId p : c.live()) {
      if (p == a) continue;
      const core::CacheManager& mp = *c.sim.managers[p];
      std::size_t sent = 0;
      std::size_t held = 0;
      EXPECT_EQ(ma.digest_for_peer(p, &sent), mp.digest_of_peer_table(a, &held))
          << "node " << a << " vs peer " << p;
      EXPECT_EQ(sent, held) << "node " << a << " vs peer " << p;
      digested += sent;

      // A resync ships exactly the self-table keys the rule selects.
      std::set<std::string> selected;
      for (const auto& meta : ma.directory().metas_at(a)) {
        if (ma.holds_record(p, meta.key)) selected.insert(meta.key);
      }
      std::set<std::string> resent;
      for (const auto& meta : ma.resync_for(p, /*joining=*/false).records) {
        resent.insert(meta.key);
      }
      EXPECT_EQ(resent, selected) << "node " << a << " vs peer " << p;
    }
  }
  // Replicated and partitioned peers keep records, so the comparison above
  // is not vacuous; query mode keeps none anywhere.
  if (GetParam() == DirectoryMode::kQuery) {
    EXPECT_EQ(digested, 0u);
  } else {
    EXPECT_GT(digested, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllModes, PlacementRuleTest,
    ::testing::Values(DirectoryMode::kReplicated, DirectoryMode::kPartitioned,
                      DirectoryMode::kQuery),
    [](const ::testing::TestParamInfo<DirectoryMode>& mode) {
      return std::string(core::directory_mode_name(mode.param));
    });

}  // namespace
}  // namespace swala::sim
