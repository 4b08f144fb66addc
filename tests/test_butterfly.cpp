// Tests for the unidirectional butterfly MIN and the temporal-ordering
// heuristic (the paper's Sec. 6 future-work direction).
#include <gtest/gtest.h>

#include "analysis/sampling.hpp"
#include "butterfly/butterfly_topology.hpp"
#include "butterfly/temporal_order.hpp"
#include "runtime/mcast_runtime.hpp"

namespace pcm::butterfly {
namespace {

TEST(Butterfly, SizesAndValidation) {
  const auto topo = make_butterfly(64);
  EXPECT_EQ(topo->num_nodes(), 64);
  EXPECT_EQ(topo->stages(), 6);
  EXPECT_EQ(topo->num_routers(), 6 * 32);
  EXPECT_EQ(topo->radix(), 2);
  EXPECT_THROW(make_butterfly(3), std::invalid_argument);
  EXPECT_THROW(make_butterfly(0), std::invalid_argument);
}

TEST(Butterfly, WiringAndRoutingExhaustive) {
  EXPECT_EQ(sim::check_topology(*make_butterfly(16), /*exhaustive=*/true), "");
  EXPECT_EQ(sim::check_topology(*make_butterfly(64), /*exhaustive=*/false), "");
}

TEST(Butterfly, EveryPathCrossesAllStages) {
  const auto topo = make_butterfly(32);
  for (NodeId s = 0; s < 32; s += 3) {
    for (NodeId d = 0; d < 32; d += 5) {
      if (s == d) continue;
      const auto path = sim::trace_path(*topo, s, d);
      EXPECT_EQ(static_cast<int>(path.size()), topo->stages()) << s << "->" << d;
    }
  }
}

TEST(Butterfly, PathsAreUnique) {
  // Destination-tag routing: a single candidate everywhere.
  const auto topo = make_butterfly(16);
  std::vector<int> cand;
  for (int r = 0; r < topo->num_routers(); ++r) {
    cand.clear();
    topo->route(r, 0, 0, 13, cand);
    EXPECT_EQ(cand.size(), 1u);
  }
}

TEST(Butterfly, ShuffleIsAPermutationInverseOfItselfAfterQApplications) {
  const auto topo = make_butterfly(32);
  for (int w = 0; w < 32; ++w) {
    int x = w;
    for (int i = 0; i < topo->stages(); ++i) x = topo->shuffle(x);
    EXPECT_EQ(x, w) << "rotating q times must be the identity";
  }
}

TEST(Butterfly, DeliversMessages) {
  const auto topo = make_butterfly(64);
  sim::Simulator sim(*topo);
  sim::Message m;
  m.src = 5;
  m.dst = 44;
  m.flits = 16;
  m.ready_time = 0;
  sim.post(m);
  sim.run_until_idle();
  EXPECT_EQ(sim.stats().messages_delivered, 1);
}

TEST(Butterfly, RootChannelIsUnavoidablyShared) {
  // Sec. 6's point: some channel sets cannot be made disjoint.  Two
  // messages whose destination tags agree on the leading bits share the
  // early-stage channels whenever their sources collide on a switch.
  const auto topo = make_butterfly(8);
  // src 0 and src 4: shuffle(0)=0, shuffle(4=100)=001 — both stage-0
  // switch 0 (wires 0 and 1).  Same first-stage switch; same dst bit ->
  // same out channel.
  const auto p1 = sim::trace_path(*topo, 0, 6);
  const auto p2 = sim::trace_path(*topo, 4, 7);
  bool shared = false;
  for (auto c1 : p1)
    for (auto c2 : p2)
      if (c1 == c2) shared = true;
  EXPECT_TRUE(shared);
}

TEST(TemporalOrder, ReducesModelConflicts) {
  const auto topo = make_butterfly(64);
  const rt::RuntimeConfig cfg;
  analysis::Rng rng(5);
  int improved = 0, had_conflicts = 0;
  for (int trial = 0; trial < 4; ++trial) {
    const auto p = analysis::sample_placement(rng, 64, 24);
    TemporalOrderOptions opts;
    opts.budget = 300;
    opts.seed = 17 + trial;
    const TemporalOrderResult r =
        temporal_order(p.source, p.dests, *topo, cfg, sim::SimConfig{}, 4096, opts);
    EXPECT_LE(r.final_conflicts, r.initial_conflicts);
    if (r.initial_conflicts > 0) ++had_conflicts;
    if (r.final_conflicts < r.initial_conflicts) ++improved;
    // The tuned chain is still a permutation of the participants.
    EXPECT_EQ(r.chain.size(), 24);
    EXPECT_EQ(r.chain.source(), p.source);
  }
  EXPECT_GT(had_conflicts, 0);  // the butterfly does contend
  EXPECT_GT(improved, 0);       // and ordering does help
}

TEST(TemporalOrder, ZeroConflictChainsReturnImmediately) {
  const auto topo = make_butterfly(16);
  // Two-node multicast cannot conflict.
  const std::array<NodeId, 1> dests{9};
  const TemporalOrderResult r =
      temporal_order(3, dests, *topo, rt::RuntimeConfig{}, sim::SimConfig{}, 4096);
  EXPECT_EQ(r.initial_conflicts, 0);
  EXPECT_EQ(r.final_conflicts, 0);
  EXPECT_EQ(r.moves_tried, 0);
}

TEST(TemporalOrder, LowersSimulatedBlockingToo) {
  const auto topo = make_butterfly(64);
  rt::MulticastRuntime rtm(rt::RuntimeConfig{});
  const Bytes payload = 4096;
  const TwoParam tp =
      rtm.config().machine.two_param(rtm.wire_bytes(payload, 1));
  analysis::Rng rng(23);
  long long lex_blocks = 0, tuned_blocks = 0;
  for (int trial = 0; trial < 3; ++trial) {
    const auto p = analysis::sample_placement(rng, 64, 24);
    const SplitTable table = opt_split_table(tp.t_hold, tp.t_end, 24);
    const Chain lex = make_chain(p.source, p.dests, ChainOrder::kLexicographic);
    TemporalOrderOptions opts;
    opts.budget = 300;
    opts.seed = 31 + trial;
    const auto tuned = temporal_order(p.source, p.dests, *topo, rtm.config(),
                                      sim::SimConfig{}, payload, opts);
    sim::Simulator s1(*topo), s2(*topo);
    lex_blocks +=
        rtm.run(s1, build_chain_split_tree(lex, table), payload).channel_conflicts;
    tuned_blocks +=
        rtm.run(s2, build_chain_split_tree(tuned.chain, table), payload)
            .channel_conflicts;
  }
  EXPECT_LE(tuned_blocks, lex_blocks);
}

}  // namespace
}  // namespace pcm::butterfly
