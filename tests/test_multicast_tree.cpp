// Tests for chain-split tree expansion and the contention-free model
// evaluator.
#include <gtest/gtest.h>

#include <numeric>

#include "core/multicast_tree.hpp"

namespace pcm {
namespace {

Chain identity_chain(int k, int source_pos) {
  Chain c;
  c.nodes.resize(k);
  std::iota(c.nodes.begin(), c.nodes.end(), 0);
  c.source_pos = source_pos;
  return c;
}

TEST(BuildTree, SingleNodeIsEmpty) {
  const Chain c = identity_chain(1, 0);
  const MulticastTree t = build_chain_split_tree(c, opt_split_table(20, 55, 1));
  EXPECT_TRUE(t.sends.empty());
  EXPECT_EQ(tree_depth(t), 0);
  EXPECT_EQ(check_tree(t), "");
}

TEST(BuildTree, TwoNodesOneSend) {
  const Chain c = identity_chain(2, 0);
  const MulticastTree t = build_chain_split_tree(c, opt_split_table(20, 55, 2));
  ASSERT_EQ(t.sends.size(), 1u);
  EXPECT_EQ(t.sends[0].sender_pos, 0);
  EXPECT_EQ(t.sends[0].receiver_pos, 1);
  EXPECT_EQ(check_tree(t), "");
}

TEST(BuildTree, EveryDestinationReceivesExactlyOnce) {
  for (int k : {2, 3, 5, 8, 17, 32, 64, 100}) {
    for (int src : {0, k / 3, k - 1}) {
      const Chain c = identity_chain(k, src);
      const MulticastTree t = build_chain_split_tree(c, opt_split_table(20, 55, k));
      EXPECT_EQ(check_tree(t), "") << "k=" << k << " src=" << src;
      EXPECT_EQ(static_cast<int>(t.sends.size()), k - 1);
    }
  }
}

TEST(BuildTree, RejectsUndersizedTable) {
  const Chain c = identity_chain(10, 0);
  EXPECT_THROW(build_chain_split_tree(c, opt_split_table(20, 55, 5)),
               std::invalid_argument);
}

TEST(ModelEval, MatchesDpPrediction) {
  // The evaluator walking the expanded tree must reproduce t[k] exactly
  // — that is the claim that the chain-split loop implements the
  // parameterized multicast tree.
  for (Time hold : {0L, 5L, 20L, 55L}) {
    for (Time end : {55L, 100L}) {
      const SplitTable table = opt_split_table(hold, end, 130);
      for (int k : {2, 3, 7, 8, 31, 64, 100, 130}) {
        for (int src : {0, 1, k / 2, k - 1}) {
          const Chain c = identity_chain(k, src);
          const MulticastTree t = build_chain_split_tree(c, table);
          EXPECT_EQ(model_latency(t, TwoParam{hold, end}), table.latency(k))
              << "hold=" << hold << " end=" << end << " k=" << k << " src=" << src;
        }
      }
    }
  }
}

TEST(ModelEval, BinomialDepthTimesEnd) {
  // With hold == end, the binomial tree's model latency is its depth
  // times t_end (each level costs one t_end).
  const Time te = 55;
  const SplitTable table = binomial_split_table(te, te, 64);
  for (int k : {2, 4, 8, 16, 32, 64}) {
    const Chain c = identity_chain(k, 0);
    const MulticastTree t = build_chain_split_tree(c, table);
    EXPECT_EQ(model_latency(t, TwoParam{te, te}),
              static_cast<Time>(tree_depth(t)) * te);
  }
}

TEST(ModelEval, PaperFigure1) {
  const SplitTable opt = opt_split_table(20, 55, 8);
  const SplitTable bin = binomial_split_table(20, 55, 8);
  const Chain c = identity_chain(8, 0);
  EXPECT_EQ(model_latency(build_chain_split_tree(c, opt), TwoParam{20, 55}), 130);
  EXPECT_EQ(model_latency(build_chain_split_tree(c, bin), TwoParam{20, 55}), 165);
}

TEST(ModelEval, SourcePositionDoesNotChangeModelLatency) {
  // In the contention-free model, node identity is irrelevant; only the
  // tree shape matters, and the shape depends on the source position only
  // through symmetric splits.  Latency must be identical for mirrored
  // source positions.
  const SplitTable table = opt_split_table(20, 55, 33);
  const TwoParam tp{20, 55};
  const Time at_left = model_latency(
      build_chain_split_tree(identity_chain(33, 0), table), tp);
  const Time at_right = model_latency(
      build_chain_split_tree(identity_chain(33, 32), table), tp);
  EXPECT_EQ(at_left, at_right);
}

TEST(TreeShape, BinomialDepthBounds) {
  // For powers of two the recursive-doubling depth is exactly log2 k; for
  // other sizes it can shave a level (the lone odd node hangs off an
  // internal split), but the model latency at t_hold == t_end is always
  // ceil(log2 k) * t_end.
  const SplitTable table = binomial_split_table(55, 55, 257);
  for (int k : {2, 4, 8, 16, 128, 256}) {
    const MulticastTree t = build_chain_split_tree(identity_chain(k, 0), table);
    int expect = 0, v = 1;
    while (v < k) { v <<= 1; ++expect; }
    EXPECT_EQ(tree_depth(t), expect) << "k=" << k;
  }
  for (int k : {3, 9, 17, 100, 257}) {
    const MulticastTree t = build_chain_split_tree(identity_chain(k, 0), table);
    int expect = 0, v = 1;
    while (v < k) { v <<= 1; ++expect; }
    EXPECT_LE(tree_depth(t), expect) << "k=" << k;
    EXPECT_EQ(model_latency(t, TwoParam{55, 55}), 55 * expect) << "k=" << k;
  }
}

TEST(TreeShape, SequentialFanoutIsKMinus1) {
  const SplitTable table = sequential_split_table(20, 55, 40);
  const MulticastTree t = build_chain_split_tree(identity_chain(40, 7), table);
  EXPECT_EQ(max_fanout(t), 39);
  EXPECT_EQ(tree_depth(t), 1);
  EXPECT_EQ(check_tree(t), "");
}

TEST(TreeShape, SendsCrossTheSplitBoundaryInIssueOrder) {
  const SplitTable table = opt_split_table(20, 55, 16);
  const MulticastTree t = build_chain_split_tree(identity_chain(16, 5), table);
  // Per-sender seq numbers must be 0,1,2,... in out[] order.
  for (int pos = 0; pos < t.num_nodes(); ++pos) {
    int expect = 0;
    for (int idx : t.out[pos]) EXPECT_EQ(t.sends[idx].seq, expect++);
  }
}

}  // namespace
}  // namespace pcm
