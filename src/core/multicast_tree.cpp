#include "core/multicast_tree.hpp"

#include <algorithm>
#include <functional>
#include <sstream>
#include <stdexcept>

namespace pcm {
namespace {

// One node's split loop (paper Algorithms 3.1/4.1), shared by every
// chain-split algorithm; recursion expands what each receiver would do.
void expand(int l, int r, int s, const SplitTable& table, MulticastTree& tree) {
  int seq = 0;
  while (l < r) {
    const int i = r - l + 1;
    const int j = table.split(i);
    int rec, child_lo, child_hi;
    if (s < l + j) {
      // Source in the lower part: hand the upper part to its lowest node.
      rec = l + j;
      child_lo = rec;
      child_hi = r;
      r = rec - 1;
    } else {
      // Source in the upper part: hand the lower part to its highest node.
      rec = r - j;
      child_lo = l;
      child_hi = rec;
      l = rec + 1;
    }
    const int idx = static_cast<int>(tree.sends.size());
    tree.sends.push_back(SendEvent{s, rec, seq++, child_lo, child_hi});
    tree.out[s].push_back(idx);
    expand(child_lo, child_hi, rec, table, tree);
  }
}

}  // namespace

MulticastTree build_chain_split_tree(const Chain& chain, const SplitTable& table) {
  if (table.size() < chain.size())
    throw std::invalid_argument("build_chain_split_tree: split table smaller than chain");
  // The split loop's two cases (source within the first j_i positions /
  // within the last j_i) only cover every source position when the
  // source side keeps at least half: 2 * j_i >= i.  All tables produced
  // for t_hold <= t_end satisfy this.
  for (int i = 2; i <= chain.size(); ++i)
    if (2 * table.split(i) < i)
      throw std::invalid_argument(
          "build_chain_split_tree: split table keeps less than half on the "
          "source side (requires t_hold <= t_end)");
  MulticastTree tree;
  tree.chain = chain;
  tree.out.assign(chain.size(), {});
  if (chain.size() > 1)
    expand(0, chain.size() - 1, chain.source_pos, table, tree);
  return tree;
}

std::vector<Time> model_finish_times(const MulticastTree& tree, TwoParam tp) {
  std::vector<Time> finish(tree.num_nodes(), 0);
  // Iterative DFS: (position, activation time).  Activation of the source
  // is t=0; of any other node, the moment it finishes receiving.
  std::function<void(int, Time)> visit = [&](int pos, Time t0) {
    finish[pos] = t0;
    Time issue = t0;
    for (int idx : tree.out[pos]) {
      const SendEvent& ev = tree.sends[idx];
      visit(ev.receiver_pos, issue + tp.t_end);
      issue += tp.t_hold;
    }
    if (!tree.out[pos].empty() && pos == tree.chain.source_pos) {
      // For the source, record its last operation issue time instead of a
      // receive time (it never receives).
      finish[pos] = issue;
    }
  };
  visit(tree.chain.source_pos, 0);
  return finish;
}

Time model_latency(const MulticastTree& tree, TwoParam tp) {
  const std::vector<Time> finish = model_finish_times(tree, tp);
  Time latest = 0;
  for (int pos = 0; pos < tree.num_nodes(); ++pos) {
    if (pos == tree.chain.source_pos) continue;
    latest = std::max(latest, finish[pos]);
  }
  return latest;
}

std::vector<Time> model_reduce_finish_times(const MulticastTree& tree, TwoParam tp) {
  std::vector<Time> finish(tree.num_nodes(), 0);
  std::function<Time(int)> visit = [&](int pos) -> Time {
    Time done = 0;
    Time stagger = 0;
    for (int idx : tree.out[pos]) {
      const Time child = visit(tree.sends[idx].receiver_pos);
      done = std::max(done, child + tp.t_end + stagger);
      stagger += tp.t_hold;
    }
    finish[pos] = done;
    return done;
  };
  visit(tree.chain.source_pos);
  return finish;
}

Time model_reduce_latency(const MulticastTree& tree, TwoParam tp) {
  return model_reduce_finish_times(tree, tp)[tree.chain.source_pos];
}

int tree_depth(const MulticastTree& tree) {
  int deepest = 0;
  std::function<void(int, int)> visit = [&](int pos, int depth) {
    deepest = std::max(deepest, depth);
    for (int idx : tree.out[pos]) visit(tree.sends[idx].receiver_pos, depth + 1);
  };
  visit(tree.chain.source_pos, 0);
  return deepest;
}

int max_fanout(const MulticastTree& tree) {
  size_t fan = 0;
  for (const auto& o : tree.out) fan = std::max(fan, o.size());
  return static_cast<int>(fan);
}

std::string check_tree(const MulticastTree& tree) {
  std::ostringstream err;
  std::vector<int> recv_count(tree.num_nodes(), 0);
  for (const SendEvent& ev : tree.sends) {
    recv_count[ev.receiver_pos]++;
    if (ev.receiver_pos < ev.sub_lo || ev.receiver_pos > ev.sub_hi)
      err << "send " << ev.sender_pos << "->" << ev.receiver_pos
          << ": receiver outside its interval; ";
    if (ev.sender_pos >= ev.sub_lo && ev.sender_pos <= ev.sub_hi)
      err << "send " << ev.sender_pos << "->" << ev.receiver_pos
          << ": sender inside child interval; ";
    if (ev.receiver_pos != ev.sub_lo && ev.receiver_pos != ev.sub_hi)
      err << "send " << ev.sender_pos << "->" << ev.receiver_pos
          << ": receiver not at interval boundary; ";
  }
  for (int pos = 0; pos < tree.num_nodes(); ++pos) {
    const int expected = (pos == tree.chain.source_pos) ? 0 : 1;
    if (recv_count[pos] != expected)
      err << "position " << pos << " received " << recv_count[pos] << " times; ";
  }
  return err.str();
}

}  // namespace pcm
