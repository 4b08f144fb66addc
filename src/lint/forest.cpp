// Cross-tree forest certification and the earliest-clean-offset
// admission primitive.
//
// lint_forest mirrors MulticastRuntime::run_concurrent symbolically: one
// software timeline per node shared by every tree, persistent per-node NI
// injection engines, and delivery events replayed in the simulator's
// handler order — (delivered cycle, ejection channel id), the router/port
// sweep order of Simulator::transfer.  Per node the posted ready times
// are nondecreasing in post order (each post advances the shared timeline
// by t_hold >= t_send), so the FIFO NI drains in post order and the
// earliest-free-engine assignment below is exact.  A clean forest report
// is therefore a proof: the simulator follows this exact timeline, and
// conversely the earliest static overlap is the first dynamic block.
#include <algorithm>
#include <queue>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "lint/detail.hpp"

namespace pcm::lint {

ForestReport lint_forest(std::span<const ForestMember> members,
                         const sim::Topology& topo, const rt::RuntimeConfig& cfg,
                         const sim::SimConfig& sim_cfg) {
  detail::validate_lint_config(sim_cfg, "lint_forest");
  const LintOptions opts;
  ForestReport rep;
  rep.trees = static_cast<int>(members.size());
  rep.tree_makespan.assign(members.size(), 0);

  for (size_t t = 0; t < members.size(); ++t) {
    if (members[t].start < 0)
      throw std::invalid_argument("lint_forest: negative start offset");
    rep.sends += static_cast<int>(members[t].tree.sends.size());
    if (!detail::structure_ok(members[t].tree, static_cast<int>(t), rep.diagnostics))
      rep.structure_ok = false;
  }
  if (!rep.structure_ok) return rep;

  const Time rd = sim_cfg.router_delay;
  const int ni_ports = topo.ports_per_node();

  std::vector<std::vector<detail::SendPlan>> plans;
  std::vector<std::vector<SendWindow>> sched(members.size());
  for (size_t t = 0; t < members.size(); ++t) {
    plans.push_back(detail::plan_sends(members[t].tree, topo, cfg, members[t].payload));
    sched[t].resize(members[t].tree.sends.size());
  }
  const detail::SendIds ids(sched);

  // Shared state, one entry per *node* (not per tree): run_concurrent's
  // single CPU timeline plus the simulator's NI injection engines.
  std::vector<Time> next_free(static_cast<size_t>(topo.num_nodes()), 0);
  std::vector<std::vector<Time>> ni_free(
      static_cast<size_t>(topo.num_nodes()),
      std::vector<Time>(static_cast<size_t>(ni_ports), 0));

  std::priority_queue<detail::Delivery, std::vector<detail::Delivery>,
                      std::greater<>>
      pending;

  // Posts every send of `pos`; the caller has already advanced
  // next_free[node] to the activation time (run_concurrent's activate).
  auto issue = [&](int t, int pos) {
    const ForestMember& m = members[static_cast<size_t>(t)];
    const NodeId node = m.tree.node(pos);
    for (int idx : m.tree.out[static_cast<size_t>(pos)]) {
      detail::SendPlan& p = plans[static_cast<size_t>(t)][static_cast<size_t>(idx)];
      SendWindow& w = sched[static_cast<size_t>(t)][static_cast<size_t>(idx)];
      detail::post_window(w, idx, p, next_free[node], ni_free[node], rd);
      next_free[node] += p.t_hold;
      pending.push(detail::Delivery{w.delivered, w.path.back(), ids.id(t, idx)});
    }
  };

  // run_concurrent activates every source before the first simulated
  // cycle, in member order: at a shared source a later member queues
  // behind an earlier one even when its start offset is smaller.
  for (size_t t = 0; t < members.size(); ++t) {
    const int src_pos = members[t].tree.chain.source_pos;
    const NodeId src = members[t].tree.node(src_pos);
    next_free[src] = std::max(next_free[src], members[t].start);
    issue(static_cast<int>(t), src_pos);
  }
  while (!pending.empty()) {
    const detail::Delivery d = pending.top();
    pending.pop();
    const int t = ids.tree(d.send), idx = ids.send(d.send);
    const detail::SendPlan& p = plans[static_cast<size_t>(t)][static_cast<size_t>(idx)];
    const NodeId node = p.dst;
    // Receive processing occupies the shared CPU.
    const Time begin = std::max(d.delivered, next_free[node]);
    const Time done = begin + p.t_recv;
    next_free[node] = done;
    sched[static_cast<size_t>(t)][static_cast<size_t>(idx)].recv_done = done;
    rep.tree_makespan[static_cast<size_t>(t)] =
        std::max(rep.tree_makespan[static_cast<size_t>(t)], done);
    issue(t, p.receiver_pos);
  }
  for (Time t : rep.tree_makespan) rep.makespan = std::max(rep.makespan, t);

  // lint_tree's scan, over every member's holds: overlapping pairs are
  // classified as intra- vs cross-tree.
  detail::Overlaps ov = detail::scan_holds(sched, opts.max_diagnostics);
  rep.diagnostics = std::move(ov.listed);
  rep.contention_free = ov.contention_free;
  rep.channels_used = ov.channels_used;
  rep.max_channel_windows = ov.max_channel_windows;
  rep.intra_pairs = ov.intra_pairs;
  rep.cross_pairs = ov.cross_pairs;
  rep.deadlock_free = detail::deadlock_free(sched, topo.num_channels(),
                                            opts.max_diagnostics, rep.diagnostics);

  rep.schedules = std::move(sched);
  return rep;
}

std::string ForestReport::describe(std::span<const ForestMember> members,
                                   const sim::Topology& topo) const {
  if (clean()) {
    std::ostringstream os;
    os << "clean: " << trees << " tree(s), " << sends << " send(s), "
       << channels_used << " channel(s), makespan " << makespan;
    return os.str();
  }
  return detail::render_diagnostics(
      diagnostics, topo, true, [members](int tree, int send) {
        const MulticastTree& t = members[static_cast<size_t>(tree)].tree;
        const SendEvent& ev = t.sends[static_cast<size_t>(send)];
        std::ostringstream os;
        os << "tree#" << tree << " send#" << send << " " << t.node(ev.sender_pos)
           << "->" << t.node(ev.receiver_pos);
        return os.str();
      });
}

void ChannelReservations::add(std::span<const SendWindow> sched) {
  for (const SendWindow& w : sched)
    for (size_t i = 0; i < w.path.size(); ++i)
      holds.push_back(Hold{w.path[i], w.send, w.reserve[i], w.reserve[i] + w.flits});
}

Time earliest_clean_offset(const MulticastTree& tree, const sim::Topology& topo,
                           const rt::RuntimeConfig& cfg,
                           const sim::SimConfig& sim_cfg, Bytes payload,
                           const ChannelReservations& existing) {
  // The candidate's isolated timeline shifts rigidly with its start
  // offset (the only absolute term, the initial NI-free time 0, never
  // binds because ready >= t_send > 0), so each (candidate hold h,
  // reservation r on the same channel) pair forbids the closed integer
  // shift interval [r.begin - h.end + 1, r.end - h.begin - 1].
  const std::vector<SendWindow> cand =
      lint_schedule(tree, topo, cfg, sim_cfg, payload, 0);

  std::vector<Hold> res = existing.holds;
  std::sort(res.begin(), res.end(), [](const Hold& a, const Hold& b) {
    if (a.channel != b.channel) return a.channel < b.channel;
    return a.begin < b.begin;
  });

  std::vector<std::pair<Time, Time>> forbidden;
  for (const SendWindow& w : cand) {
    for (size_t i = 0; i < w.path.size(); ++i) {
      const Time hb = w.reserve[i];
      const Time he = hb + w.flits;
      auto it = std::lower_bound(
          res.begin(), res.end(), w.path[i],
          [](const Hold& r, sim::ChannelId ch) { return r.channel < ch; });
      for (; it != res.end() && it->channel == w.path[i]; ++it) {
        const Time lo = it->begin - he + 1;
        const Time hi = it->end - hb - 1;
        if (hi >= 0) forbidden.emplace_back(std::max<Time>(lo, 0), hi);
      }
    }
  }
  std::sort(forbidden.begin(), forbidden.end());
  Time delta = 0;
  for (const auto& [lo, hi] : forbidden) {
    if (lo > delta) break;  // gap before every later interval: minimal
    if (hi >= delta) delta = hi + 1;
  }
  return delta;
}

}  // namespace pcm::lint
