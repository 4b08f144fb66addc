// The shared lint kernel (detail.hpp): send posting, the hold-overlap
// scan, the channel-dependency deadlock check and the diagnostic
// renderer; plus lint_tree, which runs them over lint_schedule's
// timeline (schedule.cpp) as a one-member forest.
#include <algorithm>
#include <sstream>
#include <tuple>
#include <stdexcept>
#include <utility>

#include "lint/detail.hpp"

namespace pcm::lint {
namespace detail {
namespace {

/// splitmix64 finalizer: spreads OverlapLog keys over its slots.
std::uint64_t mix(std::uint64_t z) {
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// Iterative three-color DFS over the (deduplicated, sorted —
/// deterministic) edge list of the channel-dependency graph; returns one
/// cycle, or empty when acyclic.
std::vector<sim::ChannelId> channel_dependency_cycle(
    std::span<const std::vector<SendWindow>> schedules, int num_channels) {
  std::vector<std::pair<int, int>> edges;
  for (const std::vector<SendWindow>& sched : schedules)
    for (const SendWindow& w : sched)
      for (size_t i = 0; i + 1 < w.path.size(); ++i)
        edges.emplace_back(w.path[i], w.path[i + 1]);
  std::sort(edges.begin(), edges.end());
  edges.erase(std::unique(edges.begin(), edges.end()), edges.end());

  // CSR adjacency over channel ids.
  std::vector<int> head(static_cast<size_t>(num_channels) + 1, 0);
  for (const auto& [u, v] : edges) head[static_cast<size_t>(u) + 1]++;
  for (int c = 0; c < num_channels; ++c)
    head[static_cast<size_t>(c) + 1] += head[static_cast<size_t>(c)];
  std::vector<int> adj(edges.size());
  {
    std::vector<int> cursor(head.begin(), head.end() - 1);
    for (const auto& [u, v] : edges) adj[static_cast<size_t>(cursor[static_cast<size_t>(u)]++)] = v;
  }

  enum : char { kWhite = 0, kGray = 1, kBlack = 2 };
  std::vector<char> color(static_cast<size_t>(num_channels), kWhite);
  std::vector<int> stack;       // gray path
  std::vector<int> edge_pos;    // next out-edge to try per stack entry
  for (int root = 0; root < num_channels; ++root) {
    if (color[static_cast<size_t>(root)] != kWhite) continue;
    stack.assign(1, root);
    edge_pos.assign(1, head[static_cast<size_t>(root)]);
    color[static_cast<size_t>(root)] = kGray;
    while (!stack.empty()) {
      const int u = stack.back();
      int& pos = edge_pos.back();
      if (pos == head[static_cast<size_t>(u) + 1]) {
        color[static_cast<size_t>(u)] = kBlack;
        stack.pop_back();
        edge_pos.pop_back();
        continue;
      }
      const int v = adj[static_cast<size_t>(pos++)];
      if (color[static_cast<size_t>(v)] == kGray) {
        // Back edge: the cycle is the gray path from v to u, closed by u->v.
        const auto it = std::find(stack.begin(), stack.end(), v);
        return {it, stack.end()};
      }
      if (color[static_cast<size_t>(v)] == kWhite) {
        color[static_cast<size_t>(v)] = kGray;
        stack.push_back(v);
        edge_pos.push_back(head[static_cast<size_t>(v)]);
      }
    }
  }
  return {};
}

}  // namespace

void validate_lint_config(const sim::SimConfig& sim_cfg, const char* who) {
  if (sim_cfg.router_delay < 1)
    throw std::invalid_argument(
        std::string(who) +
        ": router_delay must be >= 1 (at 0 the simulator's sub-cycle sweep "
        "order decides channel hand-offs)");
  if (sim_cfg.fifo_capacity < sim_cfg.router_delay + 1)
    throw std::invalid_argument(
        std::string(who) +
        ": fifo_capacity must be >= router_delay + 1 for a bubble-free "
        "wormhole pipeline");
}

bool structure_ok(const MulticastTree& tree, int member,
                  std::vector<LintDiagnostic>& diags) {
  std::string detail = check_tree(tree);
  if (detail.empty()) return true;
  LintDiagnostic d;
  d.kind = DiagKind::kStructure;
  d.tree_a = member;
  d.detail = std::move(detail);
  diags.push_back(std::move(d));
  return false;
}

Posting post_send(Time ready, std::span<Time> ni_free, std::size_t hops,
                  int flits, Time rd, std::vector<Time>& reserve) {
  size_t p = 0;
  for (size_t q = 1; q < ni_free.size(); ++q)
    if (ni_free[q] < ni_free[p]) p = q;
  Posting out;
  out.inject_start = std::max(ready, ni_free[p]);
  ni_free[p] = out.inject_start + flits;
  reserve.resize(hops);
  for (size_t i = 0; i < hops; ++i)
    reserve[i] = out.inject_start + static_cast<Time>(i + 1) * rd;
  out.delivered = out.inject_start + static_cast<Time>(hops) * rd + flits - 1;
  return out;
}

std::vector<SendPlan> plan_sends(const MulticastTree& tree, const sim::Topology& topo,
                                 const rt::RuntimeConfig& cfg, Bytes payload) {
  const MachineParams& mp = cfg.machine;
  const rt::MulticastRuntime runtime(cfg);
  std::vector<SendPlan> plan(tree.sends.size());
  std::vector<sim::ChannelId> route;  // grown once, copied to size
  for (size_t idx = 0; idx < plan.size(); ++idx) {
    const SendEvent& ev = tree.sends[idx];
    const int interval = ev.sub_hi - ev.sub_lo + 1;
    const Bytes wire = runtime.wire_bytes(payload, interval);
    SendPlan& p = plan[idx];
    p.src = tree.node(ev.sender_pos);
    p.dst = tree.node(ev.receiver_pos);
    p.receiver_pos = ev.receiver_pos;
    p.flits = runtime.wire_flits(payload, interval);
    p.t_send = mp.t_send(wire);
    p.t_hold = mp.t_hold(wire);
    p.t_recv = mp.t_recv(wire);
    route.clear();
    topo.append_path(p.src, p.dst, route);
    p.path.assign(route.begin(), route.end());
  }
  return plan;
}

void post_window(SendWindow& w, int idx, SendPlan& plan, Time op_start,
                 std::span<Time> ni_free, Time rd) {
  w.send = idx;
  w.src = plan.src;
  w.dst = plan.dst;
  w.flits = plan.flits;
  w.op_start = op_start;
  w.ready = op_start + plan.t_send;
  w.path = std::move(plan.path);
  const Posting p = post_send(w.ready, ni_free, w.path.size(), w.flits, rd, w.reserve);
  w.inject_start = p.inject_start;
  w.delivered = p.delivered;
}

void OverlapLog::add(std::uint64_t key, const Overlap& o) {
  if (2 * (distinct_.size() + 1) > slots_.size()) {
    // Keep the load at most 1/2: double and re-insert every key.
    slots_.assign(std::max<size_t>(64, 2 * slots_.size()), -1);
    for (size_t i = 0; i < keys_.size(); ++i) {
      size_t s = mix(keys_[i]) & (slots_.size() - 1);
      while (slots_[s] >= 0) s = (s + 1) & (slots_.size() - 1);
      slots_[s] = static_cast<int>(i);
    }
  }
  size_t s = mix(key) & (slots_.size() - 1);
  for (; slots_[s] >= 0; s = (s + 1) & (slots_.size() - 1)) {
    if (keys_[static_cast<size_t>(slots_[s])] != key) continue;
    Overlap& kept = distinct_[static_cast<size_t>(slots_[s])];
    if (std::tie(o.begin, o.channel, o.tree_a, o.send_a, o.tree_b, o.send_b) <
        std::tie(kept.begin, kept.channel, kept.tree_a, kept.send_a, kept.tree_b,
                 kept.send_b))
      kept = o;
    return;
  }
  slots_[s] = static_cast<int>(distinct_.size());
  distinct_.push_back(o);
  keys_.push_back(key);
}

std::vector<LintDiagnostic> OverlapLog::listing(int max_diagnostics) const {
  std::vector<Overlap> first = distinct_;
  const auto n = static_cast<long>(
      std::min(first.size(), static_cast<size_t>(std::max(max_diagnostics, 0))));
  std::partial_sort(first.begin(), first.begin() + n, first.end(),
                    [](const Overlap& a, const Overlap& b) {
                      return std::tie(a.begin, a.tree_a, a.send_a, a.tree_b, a.send_b) <
                             std::tie(b.begin, b.tree_a, b.send_a, b.tree_b, b.send_b);
                    });
  std::vector<LintDiagnostic> out;
  for (auto it = first.begin(); it != first.begin() + n; ++it) {
    LintDiagnostic d;
    d.kind = DiagKind::kContention;
    d.tree_a = it->tree_a;
    d.send_a = it->send_a;
    d.tree_b = it->tree_b;
    d.send_b = it->send_b;
    d.channel = it->channel;
    d.overlap_begin = it->begin;
    d.overlap_end = it->end;
    out.push_back(std::move(d));
  }
  return out;
}

SendIds::SendIds(std::span<const std::vector<SendWindow>> schedules) {
  for (size_t t = 0; t < schedules.size(); ++t) {
    base_.push_back(static_cast<int>(tree_of_.size()));
    tree_of_.insert(tree_of_.end(), schedules[t].size(), static_cast<int>(t));
  }
}

Overlaps scan_holds(std::span<const std::vector<SendWindow>> schedules,
                    int max_diagnostics) {
  const SendIds ids(schedules);
  std::vector<Hold> holds;
  for (size_t t = 0; t < schedules.size(); ++t)
    for (const SendWindow& w : schedules[t])
      for (size_t i = 0; i < w.path.size(); ++i)
        holds.push_back(Hold{w.path[i], ids.id(static_cast<int>(t), w.send),
                             w.reserve[i], w.reserve[i] + w.flits});
  std::sort(holds.begin(), holds.end(), [](const Hold& a, const Hold& b) {
    return std::tie(a.channel, a.begin, a.send) < std::tie(b.channel, b.begin, b.send);
  });

  // Sweep per channel, logging one overlap per pair of holds under its
  // send pair.
  Overlaps out;
  OverlapLog log;
  for (auto lo = holds.begin(); lo != holds.end();) {
    auto hi = lo;
    while (hi != holds.end() && hi->channel == lo->channel) ++hi;
    out.channels_used++;
    out.max_channel_windows = std::max(out.max_channel_windows, static_cast<int>(hi - lo));
    for (auto j = lo; j != hi; ++j)
      for (auto k = j + 1; k != hi && k->begin < j->end; ++k)
        log.add(static_cast<std::uint64_t>(j->send) << 32 | static_cast<std::uint64_t>(k->send),
                Overlap{ids.tree(j->send), ids.send(j->send), ids.tree(k->send),
                        ids.send(k->send), j->channel, k->begin, std::min(j->end, k->end)});
    lo = hi;
  }
  out.contention_free = log.empty();
  for (const Overlap& o : log.distinct())
    (o.tree_a == o.tree_b ? out.intra_pairs : out.cross_pairs)++;
  out.listed = log.listing(max_diagnostics);
  return out;
}

bool deadlock_free(std::span<const std::vector<SendWindow>> schedules,
                   int num_channels, int max_diagnostics,
                   std::vector<LintDiagnostic>& diags) {
  std::vector<sim::ChannelId> cycle = channel_dependency_cycle(schedules, num_channels);
  if (cycle.empty()) return true;
  if (diags.size() < static_cast<size_t>(max_diagnostics)) {
    LintDiagnostic d;
    d.kind = DiagKind::kDeadlock;
    d.cycle = std::move(cycle);
    diags.push_back(std::move(d));
  }
  return false;
}

std::string render_diagnostics(
    std::span<const LintDiagnostic> diags, const sim::Topology& topo,
    bool forest, const std::function<std::string(int tree, int send)>& send_name) {
  auto channel = [&topo](sim::ChannelId c) {
    return topo.channel_name(c / topo.radix(), c % topo.radix());
  };
  std::ostringstream os;
  os << diags.size() << " diagnostic(s)";
  for (const LintDiagnostic& d : diags) {
    os << "\n  ";
    switch (d.kind) {
      case DiagKind::kStructure:
        os << "structure: ";
        if (forest) os << "tree#" << d.tree_a << ": ";
        os << d.detail;
        break;
      case DiagKind::kContention:
        if (forest) os << (d.tree_a == d.tree_b ? "intra" : "cross") << "-tree ";
        os << "contention: " << send_name(d.tree_a, d.send_a) << " vs "
           << send_name(d.tree_b, d.send_b) << " on " << channel(d.channel)
           << " during [" << d.overlap_begin << ", " << d.overlap_end << ")";
        break;
      case DiagKind::kDeadlock:
        os << "deadlock: cyclic channel wait:";
        for (sim::ChannelId c : d.cycle) os << " " << channel(c);
        break;
    }
  }
  return os.str();
}

}  // namespace detail

LintReport lint_tree(const MulticastTree& tree, const sim::Topology& topo,
                     const rt::RuntimeConfig& cfg, const sim::SimConfig& sim_cfg,
                     Bytes payload, const LintOptions& opts) {
  LintReport rep;
  rep.sends = static_cast<int>(tree.sends.size());

  rep.structure_ok = detail::structure_ok(tree, 0, rep.diagnostics);
  if (!rep.structure_ok) return rep;

  std::vector<SendWindow> sched =
      lint_schedule(tree, topo, cfg, sim_cfg, payload, 0);
  for (const SendWindow& w : sched) rep.makespan = std::max(rep.makespan, w.recv_done);

  const std::span<const std::vector<SendWindow>> forest(&sched, 1);
  detail::Overlaps ov = detail::scan_holds(forest, opts.max_diagnostics);
  rep.diagnostics = std::move(ov.listed);
  rep.contention_free = ov.contention_free;
  rep.channels_used = ov.channels_used;
  rep.max_channel_windows = ov.max_channel_windows;
  rep.pairs = ov.intra_pairs;
  rep.deadlock_free = detail::deadlock_free(forest, topo.num_channels(),
                                            opts.max_diagnostics, rep.diagnostics);

  if (opts.keep_schedule) rep.schedule = std::move(sched);
  return rep;
}

std::string LintReport::describe(const MulticastTree& tree,
                                 const sim::Topology& topo) const {
  if (clean()) {
    std::ostringstream os;
    os << "clean: " << sends << " send(s), " << channels_used
       << " channel(s), makespan " << makespan;
    return os.str();
  }
  return detail::render_diagnostics(
      diagnostics, topo, false, [&tree](int, int send) {
        const SendEvent& ev = tree.sends[static_cast<size_t>(send)];
        std::ostringstream os;
        os << "send#" << send << " " << tree.node(ev.sender_pos) << "->"
           << tree.node(ev.receiver_pos) << " (chain " << ev.sender_pos << "->"
           << ev.receiver_pos << ")";
        return os.str();
      });
}

}  // namespace pcm::lint
