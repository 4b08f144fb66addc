// Steady-state analysis of the windowed streaming schedule.
//
// lint_stream replays StreamRuntime's fault-free pipeline (stream_fast)
// as a symbolic event loop: the same per-slot activations through
// persistent per-node engine timelines, the same window backpressure off
// the cumulative commit frontier, the same full-drain resynchronization,
// with delivery events processed in the simulator's handler order —
// (delivered cycle, ejection channel id).  On a contention-free run the
// derived commit times are bit-identical to stream_fast's (tests enforce
// it), and the earliest static hold overlap is the first dynamic block.
//
// The pipeline reaches a *steady state*: activation times and window
// occupancy are driven by a finite amount of relative state, so the
// between-event state (per-node timelines, NI engines, open-window ring,
// pending deliveries) eventually repeats up to a rigid time shift.  We
// detect the repeat by hashing the state relative to the last commit
// time; a match at slots s0 and s1 = s0 + d with commit times C0 and
// C1 = C0 + T proves the schedule is periodic from s0 on, so the exact
// per-slot pipeline interval is T / d and the remaining commit times
// follow the recurrence commit[s] = commit[s - d] + T.  Stale timeline
// entries are clamped at the current event time before hashing — a value
// at or below it can never bind a future max() — which keeps long-idle
// NI engines from blocking the match.  Analysis continues past the
// detection point until every distinct pair class of channel holds
// (instances at most max-hold-lookahead / T periods apart can overlap)
// has been checked, then extrapolates.
#include <algorithm>
#include <cstdint>
#include <functional>
#include <sstream>
#include <stdexcept>
#include <unordered_map>
#include <utility>

#include "lint/detail.hpp"

namespace pcm::lint {
namespace {

/// In-flight hold windows of one channel (send = the streaming tag),
/// sorted by begin.  Eviction is garbage collection only: a stale window
/// (end <= now) can never overlap a new one (begin > now), so lazy head
/// advancement is safe.  The buffer is online because a stream's slots
/// are unbounded: only the windows that can still overlap are kept.
struct ChannelBuffer {
  std::vector<Hold> holds;
  size_t head = 0;
};

std::uint64_t fnv1a(const std::vector<long long>& v) {
  std::uint64_t h = 1469598103934665603ull;
  for (long long x : v) {
    auto u = static_cast<std::uint64_t>(x);
    for (int i = 0; i < 8; ++i) {
      h ^= (u >> (8 * i)) & 0xffu;
      h *= 1099511628211ull;
    }
  }
  return h;
}

}  // namespace

StreamLintReport lint_stream(const MulticastTree& tree,
                             const sim::Topology& topo,
                             const rt::RuntimeConfig& cfg,
                             const sim::SimConfig& sim_cfg, Bytes payload,
                             int slots, int window) {
  detail::validate_lint_config(sim_cfg, "lint_stream");
  if (slots < 1) throw std::invalid_argument("lint_stream: slots must be >= 1");
  if (window < 1)
    throw std::invalid_argument("lint_stream: window must be >= 1");

  const LintOptions opts;
  StreamLintReport rep;
  rep.slots = slots;
  rep.window = window;
  rep.sends_per_slot = static_cast<int>(tree.sends.size());
  rep.messages =
      static_cast<long long>(slots) * static_cast<long long>(rep.sends_per_slot);

  rep.structure_ok = detail::structure_ok(tree, 0, rep.diagnostics);
  if (!rep.structure_ok) return rep;

  const int k = tree.num_nodes();
  const int src = tree.chain.source_pos;
  const int engines = std::max(1, cfg.send_engines);
  const int n_sends = rep.sends_per_slot;
  const int ni_ports = topo.ports_per_node();
  const Time rd = sim_cfg.router_delay;

  // Slot-invariant per-send constants, incl. the routed path.
  const std::vector<detail::SendPlan> plan =
      detail::plan_sends(tree, topo, cfg, payload);

  // Analytic per-slot bounds: busiest (node, engine) software time (the
  // round-robin t_hold sum — the throughput DP objective) and busiest
  // channel flit occupancy.
  for (int pos = 0; pos < k; ++pos) {
    std::vector<Time> busy(static_cast<size_t>(engines), 0);
    int e = 0;
    for (int idx : tree.out[static_cast<size_t>(pos)]) {
      busy[static_cast<size_t>(e)] += plan[static_cast<size_t>(idx)].t_hold;
      e = (e + 1) % engines;
    }
    for (Time b : busy)
      if (b > rep.busy_bound) {
        rep.busy_bound = b;
        rep.busy_node = tree.node(pos);
      }
  }
  {
    std::vector<Time> occupancy(static_cast<size_t>(topo.num_channels()), 0);
    for (const detail::SendPlan& p : plan)
      for (sim::ChannelId ch : p.path) {
        occupancy[static_cast<size_t>(ch)] += p.flits;
        rep.channel_bound =
            std::max(rep.channel_bound, occupancy[static_cast<size_t>(ch)]);
      }
  }

  // ---- symbolic replay of stream_fast ------------------------------------
  std::vector<std::vector<Time>> next_op(
      static_cast<size_t>(k), std::vector<Time>(static_cast<size_t>(engines), 0));
  std::vector<std::vector<Time>> ni_free(
      static_cast<size_t>(k), std::vector<Time>(static_cast<size_t>(ni_ports), 0));

  struct Ring {
    int remaining = 0;
    Time max_done = 0;
  };
  std::vector<Ring> ring(static_cast<size_t>(window));
  int injected = 0;
  int frontier = 0;
  rep.commit_time.assign(static_cast<size_t>(slots), -1);

  // Min-heap kept as a plain vector so snapshots can walk it.  A
  // delivery's send carries the streaming tag slot * n_sends + send.
  std::vector<detail::Delivery> heap;
  const auto heap_cmp = std::greater<>{};

  std::vector<ChannelBuffer> buffers(static_cast<size_t>(topo.num_channels()));
  // Contention findings are de-duplicated by (send pattern, slot
  // distance) — a steady-state overlap repeats every period and would
  // drown the listing — keeping the earliest instance of each.  A send
  // is named by its streaming tag.
  detail::OverlapLog log;
  auto pattern = [n_sends](int tag_a, int tag_b) {
    const long long dist = tag_b / n_sends - tag_a / n_sends;
    return static_cast<std::uint64_t>((dist * n_sends + tag_a % n_sends) * n_sends +
                                      tag_b % n_sends);
  };
  Time now = 0;            // current event time (eviction + clamp floor)
  Time max_lookahead = 0;  // max hold end minus its creation event time

  auto add_hold = [&](sim::ChannelId ch, Time b, Time e, int tag) {
    ChannelBuffer& buf = buffers[static_cast<size_t>(ch)];
    while (buf.head < buf.holds.size() && buf.holds[buf.head].end <= now)
      ++buf.head;
    if (buf.head > 64 && buf.head * 2 > buf.holds.size()) {
      buf.holds.erase(buf.holds.begin(),
                      buf.holds.begin() + static_cast<long>(buf.head));
      buf.head = 0;
    }
    for (size_t j = buf.head; j < buf.holds.size() && buf.holds[j].begin < e;
         ++j) {
      if (buf.holds[j].end <= b) continue;
      rep.contention_free = false;
      const Hold& h = buf.holds[j];
      const bool old_first = h.begin <= b;
      const int tag_a = old_first ? h.send : tag;
      const int tag_b = old_first ? tag : h.send;
      log.add(pattern(tag_a, tag_b), detail::Overlap{0, tag_a, 0, tag_b, ch,
                                                     std::max(b, h.begin),
                                                     std::min(e, h.end)});
    }
    const auto it = std::upper_bound(
        buf.holds.begin() + static_cast<long>(buf.head), buf.holds.end(), b,
        [](Time t, const Hold& h) { return t < h.begin; });
    buf.holds.insert(it, Hold{ch, tag, b, e});
    max_lookahead = std::max(max_lookahead, e - now);
  };

  // Identical to stream_fast's activate, plus the NI assignment, path
  // expansion and delivery scheduling the simulator performs.
  std::vector<Time> reserve;
  auto activate = [&](int slot, int pos, Time at) {
    auto& ops = next_op[static_cast<size_t>(pos)];
    for (Time& t : ops) t = std::max(t, at);
    int e = 0;
    for (int idx : tree.out[static_cast<size_t>(pos)]) {
      const detail::SendPlan& p = plan[static_cast<size_t>(idx)];
      const Time ready = ops[static_cast<size_t>(e)] + p.t_send;
      ops[static_cast<size_t>(e)] += p.t_hold;
      e = (e + 1) % engines;

      const detail::Posting post =
          detail::post_send(ready, ni_free[static_cast<size_t>(pos)],
                            p.path.size(), p.flits, rd, reserve);
      const int tag = slot * n_sends + idx;
      for (size_t i = 0; i < p.path.size(); ++i)
        add_hold(p.path[i], reserve[i], reserve[i] + p.flits, tag);
      heap.push_back(detail::Delivery{post.delivered, p.path.back(), tag});
      std::push_heap(heap.begin(), heap.end(), heap_cmp);
    }
  };

  auto inject = [&](Time at) {
    while (injected < slots && injected - frontier < window) {
      const int slot = injected++;
      ring[static_cast<size_t>(slot % window)] = Ring{k - 1, at};
      activate(slot, src, at);
    }
  };

  // Steady-state detection: between-event states hashed relative to the
  // last commit time.
  struct Snapshot {
    int slot = 0;
    Time commit = 0;
    std::vector<long long> state;
  };
  std::vector<Snapshot> snapshots;
  // Membership-only hash lookup (never iterated, so determinism holds;
  // candidate lists are probed in insertion order).
  std::unordered_map<std::uint64_t, std::vector<size_t>> by_hash;
  int period_d = 0;
  Time period_t = 0;
  int stop_after = slots;  // keep iterating until this slot committed

  auto maybe_snapshot = [&]() {
    const int s = frontier - 1;
    const Time c = rep.commit_time[static_cast<size_t>(s)];
    Snapshot snap;
    snap.slot = s;
    snap.commit = c;
    std::vector<long long>& st = snap.state;
    st.push_back(injected - frontier);
    for (const auto& ops : next_op)
      for (Time t : ops) st.push_back(std::max(t, now) - c);
    for (const auto& ports : ni_free)
      for (Time t : ports) st.push_back(std::max(t, now) - c);
    for (int s2 = frontier; s2 < injected; ++s2) {
      const Ring& r = ring[static_cast<size_t>(s2 % window)];
      st.push_back(r.remaining);
      st.push_back(r.max_done - c);
    }
    std::vector<detail::Delivery> pend = heap;
    std::sort(pend.begin(), pend.end(),
              [](const detail::Delivery& a, const detail::Delivery& b) {
                return b > a;
              });
    for (const detail::Delivery& d : pend) {
      st.push_back(d.delivered - c);
      st.push_back(d.eject);
      st.push_back(d.send / n_sends - s);
      st.push_back(d.send % n_sends);
    }
    const std::uint64_t h = fnv1a(st);
    for (size_t i : by_hash[h]) {
      const Snapshot& old = snapshots[i];
      if (old.state != st) continue;
      const int d = s - old.slot;
      const Time t = c - old.commit;
      if (d <= 0 || t <= 0) continue;
      period_d = d;
      period_t = t;
      // Cover every pair class of periodic channel holds: instances more
      // than max_lookahead / T periods apart cannot overlap.
      const long long reach = max_lookahead / std::max<Time>(t, 1) + 2;
      const long long target =
          static_cast<long long>(s) + reach * static_cast<long long>(d);
      stop_after = static_cast<int>(
          std::min<long long>(target, static_cast<long long>(slots)));
      return;
    }
    by_hash[h].push_back(snapshots.size());
    snapshots.push_back(std::move(snap));
  };

  inject(0);
  while (!heap.empty()) {
    std::pop_heap(heap.begin(), heap.end(), heap_cmp);
    const detail::Delivery d = heap.back();
    heap.pop_back();
    now = d.delivered;
    const int slot = d.send / n_sends;
    const detail::SendPlan& p = plan[static_cast<size_t>(d.send % n_sends)];
    const Time done = d.delivered + p.t_recv;
    activate(slot, p.receiver_pos, done);
    Ring& rg = ring[static_cast<size_t>(slot % window)];
    rg.max_done = std::max(rg.max_done, done);
    if (--rg.remaining > 0) continue;
    Time at = rg.max_done;
    bool committed = false;
    while (frontier < injected &&
           ring[static_cast<size_t>(frontier % window)].remaining == 0) {
      at = ring[static_cast<size_t>(frontier % window)].max_done;
      rep.commit_time[static_cast<size_t>(frontier)] = at;
      ++frontier;
      committed = true;
    }
    if (frontier == injected)
      for (auto& ops : next_op) std::fill(ops.begin(), ops.end(), Time{0});
    inject(at);
    if (committed && period_d == 0 && frontier < slots) maybe_snapshot();
    if (period_d > 0 && frontier >= stop_after) break;
  }
  rep.analyzed_slots = frontier;
  if (frontier < slots) {
    // Only an established period breaks out early; extrapolate the tail.
    for (int s = frontier; s < slots; ++s)
      rep.commit_time[static_cast<size_t>(s)] =
          rep.commit_time[static_cast<size_t>(s - period_d)] + period_t;
  } else if (frontier != slots) {
    throw std::logic_error("lint_stream: stream did not drain");
  }

  rep.period_slots = period_d;
  rep.period_cycles = period_t;
  rep.slot_latency = rep.commit_time[0];
  rep.makespan = rep.commit_time[static_cast<size_t>(slots - 1)];
  if (period_d > 0)
    rep.interval = static_cast<double>(period_t) / period_d;
  else if (slots > 1)
    rep.interval =
        static_cast<double>(rep.makespan - rep.slot_latency) / (slots - 1);
  rep.saturated = period_d > 0 && period_t == rep.busy_bound * period_d;
  if (rep.makespan > 0)
    rep.slots_per_kcycle = 1000.0 * slots / static_cast<double>(rep.makespan);

  rep.diagnostics = log.listing(opts.max_diagnostics);

  // The channel-dependency graph is slot-invariant: one slot decides it.
  std::vector<SendWindow> proto(static_cast<size_t>(n_sends));
  for (int idx = 0; idx < n_sends; ++idx)
    proto[static_cast<size_t>(idx)].path = plan[static_cast<size_t>(idx)].path;
  rep.deadlock_free = detail::deadlock_free(std::span(&proto, 1), topo.num_channels(),
                                            opts.max_diagnostics, rep.diagnostics);
  return rep;
}

std::string StreamLintReport::describe(const MulticastTree& tree,
                                       const sim::Topology& topo) const {
  if (clean()) {
    std::ostringstream os;
    os << "clean: " << slots << " slot(s) x window " << window
       << ", interval " << interval << " (busy bound " << busy_bound
       << " at node " << busy_node << (saturated ? ", saturated" : "")
       << "), makespan " << makespan;
    return os.str();
  }
  return detail::render_diagnostics(
      diagnostics, topo, false, [&](int, int tag) {
        const int send = tag % sends_per_slot;
        const SendEvent& ev = tree.sends[static_cast<size_t>(send)];
        std::ostringstream os;
        os << "slot#" << tag / sends_per_slot << " send#" << send << " "
           << tree.node(ev.sender_pos) << "->" << tree.node(ev.receiver_pos);
        return os.str();
      });
}

}  // namespace pcm::lint
