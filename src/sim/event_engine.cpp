#include "sim/event_engine.hpp"

#include <algorithm>
#include <bit>

namespace pcm::sim {

EventEngine::EventEngine(Simulator& sim)
    : sim_(sim), r_(sim.cfg_.router_delay) {
  ports_per_node_ = sim.topo_.ports_per_node();
  rr_.resize(static_cast<std::size_t>(sim.topo_.num_routers()));
  eng_free_from_.assign(static_cast<std::size_t>(sim.topo_.num_nodes()) *
                            static_cast<std::size_t>(ports_per_node_),
                        0);
  settled_ = sim.cycle_ - 1;
}

bool EventEngine::advance(Time max_cycles) {
  Time t = kTimeInfinity;
  if (!calendar_.empty()) t = calendar_.top().cycle;
  if (!sim_.posts_.empty()) t = std::min(t, sim_.posts_.top().ready);
  if (t == kTimeInfinity) {
    // Unreachable while the run loop's !idle() guard holds: a non-idle
    // network always has a future event.  Materialize defensively.
    bail_out();
    return false;
  }
  if (t < sim_.cycle_) t = sim_.cycle_;
  if (t >= max_cycles && !sim_.network_quiescent()) {
    // Truncation: the reference engine would tick silently (laminar flow
    // emits nothing) up to max_cycles and stop mid-flight.  Hand over the
    // exact microstate there so a later run — or inspection — continues
    // identically.  A *quiescent* network instead replicates the cycle
    // engine's fast-forward overshoot: the post-release cycle executes
    // even at t >= max_cycles.
    settle_window(max_cycles - 1);
    settle_hops(max_cycles - 1);
    materialize(max_cycles, MaterializeReason::kTruncation);
    return false;
  }
  if (t > sim_.cycle_) {
    sim_.telemetry_.ff_cycles += t - sim_.cycle_;
    if (sim_.observer_ != nullptr) sim_.observer_->on_fast_forward(sim_.cycle_, t);
  }
  ++sim_.telemetry_.event_cycles;
  return process_cycle(t);
}

void EventEngine::finish_run() {
  settle_window(sim_.cycle_ - 1);
  settle_hops(sim_.cycle_ - 1);
}

void EventEngine::bail_out() {
  settle_window(sim_.cycle_ - 1);
  settle_hops(sim_.cycle_ - 1);
  materialize(sim_.cycle_, MaterializeReason::kBail);
}

void EventEngine::sched(Time cycle, Ev phase, int a, int b) {
  calendar_.push(Entry{cycle, static_cast<int>(phase), a, b});
}

void EventEngine::drain_due(Time t) {
  while (!calendar_.empty() && calendar_.top().cycle <= t) {
    const Entry e = calendar_.top();
    calendar_.pop();
    switch (static_cast<Ev>(e.phase)) {
      case Ev::kArb: arbs_.push_back(e.a); break;
      case Ev::kXfer: xfers_.emplace_back(e.a, e.b); break;
      case Ev::kInjectDone: dones_.push_back(e.a); break;
      case Ev::kNicPull: pulls_.push_back(static_cast<NodeId>(e.a)); break;
    }
  }
}

bool EventEngine::process_cycle(Time t) {
  settle_window(t - 1);
  arbs_.clear();
  xfers_.clear();
  dones_.clear();
  pulls_.clear();
  touched_.clear();
  drain_due(t);
  // Phase order mirrors Simulator::step(): arbitration, transfer,
  // injection (post releases carry no observable and do not feed
  // arbitration, so ordering them after the arb commit is equivalent).
  if (!commit_arbitrations(t)) return false;  // materialized at t
  drain_due(t);  // single-flit grants release (and deliver) this cycle
  commit_xfers(t);
  release_posts_into_nics(t);
  commit_inject_dones(t);
  std::sort(pulls_.begin(), pulls_.end());
  pulls_.erase(std::unique(pulls_.begin(), pulls_.end()), pulls_.end());
  for (const NodeId n : pulls_) do_pulls(n, t);
  dones_.clear();
  drain_due(t);  // single-flit pulls finish injecting this very cycle
  commit_inject_dones(t);
  std::sort(touched_.begin(), touched_.end());
  touched_.erase(std::unique(touched_.begin(), touched_.end()),
                 touched_.end());
  for (const NodeId n : touched_) recheck_nic_busy(n);
  settle_end_of_cycle(t);
  sim_.cycle_ = t + 1;
  fire_delivery_handlers();
  return true;
}

bool EventEngine::commit_arbitrations(Time t) {
  if (arbs_.empty()) return true;
  const int radix = sim_.radix_;
  // Cycle-engine sweep order: routers ascending, then ports from the
  // reconstructed rotating-priority start.  Dry-run first: nothing may be
  // committed before every head is known to win, because a loss hands the
  // *whole* cycle to the reference engine for replay.
  std::sort(arbs_.begin(), arbs_.end(), [this](int a, int b) {
    if (worms_[a].head_at.router != worms_[b].head_at.router)
      return worms_[a].head_at.router < worms_[b].head_at.router;
    return a < b;
  });
  grants_.clear();
  tentative_.clear();
  for (std::size_t i = 0; i < arbs_.size();) {
    const int router = worms_[arbs_[i]].head_at.router;
    std::size_t j = i;
    while (j < arbs_.size() && worms_[arbs_[j]].head_at.router == router) ++j;
    const int rr0 = static_cast<int>(rr_bumps(router, t) % radix);
    for (int s = 0; s < radix; ++s) {
      const int p = (rr0 + s) % radix;
      int wi = -1;
      for (std::size_t k = i; k < j; ++k)
        if (worms_[arbs_[k]].head_at.port == p) {
          wi = arbs_[k];
          break;
        }
      if (wi < 0) continue;
      const Worm& w = worms_[wi];
      const Message& m = sim_.messages_.at(w.id);
      cand_.clear();
      sim_.topo_.route(router, p, m.src, m.dst, cand_);
      if (cand_.empty()) {
        // The reference engine throws from arbitrate() this cycle; replay
        // from the exact microstate so earlier grants in this sweep and
        // the error text come out verbatim.
        materialize(t, MaterializeReason::kRouting);
        return false;
      }
      int granted = -1;
      for (const int q : cand_) {
        const int cid = router * radix + q;
        if (sim_.channel_msg_[static_cast<std::size_t>(cid)] != kInvalidMsg)
          continue;
        if (std::find(tentative_.begin(), tentative_.end(), cid) !=
            tentative_.end())
          continue;
        granted = q;
        break;
      }
      if (granted < 0) {
        // Contention: the cycle engine replays the block.
        materialize(t, MaterializeReason::kContention);
        return false;
      }
      const int cid = router * radix + granted;
      if (sim_.eject_cache_[static_cast<std::size_t>(cid)] == kInvalidNode &&
          !sim_.link_cache_[static_cast<std::size_t>(cid)].valid()) {
        // Unwired channel: transfer() throws verbatim.
        materialize(t, MaterializeReason::kRouting);
        return false;
      }
      tentative_.push_back(cid);
      grants_.emplace_back(wi, granted);
    }
    i = j;
  }
  // Every head won: commit, emitting reservations in sweep order.  The
  // head crosses into the next router during this cycle's transfer phase
  // (residency == router_delay exactly; laminar flow never back-pressures
  // because fifo_capacity >= router_delay + 1).
  for (const auto& [wi, q] : grants_) {
    Worm& w = worms_[wi];
    const int router = w.head_at.router;
    const int cid = router * radix + q;
    sim_.channel_msg_[static_cast<std::size_t>(cid)] = w.id;
    if (sim_.observer_ != nullptr)
      sim_.observer_->on_reserve(router, q, w.id, t);
    w.hops.push_back(Hop{router, w.head_at.port, q, t});
    sched(t + w.flits - 1, Ev::kXfer, wi,
          static_cast<int>(w.hops.size()) - 1);
    if (sim_.eject_cache_[static_cast<std::size_t>(cid)] != kInvalidNode) {
      w.ejecting = true;
      w.eject_start = t;
    } else {
      w.head_at = sim_.link_cache_[static_cast<std::size_t>(cid)];
      sched(t + r_, Ev::kArb, wi);
      rr_begin(w.head_at.router, t + 1);
    }
  }
  return true;
}

void EventEngine::commit_xfers(Time t) {
  if (xfers_.empty()) return;
  // Cycle-engine transfer sweep order: routers ascending, out-ports
  // ascending; a delivery commits inline right after its release.
  std::sort(xfers_.begin(), xfers_.end(),
            [this](const std::pair<int, int>& a, const std::pair<int, int>& b) {
              const Hop& ha = worms_[a.first].hops[static_cast<std::size_t>(a.second)];
              const Hop& hb = worms_[b.first].hops[static_cast<std::size_t>(b.second)];
              if (ha.router != hb.router) return ha.router < hb.router;
              return ha.out_port < hb.out_port;
            });
  for (const auto& [wi, k] : xfers_) {
    Worm& w = worms_[wi];
    const Hop& h = w.hops[static_cast<std::size_t>(k)];
    sim_.channel_msg_[static_cast<std::size_t>(h.router) * sim_.radix_ +
                      h.out_port] = kInvalidMsg;
    if (sim_.observer_ != nullptr)
      sim_.observer_->on_release(h.router, h.out_port, w.id, t);
    rr_end(h.router, t + 1);
    if (w.ejecting && k == static_cast<int>(w.hops.size()) - 1) {
      Message& m = sim_.messages_.at(w.id);
      m.delivered = t;
      ++sim_.stats_.messages_delivered;
      --sim_.undelivered_;
      sim_.delivered_now_.push_back(w.id);
      if (sim_.observer_ != nullptr) sim_.observer_->on_deliver(m, t);
      const long long total =
          static_cast<long long>(w.flits) * static_cast<long long>(w.hops.size());
      sim_.stats_.flit_hops += total - w.hops_settled;
      w.hops_settled = total;
      last_progress_ = std::max(last_progress_, t);
      auto it = std::find(live_.begin(), live_.end(), wi);
      *it = live_.back();
      live_.pop_back();
    }
  }
}

void EventEngine::release_posts_into_nics(Time t) {
  while (!sim_.posts_.empty() && sim_.posts_.top().ready <= t) {
    const MsgId id = sim_.posts_.top().id;
    sim_.posts_.pop();
    const NodeId src = sim_.messages_.at(id).src;
    Simulator::Nic& nic = sim_.nics_[static_cast<std::size_t>(src)];
    if (!nic.busy()) {
      ++sim_.busy_nics_;
      sim_.nic_words_[static_cast<std::size_t>(src) >> 6] |= 1ULL << (src & 63);
    }
    nic.queue.push_back(id);
    pulls_.push_back(src);  // a free engine pulls this very cycle
  }
}

void EventEngine::commit_inject_dones(Time t) {
  for (const int wi : dones_) {
    Worm& w = worms_[wi];
    const NodeId node = static_cast<NodeId>(w.nic_engine / ports_per_node_);
    const int e = w.nic_engine % ports_per_node_;
    Message& m = sim_.messages_.at(w.id);
    m.inject_done = t;
    sim_.nics_[static_cast<std::size_t>(node)].engines[static_cast<std::size_t>(e)]
        .active = kInvalidMsg;
    eng_free_from_[static_cast<std::size_t>(w.nic_engine)] = t + 1;
    // The freed engine re-pulls at the next injection sweep; the queue is
    // consulted *after* this cycle's post releases, mirroring step().
    if (!sim_.nics_[static_cast<std::size_t>(node)].queue.empty())
      sched(t + 1, Ev::kNicPull, node);
    touched_.push_back(node);
  }
}

void EventEngine::do_pulls(NodeId n, Time t) {
  Simulator::Nic& nic = sim_.nics_[static_cast<std::size_t>(n)];
  const std::size_t base =
      static_cast<std::size_t>(n) * static_cast<std::size_t>(ports_per_node_);
  for (int e = 0; e < ports_per_node_; ++e) {
    if (nic.queue.empty()) break;
    Simulator::Nic::Engine& eng = nic.engines[static_cast<std::size_t>(e)];
    if (eng.active != kInvalidMsg ||
        eng_free_from_[base + static_cast<std::size_t>(e)] > t)
      continue;
    const MsgId id = nic.queue.front();
    nic.queue.pop_front();
    eng.active = id;
    eng.flits_sent = 0;
    Message& m = sim_.messages_.at(id);
    m.inject_start = t;
    const int wi = static_cast<int>(worms_.size());
    Worm w;
    w.id = id;
    w.flits = m.flits;
    w.t0 = t;
    w.nic_engine = static_cast<int>(base) + e;
    w.head_at = sim_.attach_cache_[base + static_cast<std::size_t>(e)];
    worms_.push_back(std::move(w));
    live_.push_back(wi);
    sched(t + r_, Ev::kArb, wi);
    sched(t + m.flits - 1, Ev::kInjectDone, wi);
    rr_begin(worms_[static_cast<std::size_t>(wi)].head_at.router, t + 1);
  }
}

void EventEngine::recheck_nic_busy(NodeId n) {
  Simulator::Nic& nic = sim_.nics_[static_cast<std::size_t>(n)];
  if (!nic.busy()) {
    --sim_.busy_nics_;
    sim_.nic_words_[static_cast<std::size_t>(n) >> 6] &= ~(1ULL << (n & 63));
  }
}

void EventEngine::fire_delivery_handlers() {
  if (sim_.delivered_now_.empty()) return;
  sim_.delivery_batch_.swap(sim_.delivered_now_);
  if (sim_.on_delivery_)
    for (const MsgId id : sim_.delivery_batch_)
      sim_.on_delivery_(sim_.messages_.at(id));
  sim_.delivery_batch_.clear();
}

void EventEngine::rr_flush(int router, Time upto) {
  RrAcct& a = rr_[static_cast<std::size_t>(router)];
  if (a.refcnt > 0) a.accum += upto - a.since;
  a.since = upto;
}

void EventEngine::rr_begin(int router, Time from) {
  rr_flush(router, from);
  ++rr_[static_cast<std::size_t>(router)].refcnt;
}

void EventEngine::rr_end(int router, Time from) {
  rr_flush(router, from);
  --rr_[static_cast<std::size_t>(router)].refcnt;
}

long long EventEngine::rr_bumps(int router, Time at) const {
  const RrAcct& a = rr_[static_cast<std::size_t>(router)];
  return a.accum + (a.refcnt > 0 ? at - a.since : 0);
}

void EventEngine::settle_window(Time upto) {
  if (upto <= settled_) return;
  // No event lies in (settled_, upto], so the injecting/consuming worm
  // sets are those of the first unsettled cycle and the count is linear.
  const Time s = settled_ + 1;
  long long rate = 0;
  bool injecting = false;
  for (const int wi : live_) {
    const Worm& w = worms_[static_cast<std::size_t>(wi)];
    if (s <= w.t0 + w.flits - 1) {
      ++rate;
      injecting = true;
    }
    if (w.eject_start >= 0) --rate;
  }
  if (injecting) {
    // max_inflight samples only on injection cycles; on a linear stretch
    // the peak is at whichever endpoint the slope favours.
    const long long peak =
        inflight_ + (rate > 0 ? rate * (upto - settled_) : rate);
    if (peak > sim_.stats_.max_inflight_flits)
      sim_.stats_.max_inflight_flits = static_cast<int>(peak);
  }
  inflight_ += rate * (upto - settled_);
  settled_ = upto;
  sim_.inflight_flits_ = static_cast<int>(inflight_);
}

void EventEngine::settle_end_of_cycle(Time t) {
  long long f = 0;
  bool injected = false;
  for (const int wi : live_) {
    const Worm& w = worms_[static_cast<std::size_t>(wi)];
    const Time last = w.t0 + w.flits - 1;
    f += std::min(t, last) - w.t0 + 1;
    if (t <= last) injected = true;
    if (w.eject_start >= 0)
      f -= std::min(t, w.eject_start + w.flits - 1) - w.eject_start + 1;
  }
  inflight_ = f;
  settled_ = t;
  sim_.inflight_flits_ = static_cast<int>(f);
  if (injected && f > sim_.stats_.max_inflight_flits)
    sim_.stats_.max_inflight_flits = static_cast<int>(f);
}

void EventEngine::settle_hops(Time upto) {
  for (const int wi : live_) {
    Worm& w = worms_[static_cast<std::size_t>(wi)];
    long long pops = 0;
    for (const Hop& h : w.hops) {
      if (h.reserve > upto) continue;  // pops run over [a_k, a_k + F - 1]
      pops += std::min<Time>(upto - h.reserve + 1, w.flits);
    }
    sim_.stats_.flit_hops += pops - w.hops_settled;
    w.hops_settled = pops;
  }
}

void EventEngine::materialize(Time at, MaterializeReason why) {
  EngineTelemetry& tel = sim_.telemetry_;
  if (tel.materializations++ == 0) {
    tel.first_materialization = at;
    tel.first_reason = why;
  }
  settle_window(at - 1);
  settle_hops(at - 1);
  // Rebuild the exact start-of-cycle `at` microstate from the closed
  // forms: flit i sits in stage s's FIFO iff a_{s-1}+i < at <= a_s+i
  // (a_{-1} = t0; the stage past the last committed hop is unbounded).
  struct Slot {
    int router;
    int port;
    Time entry;
    Flit flit;
  };
  std::vector<Slot> slots;
  Time lastp = last_progress_;
  for (const int wi : live_) {
    const Worm& w = worms_[static_cast<std::size_t>(wi)];
    const int F = w.flits;
    const int routed = static_cast<int>(w.hops.size());
    const int stages = w.ejecting ? routed : routed + 1;
    if (w.t0 <= at - 1)
      lastp = std::max(lastp, std::min<Time>(at - 1, w.t0 + F - 1));
    for (const Hop& h : w.hops)
      if (h.reserve <= at - 1)
        lastp = std::max(lastp, std::min<Time>(at - 1, h.reserve + F - 1));
    // Each stage's flits form a contiguous index range (injected flits
    // only; consumed ones fall in no stage): visit just those.
    for (int s = 0; s < stages; ++s) {
      const Time prev =
          s == 0 ? w.t0 : w.hops[static_cast<std::size_t>(s - 1)].reserve;
      const Time lo = s < routed
                          ? std::max<Time>(
                                0, at - w.hops[static_cast<std::size_t>(s)].reserve)
                          : 0;
      const Time hi = std::min<Time>(F - 1, at - 1 - prev);
      Slot slot;
      if (s < routed) {
        slot.router = w.hops[static_cast<std::size_t>(s)].router;
        slot.port = w.hops[static_cast<std::size_t>(s)].in_port;
      } else {
        slot.router = w.head_at.router;
        slot.port = w.head_at.port;
      }
      slot.flit.msg = w.id;
      for (Time i = lo; i <= hi; ++i) {
        slot.entry = prev + i;
        slot.flit.head = (i == 0);
        slot.flit.tail = (i == F - 1);
        slots.push_back(slot);
      }
    }
    if (w.t0 + F - 1 >= at) {
      // Mid-injection: restore the NI engine's progress counter (the
      // active message id is already live in the simulator's NIC state).
      const std::size_t node = static_cast<std::size_t>(w.nic_engine) /
                               static_cast<std::size_t>(ports_per_node_);
      const std::size_t e = static_cast<std::size_t>(w.nic_engine) %
                            static_cast<std::size_t>(ports_per_node_);
      sim_.nics_[node].engines[e].flits_sent = static_cast<int>(at - w.t0);
    }
  }
  // FIFO pushes in global (router, port, entry) order: a FIFO shared by
  // back-to-back worms receives their flits in true arrival order, and
  // accepts precede reserves so the pending counter nets exactly.
  std::sort(slots.begin(), slots.end(), [](const Slot& a, const Slot& b) {
    if (a.router != b.router) return a.router < b.router;
    if (a.port != b.port) return a.port < b.port;
    return a.entry < b.entry;
  });
  for (const Slot& s : slots)
    sim_.routers_[static_cast<std::size_t>(s.router)].accept(s.port, s.flit,
                                                             s.entry);
  for (const int wi : live_) {
    const Worm& w = worms_[static_cast<std::size_t>(wi)];
    for (const Hop& h : w.hops)
      if (h.reserve + w.flits - 1 >= at)
        sim_.routers_[static_cast<std::size_t>(h.router)].reserve(h.in_port,
                                                                  h.out_port);
  }
  for (int r = 0; r < static_cast<int>(sim_.routers_.size()); ++r) {
    Router& router = sim_.routers_[static_cast<std::size_t>(r)];
    router.set_rr_start(static_cast<int>(rr_bumps(r, at) % sim_.radix_));
    if (router.activity() > 0) sim_.mark_router_active(r);
  }
  sim_.inflight_flits_ = static_cast<int>(inflight_);
  sim_.cycle_ = at;
  handoff_stalled_ =
      lastp < 0 ? 0 : std::max<Time>(0, (at - 1) - lastp);
  sim_.event_disabled_ = true;
  live_.clear();
}

Time EventEngine::shift_window(Time max_cycles, Time stalled) {
  Simulator& s = sim_;
  // An empty network is the run loop's own fast-forward, not a shift.
  if (s.network_quiescent()) return 0;
  const Time t = s.cycle_ - 1;  // the cycle step() just executed
  Time d = max_cycles - s.cycle_;
  if (!s.posts_.empty()) d = std::min(d, s.posts_.top().ready - s.cycle_);
  if (stalled > 0) d = std::min(d, s.cfg_.watchdog_cycles - stalled);
  if (d <= 0) return 0;

  streaming_.clear();
  blocked_.clear();
  injecting_.clear();
  long long ejecting = 0;
  const int radix = s.radix_;
  for (std::size_t wi = 0; wi < s.active_words_.size(); ++wi) {
    for (std::uint64_t w = s.active_words_[wi]; w != 0; w &= w - 1) {
      const int r = static_cast<int>((wi << 6) |
                                     static_cast<unsigned>(std::countr_zero(w)));
      Router& router = s.routers_[static_cast<std::size_t>(r)];
      for (int p = 0; p < radix; ++p) {
        FlitFifo& f = router.in(p);
        const int m = f.size();
        if (f.last_pop() == t) {
          // Popped without a release, so still assigned: must stream.
          if (m < r_ || f.back_entry() != t || f.front_entry() != t - m + 1)
            return 0;
          // Flit i pops at t+1+i: the first head/tail one ends the window.
          if (const int j = f.first_marked(); j < m) d = std::min<Time>(d, j);
          streaming_.emplace_back(&f, f.at(m - 1).msg);
          const int q = router.assigned_out(p);
          if (s.eject_cache_[static_cast<std::size_t>(r * radix + q)] !=
              kInvalidNode)
            ++ejecting;
        } else if (m > 0) {
          if (f.back_entry() > t - r_) return 0;
          // An unassigned frozen front is an eligible head that lost
          // arbitration at t against holders that cannot change.
          if (router.assigned_out(p) == -1)
            blocked_.push_back(Blocked{r, p, f.front().msg});
        }
      }
    }
  }
  for (std::size_t wi = 0; wi < s.nic_words_.size(); ++wi) {
    for (std::uint64_t w = s.nic_words_[wi]; w != 0; w &= w - 1) {
      const std::size_t n =
          (wi << 6) | static_cast<unsigned>(std::countr_zero(w));
      Simulator::Nic& nic = s.nics_[n];
      for (int e = 0; e < ports_per_node_; ++e) {
        Simulator::Nic::Engine& eng = nic.engines[static_cast<std::size_t>(e)];
        if (eng.active == kInvalidMsg) continue;
        const PortRef a = s.attach_cache_[n * static_cast<std::size_t>(
                                                 ports_per_node_) +
                                          static_cast<std::size_t>(e)];
        const FlitFifo& f =
            s.routers_[static_cast<std::size_t>(a.router)].in(a.port);
        if (f.empty() || f.back_entry() != t) continue;  // blocked at t
        // Injected at t (the attach FIFO's only writer): the tail must
        // stay out of the window.
        d = std::min<Time>(d, s.messages_.at(eng.active).flits - 1 -
                                  eng.flits_sent);
        injecting_.push_back(&eng);
      }
    }
  }
  if (d <= 0) return 0;

  if (s.observer_ != nullptr && !blocked_.empty()) emit_blocked(t, d);
  for (const auto& [fifo, msg] : streaming_) fifo->shift(d, msg);
  for (std::size_t wi = 0; wi < s.active_words_.size(); ++wi) {
    for (std::uint64_t w = s.active_words_[wi]; w != 0; w &= w - 1) {
      Router& router = s.routers_[(wi << 6) |
                                  static_cast<unsigned>(std::countr_zero(w))];
      if (router.activity() > 0)
        router.set_rr_start(
            static_cast<int>((router.rr_start() + d) % radix));
    }
  }
  for (Simulator::Nic::Engine* eng : injecting_)
    eng->flits_sent += static_cast<int>(d);
  s.stats_.flit_hops += d * static_cast<long long>(streaming_.size());
  const long long slope =
      static_cast<long long>(injecting_.size()) - ejecting;
  if (!injecting_.empty()) {
    // max_inflight samples after each injecting cycle; the count is
    // linear across the window, so its peak is at an endpoint.
    const long long peak =
        s.inflight_flits_ + (slope > 0 ? slope * d : slope);
    if (peak > s.stats_.max_inflight_flits)
      s.stats_.max_inflight_flits = static_cast<int>(peak);
  }
  s.inflight_flits_ += static_cast<int>(slope * d);
  s.stats_.channel_conflicts += d * static_cast<long long>(blocked_.size());
  for (const Blocked& b : blocked_) s.messages_.at(b.msg).block_cycles += d;
  s.cycle_ += d;
  ++s.telemetry_.shift_windows;
  s.telemetry_.shifted_cycles += d;
  return d;
}

void EventEngine::emit_blocked(Time t, Time d) {
  // Cycle t+k's arbitration sweep visits routers ascending and each
  // router's ports from its rotating start, which advances once a cycle.
  const int radix = sim_.radix_;
  for (Time k = 1; k <= d; ++k) {
    for (std::size_t i = 0; i < blocked_.size();) {
      const int r = blocked_[i].router;
      std::size_t j = i;
      while (j < blocked_.size() && blocked_[j].router == r) ++j;
      const int rr = static_cast<int>(
          (sim_.routers_[static_cast<std::size_t>(r)].rr_start() + k - 1) %
          radix);
      std::size_t split = i;
      while (split < j && blocked_[split].port < rr) ++split;
      for (std::size_t x = split; x < j; ++x)
        sim_.observer_->on_blocked(r, blocked_[x].port, blocked_[x].msg, t + k);
      for (std::size_t x = i; x < split; ++x)
        sim_.observer_->on_blocked(r, blocked_[x].port, blocked_[x].msg, t + k);
      i = j;
    }
  }
}

}  // namespace pcm::sim
