#include "runtime/membership.hpp"

#include <algorithm>
#include <stdexcept>

#include "sim/topology.hpp"

namespace pcm::rt {

const char* member_state_name(MemberState s) {
  switch (s) {
    case MemberState::kAlive: return "alive";
    case MemberState::kSuspect: return "suspect";
    case MemberState::kCrashed: return "crashed";
    case MemberState::kUnreachable: return "unreachable";
  }
  return "?";
}

MembershipService::MembershipService(const sim::Simulator& sim,
                                     std::vector<NodeId> members,
                                     MembershipConfig cfg)
    : sim_(sim), cfg_(cfg), members_(std::move(members)) {
  if (cfg_.heartbeat_period <= 0)
    throw std::invalid_argument("MembershipService: heartbeat period must be > 0");
  if (cfg_.suspect_after < 1 || cfg_.confirm_after <= cfg_.suspect_after)
    throw std::invalid_argument(
        "MembershipService: need 1 <= suspect_after < confirm_after");
  if (members_.empty())
    throw std::invalid_argument("MembershipService: empty member list");
  const sim::Topology& topo = sim_.topology();
  const std::size_t n = members_.size();
  const int routers = topo.num_routers();
  const int radix = topo.radix();
  state_.assign(n, MemberState::kAlive);
  misses_.assign(n, 0);
  router_of_.resize(n);
  eject_of_.assign(n, -1);
  reach_slot_.resize(n);
  // Members attached to one router share its reach sets.
  std::vector<int> slot_of_router(static_cast<std::size_t>(routers), -1);
  for (std::size_t m = 0; m < n; ++m) {
    const NodeId node = members_[m];
    if (node < 0 || node >= topo.num_nodes())
      throw std::invalid_argument("MembershipService: member outside topology");
    router_of_[m] = topo.node_attach(node).router;
    int& slot = slot_of_router[static_cast<std::size_t>(router_of_[m])];
    if (slot < 0) {
      slot = static_cast<int>(reach_.size());
      reach_.emplace_back();
    }
    reach_slot_[m] = slot;
  }
  // Flat adjacency in both directions, built once: the reach searches
  // then never dispatch Topology::link.
  fwd_.off.assign(static_cast<std::size_t>(routers) + 1, 0);
  bwd_.off.assign(static_cast<std::size_t>(routers) + 1, 0);
  for (int r = 0; r < routers; ++r) {
    for (int q = 0; q < radix; ++q) {
      const sim::ChannelId c = topo.channel_id(r, q);
      const sim::PortRef dst = topo.link(r, q);
      if (dst.valid()) {
        fwd_.arcs.push_back({c, dst.router});
        ++fwd_.off[static_cast<std::size_t>(r) + 1];
        ++bwd_.off[static_cast<std::size_t>(dst.router) + 1];
      }
      const NodeId ej = topo.ejector(r, q);
      if (ej == kInvalidNode) continue;
      for (std::size_t m = 0; m < n; ++m)
        if (members_[m] == ej && eject_of_[m] < 0) eject_of_[m] = c;
    }
  }
  for (int r = 0; r < routers; ++r) {
    fwd_.off[static_cast<std::size_t>(r) + 1] += fwd_.off[static_cast<std::size_t>(r)];
    bwd_.off[static_cast<std::size_t>(r) + 1] += bwd_.off[static_cast<std::size_t>(r)];
  }
  // Reverse arcs point back at the channel's source router.
  bwd_.arcs.resize(fwd_.arcs.size());
  std::vector<int> next(bwd_.off.begin(), bwd_.off.end() - 1);
  for (const Arc& a : fwd_.arcs)
    bwd_.arcs[static_cast<std::size_t>(next[static_cast<std::size_t>(a.router)]++)] =
        Arc{a.channel, a.channel / radix};
  queue_.reserve(static_cast<std::size_t>(routers));
  for (std::size_t m = 0; m < n; ++m)
    if (eject_of_[m] < 0)
      throw std::invalid_argument("MembershipService: member has no ejector");
}

bool MembershipService::member_up(int m) const {
  return !sim_.node_failed(members_[static_cast<std::size_t>(m)]);
}

void MembershipService::search(const Adjacency& adj, int from,
                               std::vector<char>& seen) const {
  seen.assign(static_cast<std::size_t>(sim_.topology().num_routers()), 0);
  seen[static_cast<std::size_t>(from)] = 1;
  queue_.clear();
  queue_.push_back(from);
  for (std::size_t h = 0; h < queue_.size(); ++h) {
    const std::size_t r = static_cast<std::size_t>(queue_[h]);
    for (int i = adj.off[r]; i < adj.off[r + 1]; ++i) {
      const Arc& a = adj.arcs[static_cast<std::size_t>(i)];
      if (seen[static_cast<std::size_t>(a.router)] || !sim_.channel_live(a.channel))
        continue;
      seen[static_cast<std::size_t>(a.router)] = 1;
      queue_.push_back(a.router);
    }
  }
}

const MembershipService::Reach& MembershipService::reach_from(int m) const {
  Reach& reach = reach_[static_cast<std::size_t>(reach_slot_[static_cast<std::size_t>(m)])];
  // channel_live changes only when the simulator applies a fault-plan
  // event, and each applied event bumps fault_events: an exact cache key
  // (node events merely over-invalidate).
  const int version = sim_.stats().fault_events;
  if (reach.version == version) return reach;
  const int from = router_of_[static_cast<std::size_t>(m)];
  search(fwd_, from, reach.fwd);  // where can a probe from `from` get to?
  search(bwd_, from, reach.bwd);  // from where can an answer get back?
  reach.version = version;
  ++reach_rebuilds_;
  return reach;
}

bool MembershipService::answers(int from, int to, const Reach& reach) const {
  const std::size_t r = static_cast<std::size_t>(router_of_[static_cast<std::size_t>(to)]);
  return sim_.channel_live(eject_of_[static_cast<std::size_t>(from)]) &&
         reach.fwd[r] != 0 && reach.bwd[r] != 0 &&
         sim_.channel_live(eject_of_[static_cast<std::size_t>(to)]);
}

bool MembershipService::round_trip_reachable(NodeId from, NodeId to) const {
  int fi = -1, ti = -1;
  for (std::size_t m = 0; m < members_.size(); ++m) {
    if (members_[m] == from) fi = static_cast<int>(m);
    if (members_[m] == to) ti = static_cast<int>(m);
  }
  if (fi < 0 || ti < 0)
    throw std::invalid_argument("round_trip_reachable: not a member");
  if (fi == ti) return sim_.channel_live(eject_of_[static_cast<std::size_t>(fi)]);
  return answers(fi, ti, reach_from(fi));
}

int MembershipService::plurality_label() const {
  const std::size_t n = members_.size();
  // Eligible voters: up members not already adjudicated.
  label_.resize(n);
  for (std::size_t m = 0; m < n; ++m)
    label_[m] = (state_[m] == MemberState::kAlive ||
                 state_[m] == MemberState::kSuspect) &&
                        member_up(static_cast<int>(m))
                    ? -1
                    : -2;
  // Plurality: largest component; ties broken by the lowest node id held.
  int comps = 0;
  int best = -1;
  std::size_t best_size = 0;
  NodeId best_low = kInvalidNode;
  for (std::size_t m = 0; m < n; ++m) {
    if (label_[m] != -1) continue;
    const int id = comps++;
    const Reach& reach = reach_from(static_cast<int>(m));
    std::size_t size = 0;
    NodeId low = kInvalidNode;
    for (std::size_t m2 = m; m2 < n; ++m2) {
      if (label_[m2] != -1) continue;
      if (m2 != m && !answers(static_cast<int>(m), static_cast<int>(m2), reach))
        continue;
      label_[m2] = id;
      ++size;
      if (low == kInvalidNode || members_[m2] < low) low = members_[m2];
    }
    if (best < 0 || size > best_size || (size == best_size && low < best_low)) {
      best = id;
      best_size = size;
      best_low = low;
    }
  }
  return best;
}

std::vector<int> MembershipService::plurality_members() const {
  const int best = plurality_label();
  std::vector<int> out;
  for (std::size_t m = 0; m < members_.size(); ++m)
    if (best >= 0 && label_[m] == best) out.push_back(static_cast<int>(m));
  return out;
}

std::vector<MembershipEvent> MembershipService::sweep(NodeId observer) {
  const std::size_t n = members_.size();
  int oi = -1;
  for (std::size_t m = 0; m < n; ++m)
    if (members_[m] == observer) oi = static_cast<int>(m);
  if (oi < 0) throw std::invalid_argument("sweep: observer is not a member");
  const Reach& from_observer = reach_from(oi);
  auto reach = [&](int m) {
    if (m == oi) return sim_.channel_live(eject_of_[static_cast<std::size_t>(oi)]);
    return answers(oi, m, from_observer);
  };
  const int plur = plurality_label();
  const bool observer_plural =
      plur >= 0 && label_[static_cast<std::size_t>(oi)] == plur;

  std::vector<MembershipEvent> out;
  for (std::size_t m = 0; m < n; ++m) {
    const int mi = static_cast<int>(m);
    if (state_[m] == MemberState::kCrashed) continue;
    if (state_[m] == MemberState::kUnreachable) {
      // Heal watch: an evicted-as-partitioned member that answers probes
      // again is offered back; the runtime decides whether to readmit.
      if (member_up(mi) && reach(mi))
        out.push_back({MembershipEvent::Kind::kHealed, mi});
      continue;
    }
    bool renewed;
    if (mi == oi) {
      // The observer's own lease holds only while it sits in the plurality
      // component: a minority-side source must depose itself, never the
      // (unobservable) majority.
      renewed = member_up(mi) && observer_plural;
    } else if (!observer_plural) {
      // Minority observers adjudicate nobody else; the plurality side will
      // run its own detector after failover.
      continue;
    } else {
      renewed = member_up(mi) && reach(mi);
    }
    if (renewed) {
      misses_[m] = 0;
      if (state_[m] == MemberState::kSuspect) {
        state_[m] = MemberState::kAlive;
        out.push_back({MembershipEvent::Kind::kClear, mi});
      }
      continue;
    }
    ++misses_[m];
    if (state_[m] == MemberState::kAlive && misses_[m] >= cfg_.suspect_after) {
      state_[m] = MemberState::kSuspect;
      out.push_back({MembershipEvent::Kind::kSuspect, mi});
    }
    if (misses_[m] >= cfg_.confirm_after) {
      // Classification: still round-trip reachable yet silent can only be
      // a fail-stop; otherwise every route crosses a down link.
      bool crashed;
      if (mi == oi)
        crashed = !member_up(mi);
      else
        crashed = reach(mi);
      state_[m] = crashed ? MemberState::kCrashed : MemberState::kUnreachable;
      out.push_back({crashed ? MembershipEvent::Kind::kCrashed
                             : MembershipEvent::Kind::kUnreachable,
                     mi});
    }
  }
  return out;
}

void MembershipService::evict(int member, bool unreachable) {
  state_[static_cast<std::size_t>(member)] =
      unreachable ? MemberState::kUnreachable : MemberState::kCrashed;
  misses_[static_cast<std::size_t>(member)] = 0;
}

void MembershipService::readmit(int member) {
  state_[static_cast<std::size_t>(member)] = MemberState::kAlive;
  misses_[static_cast<std::size_t>(member)] = 0;
}

}  // namespace pcm::rt
