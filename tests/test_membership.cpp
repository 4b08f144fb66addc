// Group membership, source failover, and partition healing (DESIGN.md §6.7).
//
//   * detector ladder: a fail-stopped member walks alive -> suspect ->
//     crashed; a partitioned member walks alive -> suspect -> unreachable
//     and reports healed once the cut lifts; plurality adjudication is
//     deterministic;
//   * failover acceptance: a mid-stream source fail-stop on the 16x16
//     mesh completes via deterministic succession with every survivor's
//     prefix intact, bit-identically across repeated runs;
//   * healing acceptance: a partition that outlives the confirm ladder
//     evicts the minority receivers, and the heal re-admits every one of
//     them at the current epoch with a full catch-up;
//   * a sub-threshold blip is absorbed by the retry ladder alone: no
//     suspicion confirm, no eviction, no epoch bump;
//   * the stream auditor rejects forged traces: split-brain injections,
//     failover prefix regressions, rejoin prefix discontinuities, and
//     rejoins of crashed (non-partitioned) members.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "analysis/sampling.hpp"
#include "bmin/bmin_topology.hpp"
#include "mesh/mesh_topology.hpp"
#include "obs/recorder.hpp"
#include "runtime/mcast_runtime.hpp"
#include "runtime/membership.hpp"
#include "runtime/stream_runtime.hpp"
#include "sim/fault.hpp"
#include "sim/simulator.hpp"
#include "verify/chaos.hpp"
#include "verify/invariant_auditor.hpp"
#include "logged_run.hpp"

namespace pcm {
namespace {

using EKind = obs::EventKind;
using MKind = rt::MembershipEvent::Kind;
using test_log::LoggedRun;
using test_log::events_of;
using test_log::run_logged;

std::vector<NodeId> lower_half(int n) {
  std::vector<NodeId> out;
  for (NodeId v = 0; v < n / 2; ++v) out.push_back(v);
  return out;
}

std::vector<NodeId> upper_half(int n) {
  std::vector<NodeId> out;
  for (NodeId v = n / 2; v < n; ++v) out.push_back(v);
  return out;
}

rt::StreamConfig membership_config(const MeshShape* shape, int window,
                                   int slots, Time heartbeat, Bytes bytes) {
  rt::StreamConfig cfg;
  cfg.window_size = window;
  cfg.slots = slots;
  cfg.bytes = bytes;
  cfg.alg = McastAlgorithm::kOptMesh;
  cfg.shape = shape;
  cfg.reliable = true;
  cfg.membership.heartbeat_period = heartbeat;
  return cfg;
}

// --- MembershipService: the detector ladder -------------------------------

TEST(MembershipService, FailStopWalksSuspectThenCrashed) {
  const auto topo = mesh::make_mesh2d(4);
  sim::Simulator sim(*topo);
  sim::FaultPlan plan;
  plan.node_events.push_back({50, 5});
  sim.set_fault_plan(plan);
  sim.advance_idle_to(60);

  rt::MembershipService svc(sim, {0, 5, 10},
                            {.heartbeat_period = 100, .suspect_after = 2,
                             .confirm_after = 4});
  // Miss 1: below the suspicion threshold, silent.
  EXPECT_TRUE(svc.sweep(0).empty());
  EXPECT_EQ(svc.state(1), rt::MemberState::kAlive);
  // Miss 2: suspect.
  auto events = svc.sweep(0);
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].kind, MKind::kSuspect);
  EXPECT_EQ(events[0].member, 1);
  EXPECT_EQ(svc.state(1), rt::MemberState::kSuspect);
  // Miss 3: still suspect, no repeat event.
  EXPECT_TRUE(svc.sweep(0).empty());
  // Miss 4: confirmed.  Node 5 is still round-trip reachable over live
  // channels, so only a fail-stop explains the silence: crashed.
  events = svc.sweep(0);
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].kind, MKind::kCrashed);
  EXPECT_EQ(svc.state(1), rt::MemberState::kCrashed);
  // The verdict is permanent; the healthy member never left alive.
  EXPECT_TRUE(svc.sweep(0).empty());
  EXPECT_EQ(svc.state(2), rt::MemberState::kAlive);
}

TEST(MembershipService, PartitionWalksSuspectUnreachableThenHealed) {
  const auto topo = mesh::make_mesh2d(4);
  const int n = topo->num_nodes();
  sim::Simulator sim(*topo);
  sim.set_fault_plan(
      sim::FaultPlan::partition(*topo, lower_half(n), upper_half(n), 50, 950));
  sim.advance_idle_to(60);

  // Observer 0 and member 5 share the lower half; member 10 is cut off.
  rt::MembershipService svc(sim, {0, 5, 10},
                            {.heartbeat_period = 100, .suspect_after = 2,
                             .confirm_after = 4});
  EXPECT_TRUE(svc.sweep(0).empty());
  auto events = svc.sweep(0);
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].kind, MKind::kSuspect);
  EXPECT_EQ(events[0].member, 2);
  EXPECT_TRUE(svc.sweep(0).empty());
  // Confirm: every route to node 10 crosses the cut, so the verdict is
  // unreachable (rejoinable), not crashed.
  events = svc.sweep(0);
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].kind, MKind::kUnreachable);
  EXPECT_EQ(svc.state(2), rt::MemberState::kUnreachable);
  // Plurality: the lower half holds 2 of the 3 up members.
  EXPECT_EQ(svc.plurality_members(), (std::vector<int>{0, 1}));

  // Heal the cut: the member answers again, repeatedly, until readmitted.
  sim.advance_idle_to(1000);
  events = svc.sweep(0);
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].kind, MKind::kHealed);
  events = svc.sweep(0);
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].kind, MKind::kHealed);
  svc.readmit(2);
  EXPECT_EQ(svc.state(2), rt::MemberState::kAlive);
  EXPECT_TRUE(svc.sweep(0).empty());
}

TEST(MembershipService, SuspicionClearsWhenTheLeaseRenews) {
  const auto topo = mesh::make_mesh2d(4);
  const int n = topo->num_nodes();
  sim::Simulator sim(*topo);
  // A blip two sweeps long: suspicion fires but never confirms.
  sim.set_fault_plan(
      sim::FaultPlan::partition(*topo, lower_half(n), upper_half(n), 50, 250));
  sim.advance_idle_to(60);
  rt::MembershipService svc(sim, {0, 10},
                            {.heartbeat_period = 100, .suspect_after = 2,
                             .confirm_after = 4});
  EXPECT_TRUE(svc.sweep(0).empty());
  auto events = svc.sweep(0);
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].kind, MKind::kSuspect);
  sim.advance_idle_to(300);
  events = svc.sweep(0);
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].kind, MKind::kClear);
  EXPECT_EQ(svc.state(1), rt::MemberState::kAlive);
}

// --- reach-set cache vs a reference search under churn ---------------------

/// Routers reachable from `from` over live channels (forward), or routers
/// that can reach `from` (backward), walking Topology::link directly.
std::vector<char> reference_reach(const sim::Simulator& sim, int from,
                                  bool forward) {
  const sim::Topology& topo = sim.topology();
  std::vector<char> seen(static_cast<std::size_t>(topo.num_routers()), 0);
  std::vector<int> queue = {from};
  seen[static_cast<std::size_t>(from)] = 1;
  for (std::size_t h = 0; h < queue.size(); ++h) {
    for (int r = 0; r < topo.num_routers(); ++r) {
      for (int q = 0; q < topo.radix(); ++q) {
        const sim::PortRef dst = topo.link(r, q);
        if (!dst.valid() || !sim.channel_live(topo.channel_id(r, q))) continue;
        const int near = forward ? r : dst.router;
        const int far = forward ? dst.router : r;
        if (near != queue[h] || seen[static_cast<std::size_t>(far)]) continue;
        seen[static_cast<std::size_t>(far)] = 1;
        queue.push_back(far);
      }
    }
  }
  return seen;
}

bool reference_eject_live(const sim::Simulator& sim, NodeId node) {
  const sim::Topology& topo = sim.topology();
  for (int r = 0; r < topo.num_routers(); ++r)
    for (int q = 0; q < topo.radix(); ++q)
      if (topo.ejector(r, q) == node) return sim.channel_live(topo.channel_id(r, q));
  return false;
}

bool reference_round_trip(const sim::Simulator& sim, NodeId from, NodeId to) {
  if (from == to) return reference_eject_live(sim, from);
  const sim::Topology& topo = sim.topology();
  const int a = topo.node_attach(from).router;
  const int b = topo.node_attach(to).router;
  return reference_eject_live(sim, from) && reference_eject_live(sim, to) &&
         reference_reach(sim, a, true)[static_cast<std::size_t>(b)] &&
         reference_reach(sim, a, false)[static_cast<std::size_t>(b)];
}

/// Greedy components of mutually round-trip reachable eligible members,
/// the largest winning (ties: lowest node id).
std::vector<int> reference_plurality(const sim::Simulator& sim,
                                     const rt::MembershipService& svc,
                                     const std::vector<NodeId>& members) {
  const std::size_t n = members.size();
  std::vector<char> taken(n, 0);
  for (std::size_t m = 0; m < n; ++m) {
    const rt::MemberState st = svc.state(static_cast<int>(m));
    taken[m] = (st == rt::MemberState::kCrashed ||
                st == rt::MemberState::kUnreachable || sim.node_failed(members[m]));
  }
  std::vector<int> best;
  for (std::size_t m = 0; m < n; ++m) {
    if (taken[m]) continue;
    std::vector<int> comp = {static_cast<int>(m)};
    taken[m] = 1;
    for (std::size_t m2 = m + 1; m2 < n; ++m2) {
      if (taken[m2] || !reference_round_trip(sim, members[m], members[m2])) continue;
      comp.push_back(static_cast<int>(m2));
      taken[m2] = 1;
    }
    const auto low = [&](const std::vector<int>& c) {
      NodeId v = members[static_cast<std::size_t>(c[0])];
      for (const int i : c) v = std::min(v, members[static_cast<std::size_t>(i)]);
      return v;
    };
    if (best.empty() || comp.size() > best.size() ||
        (comp.size() == best.size() && low(comp) < low(best)))
      best = comp;
  }
  return best;
}

/// Every wired channel out of (and, with `both_ways`, into) `router`.
std::vector<std::pair<int, int>> wired_channels(const sim::Topology& topo,
                                                int router, bool both_ways) {
  std::vector<std::pair<int, int>> out;
  for (int r = 0; r < topo.num_routers(); ++r)
    for (int q = 0; q < topo.radix(); ++q) {
      const sim::PortRef dst = topo.link(r, q);
      if (dst.valid() && (r == router || (both_ways && dst.router == router)))
        out.emplace_back(r, q);
    }
  return out;
}

/// Drives one detector through link down/up, an asymmetric cut (a router
/// that still receives but cannot answer), a partition and its heal, and a
/// node kill.  At every sweep the cached reach answers must equal the
/// reference search, and a sweep with no fault event since the previous
/// one must rebuild no reach set.
void expect_cache_matches_reference(const sim::Topology& topo,
                                    const std::vector<NodeId>& members,
                                    sim::FaultPlan plan, NodeId mute,
                                    NodeId victim) {
  auto down_up = [&](const std::vector<std::pair<int, int>>& chans, Time down,
                     Time up) {
    for (const auto& [r, q] : chans) {
      plan.link_events.push_back({down, r, q, false});
      plan.link_events.push_back({up, r, q, true});
    }
  };
  // A lone link blip, then a muted router: every outgoing link down.
  down_up({wired_channels(topo, topo.node_attach(members[0]).router, false)[0]},
          150, 250);
  down_up(wired_channels(topo, topo.node_attach(mute).router, false), 100, 300);
  plan.node_events.push_back({900, victim});
  sim::Simulator sim(topo);
  sim.set_fault_plan(plan);
  rt::MembershipService svc(sim, members,
                            {.heartbeat_period = 50, .suspect_after = 2,
                             .confirm_after = 3});
  int last_version = -1;
  long long last_rebuilds = 0;
  bool saw_cut = false;
  for (Time t = 50; t <= 1200; t += 50) {
    sim.advance_idle_to(t);
    const int version = sim.stats().fault_events;
    for (const rt::MembershipEvent& ev : svc.sweep(members[0]))
      if (ev.kind == MKind::kHealed) svc.readmit(ev.member);
    for (const NodeId a : members)
      for (const NodeId b : members) {
        const bool want = reference_round_trip(sim, a, b);
        saw_cut |= !want;
        EXPECT_EQ(svc.round_trip_reachable(a, b), want)
            << "cycle " << t << ": " << a << " -> " << b;
      }
    EXPECT_EQ(svc.plurality_members(), reference_plurality(sim, svc, members))
        << "cycle " << t;
    if (version == last_version) {
      EXPECT_EQ(svc.reach_rebuilds(), last_rebuilds)
          << "cycle " << t << ": no fault event, yet a reach set was rebuilt";
    }
    last_version = version;
    last_rebuilds = svc.reach_rebuilds();
  }
  EXPECT_TRUE(saw_cut) << "the churn never cut a round trip";
  EXPECT_TRUE(sim.node_failed(victim));
  EXPECT_GT(svc.reach_rebuilds(), 0);
}

TEST(MembershipService, ReachCacheMatchesReferenceUnderChurnOnMesh) {
  // The partition splits the members 3-3 and the observer (node 10) sits
  // on the side that loses the lowest-node-id tie-break.
  const auto topo = mesh::make_mesh2d(4);
  const int n = topo->num_nodes();
  expect_cache_matches_reference(
      *topo, {10, 3, 12, 0, 5, 15},
      sim::FaultPlan::partition(*topo, lower_half(n), upper_half(n), 500, 700),
      /*mute=*/15, /*victim=*/12);
}

TEST(MembershipService, ReachCacheMatchesReferenceUnderChurnOnBmin) {
  // Nodes 2k and 2k+1 share a switch, so they share one cached reach set;
  // the "partition" isolates the switch of nodes 8 and 9 both ways.
  const auto topo = bmin::make_bmin(16, bmin::UpPolicy::kSourceAddress);
  sim::FaultPlan plan;
  for (const auto& [r, q] : wired_channels(*topo, topo->node_attach(8).router, true)) {
    plan.link_events.push_back({500, r, q, false});
    plan.link_events.push_back({700, r, q, true});
  }
  expect_cache_matches_reference(*topo, {0, 1, 4, 8, 9, 13}, std::move(plan),
                                 /*mute=*/4, /*victim=*/13);
}

// --- failover acceptance (ISSUE: 16x16 mesh, mid-stream source kill) ------

LoggedRun run_source_kill(Time heartbeat, bool failover, const sim::Topology& topo,
                          const analysis::Placement& p, int slots) {
  rt::StreamConfig cfg = membership_config(
      &static_cast<const mesh::MeshTopology&>(topo).shape(), 8, slots,
      heartbeat, 256);
  cfg.failover = failover;
  sim::Simulator sim(topo);
  sim::FaultPlan plan;
  plan.node_events.push_back({6000, p.source});
  sim.set_fault_plan(plan);
  return run_logged(sim, p.source, p.dests, cfg);
}

TEST(StreamFailover, MidStreamSourceKillCompletesViaSuccession) {
  const auto topo = mesh::make_mesh2d(16);
  const auto p = analysis::sample_placements(41, topo->num_nodes(), 12, 1)[0];
  const int slots = 32;
  const auto [r, log] = run_source_kill(600, true, *topo, p, slots);

  EXPECT_EQ(r.failovers, 1) << "exactly one succession";
  EXPECT_GE(r.epoch, 1);
  EXPECT_EQ(r.committed, slots) << "the survivor frontier must drain";
  ASSERT_EQ(r.dead_nodes.size(), 1u);
  EXPECT_EQ(r.dead_nodes[0], p.source);
  // Every surviving position ends with the complete stream.
  for (std::size_t pos = 0; pos < r.delivered_prefix.size(); ++pos) {
    if (r.delivered_prefix[pos] != slots) {
      EXPECT_EQ(r.delivered_prefix[pos], 0)
          << "pos " << pos << " is neither the dead source nor a survivor "
          << "with the full stream";
    }
  }
  EXPECT_TRUE(r.complete) << "commit is defined over surviving receivers";
  EXPECT_NO_THROW(verify::InvariantAuditor::audit_stream(r, log));

  // The log must witness the succession: a kFailover event whose
  // successor prefix covers the committed frontier at that instant.
  const std::vector<obs::TraceEvent> failovers = events_of(log, EKind::kFailover);
  ASSERT_FALSE(failovers.empty());
  EXPECT_EQ(failovers.front().a, 1) << "the succession opens epoch 1";

  // Determinism: the identical scenario replays bit-identically.
  const auto [r2, log2] = run_source_kill(600, true, *topo, p, slots);
  EXPECT_EQ(r.makespan, r2.makespan);
  EXPECT_EQ(log.size(), log2.size());
  EXPECT_TRUE(log == log2) << "the protocol log must replay bit-identically";
  EXPECT_EQ(r.retries, r2.retries);
  EXPECT_EQ(r.delivered_prefix, r2.delivered_prefix);
}

TEST(StreamFailover, WithoutFailoverTheDeadSourceEndsTheStream) {
  const auto topo = mesh::make_mesh2d(16);
  const auto p = analysis::sample_placements(41, topo->num_nodes(), 12, 1)[0];
  const auto [r, log] = run_source_kill(600, false, *topo, p, 32);
  EXPECT_EQ(r.failovers, 0);
  EXPECT_LT(r.committed, 32) << "no succession: the stream halts";
  EXPECT_FALSE(r.complete);
  EXPECT_NO_THROW(verify::InvariantAuditor::audit_stream(r, log));
}

TEST(StreamFailover, SourceKillUnderLossWaitsForTheDetector) {
  // Regression (the pcmcast reproducer): under 1e-3 loss the source dies
  // while none of its records is open.  The run loop used to spin on
  // pump() until its iteration guard and end the stream at 98/200 slots
  // with no failover; it must instead wait for the heartbeat sweeps that
  // confirm the death, fail over once, and commit every slot.
  //   pcmcast --topology mesh:16 --algorithm u-mesh --bytes 64 --source 78
  //     --dests 166,146,80,36,133,195,164,42,210,176,215,92,74,97,241
  //     --stream 200 --window 8 --heartbeat 1197 --failover --rejoin
  //     --faults "node:78@178894;drop:0.001;seed:6305388907919474356"
  const auto topo = mesh::make_mesh2d(16);
  const NodeId source = 78;
  const std::vector<NodeId> dests = {166, 146, 80, 36, 133, 195, 164, 42,
                                     210, 176, 215, 92, 74, 97, 241};
  rt::StreamConfig cfg = membership_config(&topo->shape(), 8, 200, 1197, 64);
  cfg.alg = McastAlgorithm::kUMesh;
  cfg.failover = true;
  cfg.rejoin = true;
  sim::Simulator sim(*topo);
  sim.set_fault_plan(sim::FaultPlan::parse(
      "node:78@178894;drop:0.001;seed:6305388907919474356"));

  const auto [r, log] = run_logged(sim, source, dests, cfg);
  EXPECT_EQ(r.committed, 200);
  EXPECT_EQ(r.failovers, 1);
  ASSERT_EQ(r.dead_nodes.size(), 1u);
  EXPECT_EQ(r.dead_nodes[0], source);
  EXPECT_TRUE(r.complete);
  EXPECT_NO_THROW(verify::InvariantAuditor::audit_stream(r, log));
}

// --- partition healing acceptance -----------------------------------------

TEST(StreamRejoin, PartitionThenHealReadmitsEveryEvictedReceiver) {
  // Source and the plurality stay in the lower half; three receivers are
  // cut off long enough for the confirm ladder, then the cut heals.  The
  // stream must evict them as unreachable, keep streaming to the
  // survivors, re-admit every one of them on heal, and end complete.
  const auto topo = mesh::make_mesh2d(4);
  const int n = topo->num_nodes();
  const NodeId source = 0;
  const std::vector<NodeId> dests = {1, 2, 5, 9, 10, 14};

  rt::StreamConfig cfg = membership_config(&topo->shape(), 4, 48, 400, 256);
  cfg.rejoin = true;
  sim::Simulator sim(*topo);
  sim.set_fault_plan(
      sim::FaultPlan::partition(*topo, lower_half(n), upper_half(n), 3000, 9000));

  const auto [r, log] = run_logged(sim, source, dests, cfg);
  EXPECT_EQ(r.rejoins, 3) << "all three cut-off receivers must re-admit";
  EXPECT_TRUE(r.unreachable_nodes.empty())
      << "nobody is still unreachable at the end";
  EXPECT_TRUE(r.dead_nodes.empty());
  EXPECT_EQ(r.committed, 48);
  EXPECT_TRUE(r.complete) << "delta catch-up must backfill the missed slots";
  EXPECT_DOUBLE_EQ(r.delivered_fraction, 1.0);
  EXPECT_NO_THROW(verify::InvariantAuditor::audit_stream(r, log));

  // Eviction then readmission, in that order, for each healed receiver.
  int partitions = 0;
  for (const obs::TraceEvent& ev : events_of(log, EKind::kEpochBump))
    partitions += ev.c;
  EXPECT_EQ(partitions, 3);
  EXPECT_EQ(events_of(log, EKind::kRejoin).size(), 3u);
}

TEST(StreamRejoin, TwoReceiversHealedInOneSweepBothCatchUp) {
  // Regression: receivers 54 and 63 sit in a cut-off 2x2 corner of the
  // 8x8 mesh; both are evicted together, the stream commits on without
  // them, and both heal in the same heartbeat sweep.  The second rejoin's
  // epoch bump used to close the first one's delta catch-up records, so
  // the first receiver ended with a 1-slot prefix.  Both must end with
  // the full stream, with one epoch per membership event.
  const auto topo = mesh::make_mesh2d(8);
  const std::vector<NodeId> corner = {54, 55, 62, 63};
  std::vector<NodeId> rest;
  for (NodeId v = 0; v < topo->num_nodes(); ++v)
    if (std::find(corner.begin(), corner.end(), v) == corner.end())
      rest.push_back(v);
  const std::vector<NodeId> dests = {9, 18, 27, 36, 45, 54, 63, 7, 56};
  rt::StreamConfig cfg = membership_config(&topo->shape(), 4, 200, 400, 256);
  cfg.rejoin = true;
  sim::Simulator sim(*topo);
  sim.set_fault_plan(sim::FaultPlan::partition(*topo, rest, corner, 3000, 20000));

  const auto [r, log] = run_logged(sim, 0, dests, cfg);
  std::vector<Time> rejoin_times;
  int partitions = 0;
  for (const obs::TraceEvent& ev : log) {
    if (ev.event_kind() == EKind::kEpochBump) partitions += ev.c;
    if (ev.event_kind() == EKind::kRejoin) rejoin_times.push_back(ev.cycle);
  }
  EXPECT_EQ(partitions, 2);
  ASSERT_EQ(rejoin_times.size(), 2u);
  EXPECT_EQ(rejoin_times[0], rejoin_times[1]) << "both heal in one sweep";
  EXPECT_EQ(r.rejoins, 2);
  EXPECT_EQ(r.epoch, 4) << "one epoch per eviction and per rejoin";
  EXPECT_EQ(r.committed, 200);
  for (std::size_t pos = 0; pos < r.delivered_prefix.size(); ++pos)
    EXPECT_EQ(r.delivered_prefix[pos], 200) << "pos " << pos;
  EXPECT_TRUE(r.complete);
  EXPECT_NO_THROW(verify::InvariantAuditor::audit_stream(r, log));
}

// --- satellite: sub-threshold blips are not failures ----------------------

TEST(StreamMembership, LinkBlipIsAbsorbedByRetriesWithoutEviction) {
  // The cut lasts one heartbeat period — under suspect_after * period —
  // so the detector may suspect but never confirms: no eviction, no
  // epoch bump, no death, and the retry ladder backfills anything the
  // blip dropped or delayed.
  const auto topo = mesh::make_mesh2d(4);
  const int n = topo->num_nodes();
  const NodeId source = 0;
  const std::vector<NodeId> dests = {2, 5, 9, 14};

  std::vector<Time> makespans;
  for (int rep = 0; rep < 2; ++rep) {
    rt::StreamConfig cfg = membership_config(&topo->shape(), 4, 24, 800, 256);
    cfg.failover = true;
    cfg.rejoin = true;
    sim::Simulator sim(*topo);
    sim.set_fault_plan(
        sim::FaultPlan::partition(*topo, lower_half(n), upper_half(n), 1500, 2300));
    const auto [r, log] = run_logged(sim, source, dests, cfg);
    EXPECT_EQ(r.epoch, 0) << "a blip must not reconfigure the group";
    EXPECT_EQ(r.failovers, 0);
    EXPECT_EQ(r.rejoins, 0);
    EXPECT_TRUE(r.dead_nodes.empty());
    EXPECT_TRUE(r.unreachable_nodes.empty());
    EXPECT_EQ(r.committed, 24);
    EXPECT_TRUE(r.complete);
    EXPECT_NO_THROW(verify::InvariantAuditor::audit_stream(r, log));
    makespans.push_back(r.makespan);
  }
  EXPECT_EQ(makespans[0], makespans[1]) << "the blip run must be deterministic";
}

// --- forged traces must be rejected ---------------------------------------

LoggedRun failover_run() {
  const auto topo = mesh::make_mesh2d(16);
  const auto p = analysis::sample_placements(41, topo->num_nodes(), 12, 1)[0];
  return run_source_kill(600, true, *topo, p, 32);
}

template <typename Doctor>
void expect_audit_rejects(LoggedRun run, verify::Invariant want, Doctor&& doctor) {
  ASSERT_NO_THROW(verify::InvariantAuditor::audit_stream(run.r, run.log));
  ASSERT_TRUE(doctor(run.log)) << "the log lacks the event to doctor";
  try {
    verify::InvariantAuditor::audit_stream(run.r, run.log);
    FAIL() << "the forged log must be caught";
  } catch (const verify::InvariantViolation& v) {
    EXPECT_EQ(v.invariant(), want) << v.what();
  }
}

TEST(StreamAuditor, CatchesInjectionFromTheDeposedSource) {
  // After succession, an inject attributed to the old source is split
  // brain: two active sources in one epoch.
  expect_audit_rejects(
      failover_run(), verify::Invariant::kStreamEpoch,
      [](std::vector<obs::TraceEvent>& log) {
        int old_producer = -1;
        bool failed_over = false;
        for (obs::TraceEvent& ev : log) {
          if (ev.event_kind() == EKind::kSlotInject && old_producer < 0)
            old_producer = ev.c;
          if (ev.event_kind() == EKind::kFailover) failed_over = true;
          if (failed_over && ev.event_kind() == EKind::kSlotInject) {
            ev.c = old_producer;
            return true;
          }
        }
        return false;
      });
}

TEST(StreamAuditor, CatchesFailoverPrefixRegression) {
  // A successor claiming less than the committed frontier would roll
  // back slots the group already acknowledged.
  expect_audit_rejects(failover_run(), verify::Invariant::kStreamGap,
                       [](std::vector<obs::TraceEvent>& log) {
                         for (obs::TraceEvent& ev : log)
                           if (ev.event_kind() == EKind::kFailover) {
                             ev.c = 0;  // the successor's prefix
                             return true;
                           }
                         return false;
                       });
}

LoggedRun rejoin_run() {
  const auto topo = mesh::make_mesh2d(4);
  const int n = topo->num_nodes();
  rt::StreamConfig cfg = membership_config(&topo->shape(), 4, 48, 400, 256);
  cfg.rejoin = true;
  sim::Simulator sim(*topo);
  sim.set_fault_plan(
      sim::FaultPlan::partition(*topo, lower_half(n), upper_half(n), 3000, 9000));
  return run_logged(sim, 0, std::vector<NodeId>{1, 2, 5, 9, 10, 14}, cfg);
}

TEST(StreamAuditor, CatchesRejoinPrefixDiscontinuity) {
  // A rejoiner must resume exactly at its delivered prefix; claiming one
  // slot more would leave a hole no catch-up ever fills.
  expect_audit_rejects(rejoin_run(), verify::Invariant::kStreamGap,
                       [](std::vector<obs::TraceEvent>& log) {
                         for (obs::TraceEvent& ev : log)
                           if (ev.event_kind() == EKind::kRejoin) {
                             ++ev.c;  // the rejoiner's prefix
                             return true;
                           }
                         return false;
                       });
}

TEST(StreamAuditor, CatchesRejoinOfACrashedMember) {
  // Flip one eviction from a partition (unreachable, rejoinable) to a
  // crash: the later rejoin of that position must be rejected — crashed
  // members never come back.
  expect_audit_rejects(
      rejoin_run(), verify::Invariant::kStreamEpoch,
      [](std::vector<obs::TraceEvent>& log) {
        for (obs::TraceEvent& doomed : log)
          if (doomed.event_kind() == EKind::kEpochBump && doomed.c == 1) {
            for (const obs::TraceEvent& ev : log)
              if (ev.event_kind() == EKind::kRejoin && ev.b == doomed.b) {
                doomed.c = 0;
                return true;
              }
          }
        return false;
      });
}

TEST(StreamAuditor, LogsEachAppliedVerdictBeforeItsTransition) {
  // Detector verdicts enter the log where the stream applies them: every
  // confirmed partition is followed directly by its eviction's epoch
  // bump, every heal by its rejoin, and the suspicions logged are exactly
  // the ones the result counts.
  const auto [r, log] = rejoin_run();
  ASSERT_NO_THROW(verify::InvariantAuditor::audit_stream(r, log));
  EXPECT_EQ(static_cast<int>(events_of(log, EKind::kSuspect).size()), r.suspects);
  EXPECT_FALSE(events_of(log, EKind::kHeartbeat).empty());
  int confirms = 0, heals = 0;
  for (std::size_t i = 0; i + 1 < log.size(); ++i) {
    const obs::TraceEvent& ev = log[i];
    const obs::TraceEvent& next = log[i + 1];
    if (ev.event_kind() == EKind::kConfirmUnreachable) {
      ++confirms;
      EXPECT_EQ(next.event_kind(), EKind::kEpochBump);
      EXPECT_EQ(next.b, ev.a) << "the eviction names the confirmed member";
      EXPECT_EQ(next.c, 1) << "a partition eviction";
    }
    if (ev.event_kind() == EKind::kHealed) {
      ++heals;
      EXPECT_EQ(next.event_kind(), EKind::kRejoin);
      EXPECT_EQ(next.b, ev.a) << "the rejoin names the healed member";
    }
  }
  EXPECT_EQ(confirms, 3);
  EXPECT_EQ(heals, r.rejoins);
}

// --- chaos coverage --------------------------------------------------------

TEST(StreamChaos, GeneratorExercisesFailoverAndRejoin) {
  // The streaming scenario families must actually produce membership
  // scenarios (source kills under failover, partitions under rejoin) and
  // every one must execute audit-clean.
  int failovers = 0, rejoins = 0;
  for (int i = 0; i < 60; ++i) {
    const verify::ChaosScenario s = verify::make_stream_scenario(11, i);
    const verify::ScenarioOutcome out = verify::run_scenario(s);
    EXPECT_FALSE(out.violated)
        << "scenario " << i << ": " << out.violation << "\n"
        << verify::repro_command(s);
    failovers += out.failovers;
    rejoins += out.rejoins;
  }
  EXPECT_GT(failovers, 0) << "no scenario exercised source succession";
  EXPECT_GT(rejoins, 0) << "no scenario exercised partition healing";
}

TEST(StreamChaos, ReproCommandNamesMembershipFlags) {
  for (int i = 0; i < 200; ++i) {
    const verify::ChaosScenario s = verify::make_stream_scenario(11, i);
    if (s.heartbeat <= 0 || !s.failover || !s.rejoin) continue;
    const std::string cmd = verify::repro_command(s);
    EXPECT_NE(cmd.find("--heartbeat"), std::string::npos) << cmd;
    EXPECT_NE(cmd.find("--failover"), std::string::npos) << cmd;
    EXPECT_NE(cmd.find("--rejoin"), std::string::npos) << cmd;
    return;
  }
  FAIL() << "no generated scenario enables heartbeat+failover+rejoin";
}

}  // namespace
}  // namespace pcm
