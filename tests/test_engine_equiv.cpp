// Engine-equivalence suite: the hybrid event-driven kernel
// (SimConfig::engine = kEvent) must be bit-identical to the cycle-driven
// reference engine on every observable — SimStats fields, per-message
// timestamps, the full observer callback sequence, run status, and
// watchdog reports.  Scenarios cover the PR-1/PR-3 golden workloads
// (contended OPT trees exercise mid-run materialization), a seeded
// randomized sweep over mesh and BMIN, single-flit and deep-pipeline
// router delays, fault-plan fallback, truncation + resume, and the
// deadlocked-ring watchdog regression from the fast-forward accounting
// fix.  The EngineEquivShift cases drive the post-materialization
// pure-shift windows: 64 KB contended OPT-Tree runs, deep router delays
// at both FIFO depths, 2-port NIs, handler posts, truncation, stall
// reports and the watchdog inside would-be windows.
#include <gtest/gtest.h>

#include <functional>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/sampling.hpp"
#include "bmin/bmin_topology.hpp"
#include "mesh/mesh_topology.hpp"
#include "runtime/mcast_runtime.hpp"
#include "sim/simulator.hpp"

namespace pcm::sim {
namespace {

/// Records every observer callback as one line, in commit order.  Two
/// engines are stream-equivalent iff the recorded logs match verbatim.
class RecordingObserver final : public SimObserver {
 public:
  void on_post(const Message& m, Time t) override {
    line() << "post " << m.id << " @" << t;
  }
  void on_deliver(const Message& m, Time t) override {
    line() << "deliver " << m.id << " @" << t << " blk=" << m.block_cycles;
  }
  void on_reserve(int r, int q, MsgId msg, Time t) override {
    line() << "reserve " << r << ":" << q << " m" << msg << " @" << t;
  }
  void on_release(int r, int q, MsgId msg, Time t) override {
    line() << "release " << r << ":" << q << " m" << msg << " @" << t;
  }
  void on_blocked(int r, int p, MsgId msg, Time t) override {
    line() << "blocked " << r << ":" << p << " m" << msg << " @" << t;
  }
  void on_drop(MsgId msg, DropReason reason, Time t) override {
    line() << "drop m" << msg << " r" << static_cast<int>(reason) << " @" << t;
  }
  void on_fault_event(Time t) override { line() << "fault @" << t; }
  void on_watchdog(const WatchdogReport& rep) override {
    line() << "watchdog @" << rep.cycle << " stalled=" << rep.stalled_cycles;
  }

  [[nodiscard]] std::string text() const { return os_.str(); }

 private:
  std::ostringstream& line() {
    os_ << '\n';
    return os_;
  }
  std::ostringstream os_;
};

struct RunCapture {
  SimStats stats;
  RunStatus status = RunStatus::kCompleted;
  Time cycles = 0;
  std::string events;
  std::vector<Message> messages;
  std::string stall;
  EngineTelemetry telemetry;
};

/// Runs `drive` on a fresh simulator under `engine` and captures every
/// observable.  `drive` posts traffic and calls run_until_idle itself.
RunCapture capture(const Topology& topo, SimConfig cfg, EngineKind engine,
                   const std::function<void(Simulator&)>& drive,
                   bool take_stall_report = false) {
  cfg.engine = engine;
  Simulator sim(topo, cfg);
  RecordingObserver obs;
  sim.set_observer(&obs);
  drive(sim);
  RunCapture cap;
  cap.stats = sim.stats();
  cap.status = sim.run_status();
  cap.cycles = sim.now();
  cap.events = obs.text();
  cap.messages = sim.messages().all();
  if (take_stall_report) cap.stall = sim.stall_report().to_string();
  cap.telemetry = sim.engine_telemetry();
  return cap;
}

void expect_equivalent(const RunCapture& cyc, const RunCapture& evt) {
  EXPECT_EQ(cyc.stats.cycles, evt.stats.cycles);
  EXPECT_EQ(cyc.stats.flit_hops, evt.stats.flit_hops);
  EXPECT_EQ(cyc.stats.channel_conflicts, evt.stats.channel_conflicts);
  EXPECT_EQ(cyc.stats.messages_delivered, evt.stats.messages_delivered);
  EXPECT_EQ(cyc.stats.max_inflight_flits, evt.stats.max_inflight_flits);
  EXPECT_EQ(cyc.stats.messages_dropped, evt.stats.messages_dropped);
  EXPECT_EQ(cyc.stats.messages_corrupted, evt.stats.messages_corrupted);
  EXPECT_EQ(cyc.stats.fault_events, evt.stats.fault_events);
  EXPECT_EQ(cyc.stats.undelivered, evt.stats.undelivered);
  EXPECT_EQ(cyc.stats.watchdog_fired, evt.stats.watchdog_fired);
  EXPECT_EQ(cyc.status, evt.status);
  EXPECT_EQ(cyc.cycles, evt.cycles);
  EXPECT_EQ(cyc.events, evt.events);
  EXPECT_EQ(cyc.stall, evt.stall);
  ASSERT_EQ(cyc.messages.size(), evt.messages.size());
  for (std::size_t i = 0; i < cyc.messages.size(); ++i) {
    const Message& a = cyc.messages[i];
    const Message& b = evt.messages[i];
    EXPECT_EQ(a.inject_start, b.inject_start) << "msg " << a.id;
    EXPECT_EQ(a.inject_done, b.inject_done) << "msg " << a.id;
    EXPECT_EQ(a.delivered, b.delivered) << "msg " << a.id;
    EXPECT_EQ(a.block_cycles, b.block_cycles) << "msg " << a.id;
    EXPECT_EQ(a.dropped, b.dropped) << "msg " << a.id;
    EXPECT_EQ(a.corrupted, b.corrupted) << "msg " << a.id;
  }
}

/// Runs `drive` under both engines, expects equivalence, and returns the
/// event engine's capture (for telemetry checks).
RunCapture run_both(const Topology& topo, SimConfig cfg,
                    const std::function<void(Simulator&)>& drive,
                    bool take_stall_report = false) {
  const RunCapture cyc =
      capture(topo, cfg, EngineKind::kCycle, drive, take_stall_report);
  RunCapture evt =
      capture(topo, cfg, EngineKind::kEvent, drive, take_stall_report);
  expect_equivalent(cyc, evt);
  EXPECT_EQ(cyc.telemetry.shift_windows, 0);  // kCycle never shifts
  return evt;
}

Message mk(NodeId src, NodeId dst, int flits, Time ready = 0) {
  Message m;
  m.src = src;
  m.dst = dst;
  m.flits = flits;
  m.ready_time = ready;
  return m;
}

// --- golden workloads (the PR-1/PR-3 regression scenarios) -------------

TEST(EngineEquiv, GoldenMeshOptTreeContended) {
  // Contended: heads lose arbitration mid-run, forcing the event engine
  // to materialize and replay — the hardest hand-off path.
  const auto topo = mesh::make_mesh2d(16);
  const auto p = analysis::sample_placements(5, 256, 32, 1)[0];
  run_both(*topo, SimConfig{}, [&](Simulator& sim) {
    rt::MulticastRuntime rtm(rt::RuntimeConfig{});
    rtm.run_algorithm(sim, McastAlgorithm::kOptTree, p.source, p.dests, 4096,
                      &topo->shape());
  });
}

TEST(EngineEquiv, GoldenMeshOptMeshContentionFree) {
  // Theorem-1 schedule: zero conflicts, so the event engine should stay
  // laminar end-to-end.  The golden numbers pin both engines.
  const auto topo = mesh::make_mesh2d(16);
  const auto p = analysis::sample_placements(5, 256, 32, 1)[0];
  const auto drive = [&](Simulator& sim) {
    rt::MulticastRuntime rtm(rt::RuntimeConfig{});
    rtm.run_algorithm(sim, McastAlgorithm::kOptMesh, p.source, p.dests, 4096,
                      &topo->shape());
  };
  const RunCapture cyc = capture(*topo, SimConfig{}, EngineKind::kCycle, drive);
  const RunCapture evt = capture(*topo, SimConfig{}, EngineKind::kEvent, drive);
  expect_equivalent(cyc, evt);
  EXPECT_EQ(evt.stats.cycles, 5588);
  EXPECT_EQ(evt.stats.flit_hops, 67620);
  EXPECT_EQ(evt.stats.channel_conflicts, 0);
  EXPECT_EQ(evt.stats.messages_delivered, 31);
  EXPECT_EQ(evt.stats.max_inflight_flits, 67);
  EXPECT_EQ(evt.telemetry.materializations, 0);
  EXPECT_EQ(evt.telemetry.first_reason, MaterializeReason::kNone);
}

TEST(EngineEquiv, GoldenBminAdaptiveOptTree) {
  const auto topo = bmin::make_bmin(64, bmin::UpPolicy::kAdaptive);
  const auto p = analysis::sample_placements(9, 64, 16, 1)[0];
  run_both(*topo, SimConfig{}, [&](Simulator& sim) {
    rt::MulticastRuntime rtm(rt::RuntimeConfig{});
    rtm.run_algorithm(sim, McastAlgorithm::kOptTree, p.source, p.dests, 1024);
  });
}

TEST(EngineEquiv, GoldenMeshCrossTraffic) {
  const auto topo = mesh::make_mesh2d(4);
  run_both(*topo, SimConfig{}, [](Simulator& sim) {
    for (int i = 0; i < 12; ++i) {
      if (i == 15 - i) continue;
      sim.post(mk(i, 15 - i, 24 + i, i * 3));
    }
    sim.run_until_idle();
  });
}

// --- randomized seeded sweep (deterministic regardless of --jobs) ------

void random_traffic(Simulator& sim, int nodes, int count, unsigned seed) {
  std::mt19937 rng(seed);
  std::uniform_int_distribution<int> node(0, nodes - 1);
  std::uniform_int_distribution<int> flits(1, 40);
  std::uniform_int_distribution<int> ready(0, 300);
  for (int i = 0; i < count; ++i) {
    const NodeId src = node(rng);
    NodeId dst = node(rng);
    if (dst == src) dst = (dst + 1) % nodes;
    sim.post(mk(src, dst, flits(rng), ready(rng)));
  }
  sim.run_until_idle();
}

TEST(EngineEquiv, RandomSweepMesh8) {
  const auto topo = mesh::make_mesh2d(8);
  for (unsigned seed = 1; seed <= 5; ++seed) {
    SCOPED_TRACE(seed);
    run_both(*topo, SimConfig{}, [seed](Simulator& sim) {
      random_traffic(sim, 64, 48, seed);
    });
  }
}

TEST(EngineEquiv, RandomSweepBminAdaptive) {
  const auto topo = bmin::make_bmin(64, bmin::UpPolicy::kAdaptive);
  for (unsigned seed = 11; seed <= 14; ++seed) {
    SCOPED_TRACE(seed);
    run_both(*topo, SimConfig{}, [seed](Simulator& sim) {
      random_traffic(sim, 64, 48, seed);
    });
  }
}

TEST(EngineEquiv, RandomSweepDeepRouterDelay) {
  // router_delay > 1 stretches residency windows and the laminar closed
  // forms; fifo_capacity is auto-raised to delay + 1.
  const auto topo = mesh::make_mesh2d(8);
  SimConfig cfg;
  cfg.router_delay = 3;
  for (unsigned seed = 21; seed <= 23; ++seed) {
    SCOPED_TRACE(seed);
    run_both(*topo, cfg, [seed](Simulator& sim) {
      random_traffic(sim, 64, 32, seed);
    });
  }
}

TEST(EngineEquiv, SingleFlitMessages) {
  // F == 1: grant, release, delivery, and inject-done can all land on one
  // cycle — the same-cycle calendar drain paths.
  const auto topo = mesh::make_mesh2d(8);
  run_both(*topo, SimConfig{}, [](Simulator& sim) {
    for (int i = 0; i < 30; ++i) sim.post(mk(i, 63 - i, 1, i % 7));
    sim.run_until_idle();
  });
}

TEST(EngineEquiv, BackToBackFromOneSource) {
  // Serialized sends from a single NI: the second worm chases the first
  // through the same channels one release behind (shared-FIFO case).
  const auto topo = mesh::make_mesh2d(8);
  run_both(*topo, SimConfig{}, [](Simulator& sim) {
    for (int i = 0; i < 6; ++i) sim.post(mk(0, 63, 16, 0));
    sim.run_until_idle();
  });
}

// --- fault plans fall back to the reference engine ---------------------

TEST(EngineEquiv, FaultPlanFallsBackIdentically) {
  const auto topo = mesh::make_mesh2d(4);
  FaultPlan plan;
  plan.link_events.push_back(FaultPlan::LinkEvent{20, 5, 1, false});
  plan.node_events.push_back(FaultPlan::NodeEvent{40, 13});
  run_both(*topo, SimConfig{}, [&](Simulator& sim) {
    sim.set_fault_plan(plan);
    for (int i = 0; i < 12; ++i) {
      if (i == 15 - i) continue;
      sim.post(mk(i, 15 - i, 24 + i, i * 3));
    }
    sim.run_until_idle();
  });
}

// --- truncation, resume, forensic snapshots ----------------------------

TEST(EngineEquiv, TruncationMidFlightAndResume) {
  const auto topo = mesh::make_mesh2d(4);
  const RunCapture evt = run_both(
      *topo, SimConfig{},
      [](Simulator& sim) {
        sim.post(mk(0, 15, 1000));
        sim.post(mk(5, 10, 400, 10));
        sim.run_until_idle(50);
        EXPECT_EQ(sim.run_status(), RunStatus::kTruncated);
        sim.run_until_idle();  // resume to completion
        EXPECT_EQ(sim.run_status(), RunStatus::kCompleted);
      },
      /*take_stall_report=*/true);
  EXPECT_EQ(evt.telemetry.first_materialization, 50);
  EXPECT_EQ(evt.telemetry.first_reason, MaterializeReason::kTruncation);
}

TEST(EngineEquiv, StallReportMidFlight) {
  // stall_report() while worms are event-resident must materialize and
  // show the same channel occupancy the cycle engine would.
  const auto topo = mesh::make_mesh2d(4);
  run_both(
      *topo, SimConfig{},
      [](Simulator& sim) {
        sim.post(mk(0, 15, 1000));
        sim.run_until_idle(60);
      },
      /*take_stall_report=*/true);
}

TEST(EngineEquiv, MultipleRunsReuseTheCalendar) {
  const auto topo = mesh::make_mesh2d(8);
  run_both(*topo, SimConfig{}, [](Simulator& sim) {
    sim.post(mk(0, 63, 32));
    sim.run_until_idle();
    sim.post(mk(63, 0, 32, sim.now() + 5));
    sim.post(mk(9, 54, 8, sim.now() + 5));
    sim.run_until_idle();
  });
}

TEST(EngineEquiv, DeliveryHandlersPostFollowUps) {
  // Handler-driven traffic (the runtime's pattern): follow-up posts made
  // from delivery callbacks enter the calendar after the commit point.
  const auto topo = mesh::make_mesh2d(8);
  run_both(*topo, SimConfig{}, [](Simulator& sim) {
    int hops = 0;
    sim.set_delivery_handler([&](const Message& m) {
      if (hops >= 5) return;
      ++hops;
      sim.post(mk(m.dst, (m.dst + 17) % 64, 12, sim.now() + 3));
    });
    sim.post(mk(0, 21, 12));
    sim.run_until_idle();
  });
}

// --- pure-shift windows: contended flow after materialization ----------

/// Long worms from random sources: heads block, bodies freeze, and the
/// winners stream for hundreds of cycles — the window-rich regime.
void long_traffic(Simulator& sim, int nodes, int count, unsigned seed) {
  std::mt19937 rng(seed);
  std::uniform_int_distribution<int> node(0, nodes - 1);
  std::uniform_int_distribution<int> flits(64, 600);
  std::uniform_int_distribution<int> ready(0, 400);
  for (int i = 0; i < count; ++i) {
    const NodeId src = node(rng);
    NodeId dst = node(rng);
    if (dst == src) dst = (dst + 1) % nodes;
    sim.post(mk(src, dst, flits(rng), ready(rng)));
  }
  sim.run_until_idle();
}

TEST(EngineEquivShift, MeshOptTree64KMostlyShifted) {
  // The paper's contended case: OPT-Tree on the 16x16 mesh at 64 KB,
  // on a placement whose first conflict comes early.  After the first
  // blocked head the run is stepped, yet most of its cycles — and nearly
  // all of the post-materialization span — are pure-shift windows.
  const auto topo = mesh::make_mesh2d(16);
  const auto p = analysis::sample_placements(37, 256, 32, 1)[0];
  const RunCapture evt = run_both(*topo, SimConfig{}, [&](Simulator& sim) {
    rt::MulticastRuntime rtm(rt::RuntimeConfig{});
    rtm.run_algorithm(sim, McastAlgorithm::kOptTree, p.source, p.dests, 65536,
                      &topo->shape());
  });
  EXPECT_GT(evt.stats.channel_conflicts, 0);
  EXPECT_EQ(evt.telemetry.materializations, 1);
  EXPECT_GT(evt.telemetry.first_materialization, 0);
  EXPECT_EQ(evt.telemetry.first_reason, MaterializeReason::kContention);
  EXPECT_GT(evt.telemetry.event_cycles, 0);
  EXPECT_GT(evt.telemetry.shift_windows, 0);
  EXPECT_GT(2 * evt.telemetry.shifted_cycles, evt.stats.cycles);
  EXPECT_GT(10 * evt.telemetry.shifted_cycles,
            9 * (evt.stats.cycles - evt.telemetry.first_materialization));
}

TEST(EngineEquivShift, BminOptTree64KMostlyShifted) {
  const auto topo = bmin::make_bmin(128, bmin::UpPolicy::kSourceAddress);
  const auto p = analysis::sample_placements(1, 128, 32, 1)[0];
  const RunCapture evt = run_both(*topo, SimConfig{}, [&](Simulator& sim) {
    rt::MulticastRuntime rtm(rt::RuntimeConfig{});
    rtm.run_algorithm(sim, McastAlgorithm::kOptTree, p.source, p.dests,
                      65536);
  });
  EXPECT_GT(evt.stats.channel_conflicts, 0);
  EXPECT_EQ(evt.telemetry.materializations, 1);
  EXPECT_GT(2 * evt.telemetry.shifted_cycles, evt.stats.cycles);
}

TEST(EngineEquivShift, DeepRouterDelayBothFifoDepths) {
  // R = 3: streaming FIFOs hold m >= R flits; at the minimum depth R + 1
  // frozen bodies are one flit denser than streaming ones, at depth 8 a
  // restarted body streams with m up to 8.
  const auto topo = mesh::make_mesh2d(8);
  for (const int depth : {4, 8}) {
    SimConfig cfg;
    cfg.router_delay = 3;
    cfg.fifo_capacity = depth;
    for (unsigned seed = 31; seed <= 33; ++seed) {
      SCOPED_TRACE(testing::Message() << "depth " << depth << " seed " << seed);
      const RunCapture evt = run_both(*topo, cfg, [seed](Simulator& sim) {
        long_traffic(sim, 64, 24, seed);
      });
      EXPECT_GT(evt.stats.channel_conflicts, 0);
      EXPECT_GT(evt.telemetry.shift_windows, 0);
    }
  }
}

TEST(EngineEquivShift, TwoPortNis) {
  // Two injection engines per node stream (or stall) independently.
  const mesh::MeshTopology topo(MeshShape::square2d(8),
                                mesh::RouteOrder::kHighestFirst, 2);
  for (unsigned seed = 41; seed <= 43; ++seed) {
    SCOPED_TRACE(seed);
    const RunCapture evt = run_both(topo, SimConfig{}, [seed](Simulator& sim) {
      std::mt19937 rng(seed);
      std::uniform_int_distribution<int> node(0, 63);
      std::uniform_int_distribution<int> flits(100, 500);
      for (int i = 0; i < 12; ++i) {
        const NodeId src = node(rng) % 8;  // few sources: both engines busy
        NodeId dst = node(rng);
        if (dst == src) dst = (dst + 9) % 64;
        sim.post(mk(src, dst, flits(rng), 0));
      }
      sim.run_until_idle();
    });
    EXPECT_GT(evt.telemetry.shift_windows, 0);
  }
}

TEST(EngineEquivShift, HandlerPostsLandInsideWindows) {
  // Two long worms contend through node 18's row while short messages
  // ping-pong; every delivery posts a follow-up a few cycles out, which
  // must cut the surrounding shift window exactly at its ready time.
  const auto topo = mesh::make_mesh2d(8);
  const RunCapture evt = run_both(*topo, SimConfig{}, [](Simulator& sim) {
    int follow_ups = 0;
    sim.set_delivery_handler([&](const Message& m) {
      if (m.flits != 6 || follow_ups >= 40) return;
      ++follow_ups;
      sim.post(mk(m.dst, m.src, 6, sim.now() + 37 + follow_ups % 5));
    });
    sim.post(mk(16, 23, 3000));
    sim.post(mk(17, 22, 3000, 2));
    sim.post(mk(56, 63, 6, 5));
    sim.run_until_idle();
  });
  EXPECT_GT(evt.stats.channel_conflicts, 0);
  EXPECT_GT(evt.telemetry.shift_windows, 10);
}

/// Two worms contending for one row: the second blocks behind the first
/// for ~2000 cycles, a long window-rich stretch.
void contended_pair(Simulator& sim) {
  sim.post(mk(16, 23, 2000));
  sim.post(mk(17, 22, 2000, 2));
}

TEST(EngineEquivShift, TruncateInsideWindowThenResume) {
  const auto topo = mesh::make_mesh2d(8);
  for (const Time cut : {700, 1501, 2333}) {
    SCOPED_TRACE(cut);
    const RunCapture evt = run_both(
        *topo, SimConfig{},
        [cut](Simulator& sim) {
          contended_pair(sim);
          EXPECT_EQ(sim.run_until_idle(cut), cut);
          EXPECT_EQ(sim.run_status(), RunStatus::kTruncated);
          sim.run_until_idle();
          EXPECT_EQ(sim.run_status(), RunStatus::kCompleted);
        },
        /*take_stall_report=*/true);
    EXPECT_GT(evt.telemetry.shift_windows, 0);
  }
}

TEST(EngineEquivShift, StallReportMidWindow) {
  // stall_report() between runs that stop inside shift windows must show
  // exactly the cycle engine's FIFOs, reservations and block counts.
  const auto topo = mesh::make_mesh2d(8);
  std::string reports[2];
  for (const EngineKind engine : {EngineKind::kCycle, EngineKind::kEvent}) {
    SimConfig cfg;
    cfg.engine = engine;
    Simulator sim(*topo, cfg);
    contended_pair(sim);
    std::string& out = reports[engine == EngineKind::kCycle ? 0 : 1];
    for (const Time cut : {900, 1200, 1777}) {
      sim.run_until_idle(cut);
      out += sim.stall_report(cut).to_string();
    }
    sim.run_until_idle();
    out += sim.stall_report().to_string();
    if (engine == EngineKind::kEvent) {
      EXPECT_GT(sim.engine_telemetry().shifted_cycles, 1000);
    }
  }
  EXPECT_EQ(reports[0], reports[1]);
}

// --- watchdog: the deadlocked-ring regression (satellite fix) ----------

// Two routers in a ring; traffic circulates and never ejects, so a long
// message wedges on its own wormhole reservation.
class RingTopology final : public Topology {
 public:
  [[nodiscard]] int num_routers() const override { return 2; }
  [[nodiscard]] int radix() const override { return 2; }
  [[nodiscard]] int num_nodes() const override { return 2; }
  [[nodiscard]] PortRef link(int router, int out_port) const override {
    if (out_port != 0) return {};
    return PortRef{1 - router, 0};
  }
  [[nodiscard]] PortRef node_attach(NodeId n) const override {
    return PortRef{static_cast<int>(n), 1};
  }
  [[nodiscard]] NodeId ejector(int, int) const override { return kInvalidNode; }
  void route(int, int, NodeId, NodeId, std::vector<int>& c) const override {
    c.push_back(0);
  }
};

TEST(EngineEquiv, WatchdogRingWedgeIdenticalUnderBothEngines) {
  // The watchdog must count *stalled* cycles, not fast-forwarded spans:
  // the event engine materializes at the self-block and the replayed
  // cycle engine accumulates the identical stall count, so the thrown
  // report matches verbatim (cycle, stalled count, occupancy dump).
  RingTopology topo;
  SimConfig cfg;
  cfg.fifo_capacity = 2;
  cfg.watchdog_cycles = 200;
  std::string what_by_engine[2];
  Time report_cycle[2] = {0, 0};
  Time report_stalled[2] = {0, 0};
  SimStats stats_by_engine[2];
  for (const EngineKind engine : {EngineKind::kCycle, EngineKind::kEvent}) {
    cfg.engine = engine;
    Simulator sim(topo, cfg);
    sim.post(mk(0, 1, 32));
    const int idx = engine == EngineKind::kCycle ? 0 : 1;
    try {
      sim.run_until_idle();
      FAIL() << "expected watchdog to fire";
    } catch (const WatchdogError& e) {
      what_by_engine[idx] = e.what();
      report_cycle[idx] = e.report().cycle;
      report_stalled[idx] = e.report().stalled_cycles;
    }
    stats_by_engine[idx] = sim.stats();
  }
  EXPECT_EQ(what_by_engine[0], what_by_engine[1]);
  EXPECT_EQ(report_cycle[0], report_cycle[1]);
  EXPECT_EQ(report_stalled[0], report_stalled[1]);
  EXPECT_EQ(stats_by_engine[0].cycles, stats_by_engine[1].cycles);
  EXPECT_TRUE(stats_by_engine[1].watchdog_fired);
}

TEST(EngineEquivShift, WatchdogRingWedgeSameCycleSameReport) {
  // The wedged ring is fully frozen: after materialization every cycle is
  // a progress-free shift, so windows run straight up to the watchdog
  // budget and the reference step() fires it on the same cycle with the
  // same report and the same per-cycle on_blocked stream.
  RingTopology topo;
  SimConfig cfg;
  cfg.fifo_capacity = 2;
  cfg.watchdog_cycles = 5000;
  std::string what[2];
  std::string events[2];
  SimStats stats[2];
  EngineTelemetry tel;
  for (const EngineKind engine : {EngineKind::kCycle, EngineKind::kEvent}) {
    cfg.engine = engine;
    Simulator sim(topo, cfg);
    RecordingObserver obs;
    sim.set_observer(&obs);
    sim.post(mk(0, 1, 32));
    const int idx = engine == EngineKind::kCycle ? 0 : 1;
    try {
      sim.run_until_idle();
      ADD_FAILURE() << "expected watchdog to fire";
    } catch (const WatchdogError& e) {
      what[idx] = e.what();
    }
    events[idx] = obs.text();
    stats[idx] = sim.stats();
    if (engine == EngineKind::kEvent) tel = sim.engine_telemetry();
  }
  EXPECT_EQ(what[0], what[1]);
  EXPECT_EQ(events[0], events[1]);
  EXPECT_EQ(stats[0].cycles, stats[1].cycles);
  EXPECT_EQ(stats[0].channel_conflicts, stats[1].channel_conflicts);
  EXPECT_TRUE(stats[1].watchdog_fired);
  EXPECT_GT(tel.shifted_cycles, 4000);
  // The worm blocks on its own reservation: a contention hand-off.
  EXPECT_EQ(tel.first_reason, MaterializeReason::kContention);
}

// One router, two nodes, no links: every head is either sent to unwired
// port 0 or offered no route at all.  Both engines throw the same error;
// the event engine first hands the exact microstate to step().
class MisroutingTopology final : public Topology {
 public:
  explicit MisroutingTopology(bool offer_route) : offer_route_(offer_route) {}
  [[nodiscard]] int num_routers() const override { return 1; }
  [[nodiscard]] int radix() const override { return 2; }
  [[nodiscard]] int num_nodes() const override { return 2; }
  [[nodiscard]] PortRef link(int, int) const override { return {}; }
  [[nodiscard]] PortRef node_attach(NodeId n) const override {
    return PortRef{0, static_cast<int>(n)};
  }
  [[nodiscard]] NodeId ejector(int, int) const override { return kInvalidNode; }
  void route(int, int, NodeId, NodeId, std::vector<int>& c) const override {
    if (offer_route_) c.push_back(0);
  }

 private:
  bool offer_route_;
};

TEST(EngineEquiv, RoutingErrorsMaterializeWithTheirReason) {
  for (const bool offer_route : {true, false}) {
    MisroutingTopology topo(offer_route);
    std::string what[2];
    EngineTelemetry tel;
    for (const EngineKind engine : {EngineKind::kCycle, EngineKind::kEvent}) {
      SimConfig cfg;
      cfg.engine = engine;
      Simulator sim(topo, cfg);
      sim.post(mk(0, 1, 2));
      try {
        sim.run_until_idle();
        ADD_FAILURE() << "expected a routing error";
      } catch (const std::logic_error& e) {
        what[engine == EngineKind::kCycle ? 0 : 1] = e.what();
      }
      if (engine == EngineKind::kEvent) tel = sim.engine_telemetry();
    }
    EXPECT_EQ(what[0], what[1]);
    EXPECT_EQ(tel.materializations, 1);
    EXPECT_EQ(tel.first_reason, MaterializeReason::kRouting);
  }
}

}  // namespace
}  // namespace pcm::sim
