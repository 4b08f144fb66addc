// Tests for the flight recorder (src/obs): ring semantics, serialization
// round-trips, metric derivation, the channel events as wormhole ground
// truth (reserve/release/blocked against routing paths and SimStats), and
// the end-to-end determinism contracts the subsystem exists to enforce —
// byte-identical traces at any --jobs value, cycle-vs-event equality
// modulo the fast-forwarded flag, and zero behavioural change when
// tracing is off.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/sampling.hpp"
#include "bmin/bmin_topology.hpp"
#include "cli/options.hpp"
#include "mesh/mesh_topology.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "obs/recorder.hpp"
#include "runtime/mcast_runtime.hpp"
#include "verify/invariant_auditor.hpp"
#include "logged_run.hpp"

namespace pcm::obs {
namespace {

using test_log::events_of;

TraceEvent make_event(EventKind k, Time cycle, std::int32_t a = 0,
                      std::int32_t b = 0, std::int32_t c = 0,
                      std::int32_t d = 0) {
  TraceEvent ev;
  ev.cycle = cycle;
  ev.kind = static_cast<std::uint16_t>(k);
  ev.a = a;
  ev.b = b;
  ev.c = c;
  ev.d = d;
  return ev;
}

// --- ring buffer ----------------------------------------------------------

TEST(Recorder, RingKeepsNewestAndCountsDrops) {
  FlightRecorder rec(RecorderConfig{4});
  for (int i = 0; i < 7; ++i)
    rec.record(EventKind::kPost, i, i);
  EXPECT_EQ(rec.events_recorded(), 7u);
  EXPECT_EQ(rec.events_dropped(), 3u);
  const std::vector<TraceEvent> evs = rec.snapshot();
  ASSERT_EQ(evs.size(), 4u);
  // Oldest-first: records 3..6 survive the wrap.
  for (int i = 0; i < 4; ++i) EXPECT_EQ(evs[static_cast<std::size_t>(i)].a, i + 3);
}

TEST(Recorder, AppendMergesOldestFirstAndPropagatesDrops) {
  FlightRecorder master(RecorderConfig{16});
  FlightRecorder run(RecorderConfig{2});
  for (int i = 0; i < 5; ++i) run.record(EventKind::kDeliver, i, i);
  master.record(EventKind::kRunBegin, 0, 0);
  master.append(run);
  const std::vector<TraceEvent> evs = master.snapshot();
  ASSERT_EQ(evs.size(), 3u);
  EXPECT_EQ(evs[0].event_kind(), EventKind::kRunBegin);
  EXPECT_EQ(evs[1].a, 3);
  EXPECT_EQ(evs[2].a, 4);
  // The master's dropped count reports the whole merged history.
  EXPECT_EQ(master.events_dropped(), run.events_dropped());
}

// --- binary round-trip ----------------------------------------------------

TEST(Export, BinaryRoundTripIsExact) {
  std::vector<TraceEvent> evs = {
      make_event(EventKind::kRunBegin, 0, 7, 2),
      make_event(EventKind::kReserve, 10, 3, 1, 42),
      make_event(EventKind::kRelease, 266, 3, 1, 42, 256),
  };
  evs.back().flags = kFastForwarded;
  std::stringstream ss;
  write_binary_trace(ss, evs, 9);
  const TraceFile tf = read_binary_trace(ss);
  EXPECT_EQ(tf.dropped, 9u);
  ASSERT_EQ(tf.events.size(), evs.size());
  for (std::size_t i = 0; i < evs.size(); ++i) EXPECT_EQ(tf.events[i], evs[i]);
}

TEST(Export, BinaryRejectsBadMagicAndTruncation) {
  std::stringstream bad("NOTATRACE........");
  EXPECT_THROW((void)read_binary_trace(bad), std::runtime_error);
  std::stringstream ss;
  write_binary_trace(ss, std::vector<TraceEvent>{make_event(EventKind::kPost, 1)},
                     0);
  std::string payload = ss.str();
  payload.resize(payload.size() - 5);  // cut into the record
  std::stringstream cut(payload);
  EXPECT_THROW((void)read_binary_trace(cut), std::runtime_error);
}

// --- diffing (the pcmtrace diff engine) -----------------------------------

TEST(Diff, IdenticalMaskedAndDivergent) {
  std::vector<TraceEvent> a = {make_event(EventKind::kReserve, 5, 1, 2, 3),
                               make_event(EventKind::kRelease, 9, 1, 2, 3, 4)};
  std::vector<TraceEvent> b = a;
  EXPECT_TRUE(diff_traces(a, b, false).identical);

  // The ff flag is the one sanctioned cycle-vs-event difference: strict
  // diff flags it, masked diff does not.
  b[1].flags = kFastForwarded;
  EXPECT_FALSE(diff_traces(a, b, false).identical);
  EXPECT_EQ(diff_traces(a, b, false).first_divergence, 1u);
  EXPECT_TRUE(diff_traces(a, b, true).identical);

  // Any payload difference survives the mask.
  b[1].d = 5;
  EXPECT_FALSE(diff_traces(a, b, true).identical);

  // Length mismatches diverge at the shorter length.
  b = a;
  b.pop_back();
  const TraceDiff d = diff_traces(a, b, false);
  EXPECT_FALSE(d.identical);
  EXPECT_EQ(d.first_divergence, 1u);
}

// --- metrics --------------------------------------------------------------

TEST(Metrics, RegistryIsDeterministicAndTyped) {
  MetricsRegistry reg;
  reg.count("b.counter", 2);
  reg.gauge("a.gauge", 1.5);
  reg.count("b.counter", 3);
  reg.observe("hist", 10, 4.0);
  reg.observe("hist", 10, 14.0);
  const std::vector<MetricSample> rows = reg.snapshot();
  // First-use order, not alphabetical: counters before the gauge here.
  ASSERT_GE(rows.size(), 4u);
  EXPECT_EQ(rows[0].name, "b.counter");
  EXPECT_EQ(rows[0].value, "5");
  EXPECT_EQ(rows[1].name, "a.gauge");
  // Re-registering a name under a different kind is a bug, not a merge.
  EXPECT_THROW(reg.gauge("b.counter", 1.0), std::logic_error);
}

TEST(Metrics, PopulateDerivesSpansAndRates) {
  std::vector<TraceEvent> evs = {
      make_event(EventKind::kRunBegin, 0),
      make_event(EventKind::kReserve, 10, 1, 0, 5),
      make_event(EventKind::kRelease, 26, 1, 0, 5, 16),
      make_event(EventKind::kSendAttempt, 12, 0, 0, 1, -1),
      make_event(EventKind::kSendAttempt, 40, 0, 1, 1, -1),
  };
  evs[2].flags = kFastForwarded;
  MetricsRegistry reg;
  populate_metrics(evs, reg);
  const std::vector<MetricSample> rows = reg.snapshot();
  auto value_of = [&](const std::string& name) -> std::string {
    for (const MetricSample& s : rows)
      if (s.name == name) return s.value;
    return "<missing>";
  };
  EXPECT_EQ(value_of("events.reserve"), "1");
  EXPECT_EQ(value_of("spans.fast_forwarded"), "1");
  EXPECT_EQ(value_of("hist.span_cycles.count"), "1");
  EXPECT_EQ(value_of("hist.retry_depth.count"), "2");
  // One retry (attempt index 1) lands in the [1,2) bucket.
  EXPECT_EQ(value_of("hist.retry_depth[1,2)"), "1");
}

// --- channel events: the wormhole ground truth -----------------------------

sim::Message mk(NodeId src, NodeId dst, int flits, Time ready = 0) {
  sim::Message m;
  m.src = src;
  m.dst = dst;
  m.flits = flits;
  m.ready_time = ready;
  return m;
}

/// Every reserve lies on its own message's deterministic path, so a worm
/// routed over another path of the same length still fails.
void expect_reserves_on_paths(const sim::Topology& topo, const sim::Simulator& sim,
                              const std::vector<TraceEvent>& evs) {
  for (const TraceEvent& ev : events_of(evs, EventKind::kReserve)) {
    const sim::Message& m = sim.messages().at(ev.c);
    const std::vector<sim::ChannelId> path = sim::trace_path(topo, m.src, m.dst);
    EXPECT_NE(std::find(path.begin(), path.end(), topo.channel_id(ev.a, ev.b)),
              path.end())
        << "msg " << ev.c << " held off-path channel "
        << topo.channel_name(ev.a, ev.b);
  }
}

TEST(Trace, SingleMessageHoldsExactlyItsPath) {
  const auto topo = mesh::make_mesh2d(4);
  sim::Simulator sim(*topo);
  FlightRecorder rec;
  sim.set_observer(&rec);
  sim.post(mk(0, 15, 8));
  sim.run_until_idle();
  const std::vector<TraceEvent> evs = rec.snapshot();
  const std::vector<TraceEvent> reserves = events_of(evs, EventKind::kReserve);
  const auto path = sim::trace_path(*topo, 0, 15);
  // Each path channel reserved exactly once, in path order, at strictly
  // increasing cycles; every hold is released.
  ASSERT_EQ(reserves.size(), path.size());
  for (std::size_t i = 0; i < path.size(); ++i)
    EXPECT_EQ(topo->channel_id(reserves[i].a, reserves[i].b), path[i]) << "hop " << i;
  for (std::size_t i = 1; i < reserves.size(); ++i)
    EXPECT_GT(reserves[i].cycle, reserves[i - 1].cycle);
  EXPECT_EQ(events_of(evs, EventKind::kRelease).size(), path.size());
  EXPECT_TRUE(events_of(evs, EventKind::kBlocked).empty());
}

TEST(Trace, HoldDurationCoversSerialization) {
  const auto topo = mesh::make_mesh2d(4);
  sim::Simulator sim(*topo);
  FlightRecorder rec;
  sim.set_observer(&rec);
  const int flits = 32;
  sim.post(mk(0, 3, flits));
  sim.run_until_idle();
  const std::vector<TraceEvent> releases = events_of(rec.snapshot(), EventKind::kRelease);
  ASSERT_FALSE(releases.empty());
  for (const TraceEvent& ev : releases) EXPECT_GE(ev.d, flits - 1);
}

TEST(Trace, BlockedHeadsAreRecorded) {
  const auto topo = mesh::make_mesh2d(4);
  const MeshShape& s = topo->shape();
  sim::Simulator sim(*topo);
  verify::InvariantAuditor auditor(*topo);
  FlightRecorder rec;
  rec.chain(&auditor);
  sim.set_observer(&rec);
  // Same contended pair as the simulator test: shared d1+ column channels.
  sim.post(mk(s.node_at({0, 0}), s.node_at({0, 3}), 32));
  sim.post(mk(s.node_at({0, 1}), s.node_at({1, 3}), 32));
  sim.run_until_idle();
  const std::vector<TraceEvent> evs = rec.snapshot();
  const std::vector<TraceEvent> blocked = events_of(evs, EventKind::kBlocked);
  EXPECT_FALSE(blocked.empty());
  EXPECT_EQ(static_cast<long long>(blocked.size()), sim.stats().channel_conflicts);
  EXPECT_NO_THROW(auditor.finalize(sim));  // holds still serial
  expect_reserves_on_paths(*topo, sim, evs);
}

TEST(Trace, TunedMulticastHasSerialHoldsAndNoBlocks) {
  const auto topo = mesh::make_mesh2d(16);
  rt::MulticastRuntime rtm(rt::RuntimeConfig{});
  const auto placements = analysis::sample_placements(11, 256, 32, 3);
  for (const auto& p : placements) {
    sim::Simulator sim(*topo);
    verify::AuditConfig strict;
    strict.require_contention_free = true;
    verify::InvariantAuditor auditor(*topo, strict);
    FlightRecorder rec;
    rec.chain(&auditor);
    sim.set_observer(&rec);
    rtm.run_algorithm(sim, McastAlgorithm::kOptMesh, p.source, p.dests, 4096,
                      &topo->shape());
    EXPECT_NO_THROW(auditor.finalize(sim));
    const std::vector<TraceEvent> evs = rec.snapshot();
    EXPECT_TRUE(events_of(evs, EventKind::kBlocked).empty());
    expect_reserves_on_paths(*topo, sim, evs);
    // 31 messages, each holding path-length channels exactly once.
    std::size_t expected = 0;
    for (const auto& m : sim.messages().all())
      expected += sim::trace_path(*topo, m.src, m.dst).size();
    EXPECT_EQ(events_of(evs, EventKind::kReserve).size(), expected);
    EXPECT_EQ(events_of(evs, EventKind::kRelease).size(), expected);
  }
}

TEST(Trace, BminAdaptivePathsSkipPathCheck) {
  // Adaptive routing may diverge from the first-candidate path, so only
  // the serial-reuse invariant is checked: the auditor's channel
  // exclusivity over the same hooks the recorder logs.
  const auto topo = bmin::make_bmin(32, bmin::UpPolicy::kAdaptive);
  sim::Simulator sim(*topo);
  verify::InvariantAuditor auditor(*topo);
  FlightRecorder rec;
  rec.chain(&auditor);
  sim.set_observer(&rec);
  sim.post(mk(0, 31, 16));
  sim.post(mk(1, 30, 16));
  sim.run_until_idle();
  EXPECT_NO_THROW(auditor.finalize(sim));
  const std::vector<TraceEvent> evs = rec.snapshot();
  EXPECT_EQ(events_of(evs, EventKind::kReserve).size(),
            events_of(evs, EventKind::kRelease).size());
}

// --- end-to-end determinism contracts -------------------------------------

struct TempPath {
  explicit TempPath(const std::string& stem)
      : path((std::filesystem::temp_directory_path() /
              ("pcm_obs_" + stem + ".pcmt"))
                 .string()) {}
  ~TempPath() { std::remove(path.c_str()); }
  std::string path;
};

cli::CliOptions fig2_options() {
  cli::CliOptions opt;
  opt.topology = "mesh:8";
  opt.algorithm = "opt-mesh";
  opt.nodes = 16;
  opt.reps = 2;
  return opt;
}

TraceFile run_traced(cli::CliOptions opt, const std::string& path,
                     std::string* stdout_text = nullptr) {
  opt.trace = path;
  std::ostringstream os, err;
  EXPECT_EQ(cli::run_cli(opt, os, err), 0);
  if (stdout_text != nullptr) *stdout_text = os.str();
  std::ifstream f(path, std::ios::binary);
  EXPECT_TRUE(f.good());
  return read_binary_trace(f);
}

TEST(TraceDeterminism, GoldenFig2Shape) {
  TempPath tmp("golden");
  const TraceFile tf = run_traced(fig2_options(), tmp.path);
  EXPECT_EQ(tf.dropped, 0u);
  ASSERT_FALSE(tf.events.empty());
  // Two placements = two run markers, in placement order.
  std::size_t runs = 0, reserves = 0, releases = 0, posts = 0, delivers = 0;
  for (const TraceEvent& ev : tf.events) {
    switch (ev.event_kind()) {
      case EventKind::kRunBegin:
        EXPECT_EQ(ev.a, static_cast<std::int32_t>(runs));
        ++runs;
        break;
      case EventKind::kReserve: ++reserves; break;
      case EventKind::kRelease: ++releases; break;
      case EventKind::kPost: ++posts; break;
      case EventKind::kDeliver: ++delivers; break;
      default: break;
    }
  }
  EXPECT_EQ(runs, 2u);
  EXPECT_EQ(reserves, releases);       // every span closes
  EXPECT_EQ(posts, delivers);          // fault-free: every message lands
  EXPECT_EQ(posts, 2u * 15u);          // k=16 multicast = 15 sends per run
  // Re-running the identical workload reproduces the trace byte-for-byte.
  TempPath tmp2("golden2");
  const TraceFile again = run_traced(fig2_options(), tmp2.path);
  EXPECT_TRUE(diff_traces(tf.events, again.events, false).identical);
}

TEST(TraceDeterminism, JobsFanOutIsByteIdentical) {
  cli::CliOptions opt = fig2_options();
  opt.reps = 4;
  TempPath t1("jobs1"), t4("jobs4");
  opt.jobs = 1;
  const TraceFile a = run_traced(opt, t1.path);
  opt.jobs = 4;
  const TraceFile b = run_traced(opt, t4.path);
  const TraceDiff d = diff_traces(a.events, b.events, false);
  EXPECT_TRUE(d.identical) << d.detail;
}

TEST(TraceDeterminism, CycleVsEventEqualModuloFastForward) {
  cli::CliOptions opt = fig2_options();
  TempPath tc("cycle"), te("event");
  opt.engine = sim::EngineKind::kCycle;
  const TraceFile cycle = run_traced(opt, tc.path);
  opt.engine = sim::EngineKind::kEvent;
  const TraceFile event = run_traced(opt, te.path);

  // Masked: identical timestamps, payloads, and order.
  const TraceDiff masked = diff_traces(cycle.events, event.events, true);
  EXPECT_TRUE(masked.identical) << masked.detail;

  // The cycle engine only jumps a quiescent network, so it never flags;
  // the event engine fast-forwards laminar flow and must flag spans.
  std::size_t cycle_ff = 0, event_ff = 0;
  for (const TraceEvent& ev : cycle.events)
    cycle_ff += (ev.flags & kFastForwarded) != 0 ? 1u : 0u;
  for (const TraceEvent& ev : event.events)
    event_ff += (ev.flags & kFastForwarded) != 0 ? 1u : 0u;
  EXPECT_EQ(cycle_ff, 0u);
  EXPECT_GT(event_ff, 0u);
  EXPECT_FALSE(diff_traces(cycle.events, event.events, false).identical);
}

TEST(TraceDeterminism, TracingDoesNotPerturbResults) {
  const cli::CliOptions opt = fig2_options();
  std::ostringstream plain, err;
  ASSERT_EQ(cli::run_cli(opt, plain, err), 0);

  TempPath tmp("onoff");
  std::string traced_out;
  (void)run_traced(opt, tmp.path, &traced_out);
  // Identical stdout except the trailing "trace:" status line.
  const std::size_t cut = traced_out.find("trace:   ");
  ASSERT_NE(cut, std::string::npos);
  EXPECT_EQ(traced_out.substr(0, cut), plain.str());
}

TEST(TraceDeterminism, StreamTraceRecordsSlotLifecycle) {
  cli::CliOptions opt;
  opt.topology = "mesh:8";
  opt.algorithm = "opt-mesh";
  opt.source = 0;
  opt.dests = "1,2,3,9,10,11";
  opt.stream = 8;
  TempPath tmp("stream");
  opt.trace = tmp.path;
  std::ostringstream os, err;
  ASSERT_EQ(cli::run_cli(opt, os, err), 0);
  std::ifstream f(tmp.path, std::ios::binary);
  const TraceFile tf = read_binary_trace(f);
  std::size_t injects = 0, commits = 0;
  for (const TraceEvent& ev : tf.events) {
    if (ev.event_kind() == EventKind::kSlotInject) ++injects;
    if (ev.event_kind() == EventKind::kSlotCommit) ++commits;
  }
  EXPECT_EQ(injects, 8u);
  EXPECT_EQ(commits, 8u);
}

}  // namespace
}  // namespace pcm::obs
