#include "workloads.hpp"

#include <algorithm>
#include <cstring>
#include <optional>
#include <stdexcept>
#include <type_traits>

#include "analysis/rng.hpp"
#include "analysis/sampling.hpp"
#include "bmin/bmin_topology.hpp"
#include "core/algorithms.hpp"
#include "core/opt_tree.hpp"
#include "harness/substream.hpp"
#include "lint/lint.hpp"
#include "mesh/mesh_topology.hpp"
#include "obs/recorder.hpp"
#include "runtime/mcast_runtime.hpp"
#include "runtime/stream_runtime.hpp"
#include "sim/fault.hpp"
#include "sim/simulator.hpp"
#include "verify/invariant_auditor.hpp"

namespace pcmbench {
namespace {

using namespace pcm;
using sim::EngineKind;

sim::SimConfig sim_config(EngineKind engine) {
  sim::SimConfig c;
  c.engine = engine;
  return c;
}

struct Net {
  std::unique_ptr<sim::Topology> topo;
  const MeshShape* shape = nullptr;  ///< null for a BMIN

  [[nodiscard]] bool mesh() const { return shape != nullptr; }
  /// The paper's tuned algorithms for this network (Theorems 1-2).
  [[nodiscard]] McastAlgorithm opt() const {
    return mesh() ? McastAlgorithm::kOptMesh : McastAlgorithm::kOptMin;
  }
  [[nodiscard]] McastAlgorithm u() const {
    return mesh() ? McastAlgorithm::kUMesh : McastAlgorithm::kUMin;
  }
};

Net mesh_net(int side) {
  Net n;
  auto m = mesh::make_mesh2d(side);
  n.shape = &m->shape();
  n.topo = std::move(m);
  return n;
}

Net bmin_net(int nodes) {
  Net n;
  n.topo = bmin::make_bmin(nodes, bmin::UpPolicy::kSourceAddress);
  return n;
}

ChainOrder chain_order(McastAlgorithm alg) {
  switch (alg) {
    case McastAlgorithm::kOptMesh:
    case McastAlgorithm::kUMesh: return ChainOrder::kDimensionOrdered;
    case McastAlgorithm::kOptMin:
    case McastAlgorithm::kUMin: return ChainOrder::kLexicographic;
    default: return ChainOrder::kAsGiven;
  }
}

/// FNV-1a over 64-bit words: result fingerprints and the run digest.
class Fnv {
 public:
  template <class T>
    requires std::is_integral_v<T>
  Fnv& add(T v) {
    auto u = static_cast<std::uint64_t>(static_cast<std::int64_t>(v));
    for (int b = 0; b < 8; ++b, u >>= 8) {
      h_ ^= u & 0xffU;
      h_ *= 0x100000001b3ULL;
    }
    return *this;
  }
  Fnv& add(double v) {
    std::int64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    return add(bits);
  }
  template <class T>
  Fnv& add_all(const std::vector<T>& v) {
    add(static_cast<std::int64_t>(v.size()));
    for (const T& x : v) add(static_cast<std::int64_t>(x));
    return *this;
  }
  [[nodiscard]] std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

void hash_stats(Fnv& f, const sim::SimStats& s) {
  f.add(s.cycles).add(s.flit_hops).add(s.channel_conflicts)
      .add(std::int64_t{s.messages_delivered}).add(std::int64_t{s.max_inflight_flits})
      .add(std::int64_t{s.messages_dropped}).add(std::int64_t{s.messages_corrupted})
      .add(std::int64_t{s.fault_events}).add(std::int64_t{s.undelivered})
      .add(std::int64_t{s.watchdog_fired});
}

void hash_mcast(Fnv& f, const rt::McastResult& r) {
  f.add(r.latency).add(r.model_latency).add(r.channel_conflicts).add(r.block_cycles)
      .add(std::int64_t{r.messages}).add_all(r.recv_complete)
      .add(std::int64_t{r.expected_dests}).add(std::int64_t{r.delivered_dests})
      .add(std::int64_t{r.retries}).add(std::int64_t{r.repairs})
      .add(std::int64_t{r.duplicate_deliveries}).add_all(r.dead_nodes)
      .add(r.delivered_fraction).add(r.added_latency).add(std::int64_t{r.complete});
}

void hash_stream(Fnv& f, const rt::StreamResult& r) {
  f.add(std::int64_t{r.slots}).add(std::int64_t{r.window_size})
      .add(std::int64_t{r.committed}).add(r.makespan).add(r.model_slot_latency)
      .add(r.messages).add(r.channel_conflicts).add(r.flit_hops).add(r.sim_cycles)
      .add(std::int64_t{r.epoch}).add(std::int64_t{r.retries})
      .add(std::int64_t{r.stale_acks}).add(std::int64_t{r.duplicate_deliveries})
      .add(std::int64_t{r.max_window_occupancy}).add(std::int64_t{r.failovers})
      .add(std::int64_t{r.rejoins}).add(std::int64_t{r.suspects})
      .add_all(r.dead_nodes).add_all(r.unreachable_nodes).add_all(r.delivered_prefix)
      .add_all(r.commit_time).add(std::int64_t{r.complete}).add(r.delivered_fraction);
}

long long schedule_flit_hops(const std::vector<lint::SendWindow>& sched) {
  long long hops = 0;
  for (const lint::SendWindow& w : sched)
    hops += static_cast<long long>(w.flits) * static_cast<long long>(w.path.size());
  return hops;
}

/// Chain positions whose receive time `recv` misses the schedule's
/// recv_done, as one error line (empty when all agree).
std::string recv_mismatch(const MulticastTree& tree,
                          const std::vector<lint::SendWindow>& sched,
                          const std::vector<Time>& recv) {
  for (const lint::SendWindow& w : sched) {
    const int pos = tree.sends[static_cast<std::size_t>(w.send)].receiver_pos;
    const Time got = recv.at(static_cast<std::size_t>(pos));
    if (got != w.recv_done)
      return "receiver at chain position " + std::to_string(pos) + " finished at " +
             std::to_string(got) + ", lint recv_done " + std::to_string(w.recv_done);
  }
  return {};
}

/// Common machinery: the work list, kept and last results, per-call
/// observation, and the cycle-engine re-check.
template <class Item, class Result>
class ListWorkload : public Workload {
 public:
  [[nodiscard]] std::size_t size() const override { return items_.size(); }

  void call(std::size_t i, bool keep, Tracer* tracer) override {
    if (tracer) {
      CountingObserver counter;
      (keep ? kept_[i] : last_) = run(items_[i], tracer, &counter, EngineKind::kEvent);
      observed_[i] = counter.counts();
    } else {
      (keep ? kept_[i] : last_) = run(items_[i], nullptr, nullptr, EngineKind::kEvent);
    }
  }

  [[nodiscard]] std::uint64_t fingerprint(std::size_t i, bool kept) const override {
    return hash(kept ? kept_[i] : last_);
  }

 protected:
  /// Executes `item` through the public API on the given engine.
  virtual Result run(const Item& item, Tracer* tracer, sim::SimObserver* observer,
                     EngineKind engine) const = 0;
  [[nodiscard]] virtual std::uint64_t hash(const Result& r) const = 0;

  void reset_results() {
    kept_.assign(items_.size(), Result{});
    observed_.assign(items_.size(), CountingObserver::Counts{});
  }

  /// Re-runs item `i` on the cycle-driven reference engine; the result
  /// must be bit-identical to the kept (event-engine) one.
  void check_cycle_engine(std::size_t i, std::vector<std::string>& errors) const {
    const Result ref = run(items_[i], nullptr, nullptr, EngineKind::kCycle);
    if (hash(ref) != hash(kept_[i]))
      errors.push_back("cycle engine result differs from the event engine's");
  }

  std::vector<Item> items_;
  std::vector<Result> kept_;
  Result last_;
};

// ---------------------------------------------------------------------------
// paper_mix: the paper's one-shot 32-node multicasts, 0-64 KB, on the
// 16x16 mesh and the 128-node BMIN, paired placements.

struct PaperItem {
  int net = 0;
  McastAlgorithm alg = McastAlgorithm::kOptMesh;
  Bytes size = 0;
  int placement = 0;
};

struct PaperResult {
  MulticastTree tree;
  rt::McastResult res;
  sim::SimStats stats;
};

class PaperMix final : public ListWorkload<PaperItem, PaperResult> {
 public:
  static constexpr int kGroup = 32;
  static constexpr int kPlacements = 12;
  static constexpr Bytes kMaxSize = 65536;
  static constexpr Bytes kSizeStep = 8192;
  static constexpr std::size_t kCycleStride = 8;

  [[nodiscard]] const char* name() const override { return "paper_mix"; }
  [[nodiscard]] const char* ops_unit() const override { return "multicasts completed"; }

  void setup(std::uint64_t seed) override {
    nets_.clear();
    nets_.push_back(mesh_net(16));
    nets_.push_back(bmin_net(128));
    // Every (network, size) point gets its own placements; the three
    // algorithms of a point share them (a paired comparison).
    constexpr int kSizes = static_cast<int>(kMaxSize / kSizeStep) + 1;
    placements_.assign(nets_.size(), {});
    for (std::size_t n = 0; n < nets_.size(); ++n)
      placements_[n] = analysis::sample_placements(harness::substream_seed(seed, n),
                                                   nets_[n].topo->num_nodes(), kGroup,
                                                   kSizes * kPlacements);
    items_.clear();
    for (int p = 0; p < kPlacements; ++p)
      for (int s = 0; s < kSizes; ++s)
        for (int n = 0; n < static_cast<int>(nets_.size()); ++n) {
          const Net& net = nets_[static_cast<std::size_t>(n)];
          for (const McastAlgorithm alg : {net.u(), McastAlgorithm::kOptTree, net.opt()})
            items_.push_back({n, alg, s * kSizeStep, s * kPlacements + p});
        }
    reset_results();
  }

  [[nodiscard]] CallCounts counts(std::size_t i) const override {
    const PaperResult& r = kept_[i];
    CallCounts c;
    c.ops = 1;
    c.msgs = r.res.messages;
    c.flit_hops = r.stats.flit_hops;
    c.sim_runs = 1;
    c.contended = r.res.channel_conflicts > 0;
    c.sim_cycles = r.stats.cycles;
    c.conflict_cycles = r.stats.channel_conflicts;
    c.msgs_dropped = r.stats.messages_dropped;
    return c;
  }

  [[nodiscard]] std::vector<std::string> check(std::size_t i) override {
    const PaperItem& it = items_[i];
    const PaperResult& r = kept_[i];
    const Net& net = nets_[static_cast<std::size_t>(it.net)];
    std::vector<std::string> errors;
    const int k = r.tree.num_nodes();
    if (k != kGroup || static_cast<int>(r.res.recv_complete.size()) != k)
      return {"result does not cover the 32-node group"};
    for (int pos = 0; pos < k; ++pos)
      if (pos != r.tree.chain.source_pos &&
          r.res.recv_complete[static_cast<std::size_t>(pos)] < 0)
        errors.push_back("destination at chain position " + std::to_string(pos) +
                         " never finished");
    if (verify::guarantees_contention_free(it.alg) && r.res.channel_conflicts != 0)
      errors.push_back(std::string(algorithm_name(it.alg)) + " had " +
                       std::to_string(r.res.channel_conflicts) +
                       " channel conflicts (Theorems 1-2 promise 0)");
    if (r.stats.channel_conflicts != r.res.channel_conflicts)
      errors.push_back("SimStats and McastResult disagree on channel conflicts");

    const lint::LintReport lr = lint::lint_tree(
        r.tree, *net.topo, cfg_, sim_config(EngineKind::kEvent), it.size);
    if (!lr.structure_ok || !lr.deadlock_free)
      errors.push_back("lint rejects the tree's structure or finds a deadlock");
    if (lr.contention_free != (r.res.channel_conflicts == 0))
      errors.push_back("lint verdict (contention_free=" +
                       std::to_string(lr.contention_free) +
                       ") disagrees with simulated conflicts " +
                       std::to_string(r.res.channel_conflicts));
    if (lr.contention_free) {
      if (lr.makespan != r.res.latency)
        errors.push_back("latency " + std::to_string(r.res.latency) +
                         " differs from lint makespan " + std::to_string(lr.makespan));
      if (std::string e = recv_mismatch(r.tree, lr.schedule, r.res.recv_complete);
          !e.empty())
        errors.push_back(e);
    }
    if (i % kCycleStride == 0) check_cycle_engine(i, errors);
    return errors;
  }

  [[nodiscard]] std::vector<std::string> perturbations() const override {
    return {"latency", "recv_complete", "conflicts"};
  }

  void perturb(std::size_t i, const std::string& what) override {
    rt::McastResult& r = kept_.at(i).res;
    if (what == "latency") {
      r.latency += 1;
    } else if (what == "recv_complete") {
      const int source = kept_.at(i).tree.chain.source_pos;
      r.recv_complete.at(source == 0 ? 1 : 0) += 1;
    } else if (what == "conflicts") {
      r.channel_conflicts += 1;
    } else {
      throw std::invalid_argument("paper_mix: no perturbation " + what);
    }
  }

  [[nodiscard]] std::vector<TreeRef> trees() const override {
    std::vector<TreeRef> out;
    for (std::size_t i = 0; i < items_.size(); ++i) {
      const Net& net = nets_[static_cast<std::size_t>(items_[i].net)];
      out.push_back({net.topo.get(), net.mesh(), &kept_[i].tree});
    }
    return out;
  }

  [[nodiscard]] std::vector<ChainInput> chain_inputs() const override {
    std::vector<ChainInput> out;
    for (const PaperItem& it : items_) {
      const analysis::Placement& p = placement(it);
      out.push_back({p.source, p.dests, chain_order(it.alg),
                     nets_[static_cast<std::size_t>(it.net)].shape});
    }
    return out;
  }

  /// The recorder probe's fixed slice: mesh calls at 8 and 32 KB, four
  /// placements each, every algorithm.
  RecorderProbe probe_recorder(int rounds) const {
    std::vector<std::size_t> slice;
    for (std::size_t i = 0; i < items_.size(); ++i)
      if (items_[i].net == 0 && items_[i].placement % kPlacements < 4 &&
          (items_[i].size == 8192 || items_[i].size == 32768))
        slice.push_back(i);
    RecorderProbe probe;
    for (int round = 0; round < rounds; ++round)
      for (const std::size_t i : slice)
        for (int side = 0; side < 2; ++side) {
          // Each call runs back to back with and without the recorder,
          // alternating which goes first, so drift hits both sides alike.
          const bool recorded = (side + round) % 2 == 1;
          std::optional<obs::FlightRecorder> rec;
          if (recorded) rec.emplace(obs::RecorderConfig{obs::kRunRingCapacity});
          const std::int64_t t0 = now_ns();
          run(items_[i], nullptr, rec ? &*rec : nullptr, EngineKind::kEvent);
          const double dt = static_cast<double>(now_ns() - t0) * 1e-9;
          (recorded ? probe.recorded_s : probe.plain_s) += dt;
          if (rec && round == 0) probe.events += static_cast<long long>(rec->events_recorded());
        }
    return probe;
  }

 protected:
  PaperResult run(const PaperItem& it, Tracer* tracer, sim::SimObserver* observer,
                  EngineKind engine) const override {
    const Net& net = nets_[static_cast<std::size_t>(it.net)];
    const analysis::Placement& p = placement(it);
    PaperResult r;
    {
      ScopedSpan span(tracer, "core.build_multicast");
      const TwoParam tp = cfg_.machine.two_param(rtm_.wire_bytes(it.size, 1));
      r.tree = build_multicast(it.alg, p.source, p.dests, tp, net.shape);
    }
    std::optional<sim::Simulator> sim;
    {
      ScopedSpan span(tracer, "sim.simulator");
      sim.emplace(*net.topo, sim_config(engine));
    }
    sim->set_observer(observer);
    {
      ScopedSpan span(tracer, "runtime.run");
      r.res = rtm_.run(*sim, r.tree, it.size);
    }
    r.stats = sim->stats();
    return r;
  }

  [[nodiscard]] std::uint64_t hash(const PaperResult& r) const override {
    Fnv f;
    hash_mcast(f, r.res);
    hash_stats(f, r.stats);
    return f.value();
  }

 private:
  [[nodiscard]] const analysis::Placement& placement(const PaperItem& it) const {
    return placements_[static_cast<std::size_t>(it.net)]
                      [static_cast<std::size_t>(it.placement)];
  }

  rt::RuntimeConfig cfg_;
  rt::MulticastRuntime rtm_{cfg_};
  std::vector<Net> nets_;
  std::vector<std::vector<analysis::Placement>> placements_;
};

// ---------------------------------------------------------------------------
// Streams (both stream workloads): 16-node groups, 64-byte slots, on the
// 16x16 mesh and the 64-node BMIN.

struct StreamRun {
  rt::StreamResult res;
  sim::SimStats stats;
};

constexpr int kStreamGroup = 16;
constexpr Bytes kStreamBytes = 64;

/// The tree StreamRuntime builds for a stream of kStreamBytes slots.
MulticastTree stream_tree(const rt::MulticastRuntime& rtm, McastAlgorithm alg,
                          const analysis::Placement& p, const MeshShape* shape) {
  const TwoParam tp = rtm.config().machine.two_param(rtm.wire_bytes(kStreamBytes, 1));
  return build_multicast(alg, p.source, p.dests, tp, shape);
}

void hash_stream_run(Fnv& f, const StreamRun& r) {
  hash_stream(f, r.res);
  hash_stats(f, r.stats);
}

CallCounts stream_counts(const StreamRun& r, bool reliable) {
  CallCounts c;
  c.ops = r.res.committed;
  c.msgs = r.res.messages;
  c.flit_hops = r.res.flit_hops;
  c.sim_runs = 1;
  c.contended = r.res.channel_conflicts > 0;
  c.sim_cycles = r.res.sim_cycles;
  c.conflict_cycles = r.res.channel_conflicts;
  c.msgs_dropped = r.stats.messages_dropped;
  c.reliable = reliable;
  c.retries = r.res.retries;
  c.epochs = r.res.epoch;
  c.stale_acks = r.res.stale_acks;
  c.failovers = r.res.failovers;
  c.rejoins = r.res.rejoins;
  c.max_window_occupancy = r.res.max_window_occupancy;
  return c;
}

// stream_clean: fault-free windowed streams on the event engine.

struct CleanItem {
  int net = 0;
  McastAlgorithm alg = McastAlgorithm::kOptMesh;
  int window = 1;
  int placement = 0;
};

class StreamClean final : public ListWorkload<CleanItem, StreamRun> {
 public:
  static constexpr int kSlots = 1000;
  static constexpr int kPlacements = 9;
  static constexpr std::size_t kCycleStride = 12;

  [[nodiscard]] const char* name() const override { return "stream_clean"; }
  [[nodiscard]] const char* ops_unit() const override { return "slots committed"; }

  void setup(std::uint64_t seed) override {
    nets_.clear();
    nets_.push_back(mesh_net(16));
    nets_.push_back(bmin_net(64));
    placements_.assign(nets_.size(), {});
    for (std::size_t n = 0; n < nets_.size(); ++n)
      placements_[n] = analysis::sample_placements(harness::substream_seed(seed, n),
                                                   nets_[n].topo->num_nodes(),
                                                   kStreamGroup, kPlacements);
    items_.clear();
    for (int p = 0; p < kPlacements; ++p)
      for (int n = 0; n < static_cast<int>(nets_.size()); ++n) {
        const Net& net = nets_[static_cast<std::size_t>(n)];
        for (const McastAlgorithm alg : {net.opt(), net.u()})
          for (const int window : {1, 2, 8}) items_.push_back({n, alg, window, p});
      }
    reset_results();
    trees_.assign(items_.size(), MulticastTree{});
  }

  [[nodiscard]] CallCounts counts(std::size_t i) const override {
    return stream_counts(kept_[i], false);
  }

  [[nodiscard]] std::vector<std::string> check(std::size_t i) override {
    const CleanItem& it = items_[i];
    const rt::StreamResult& r = kept_[i].res;
    const Net& net = nets_[static_cast<std::size_t>(it.net)];
    std::vector<std::string> errors;
    if (r.committed != kSlots)
      errors.push_back("committed " + std::to_string(r.committed) + " of " +
                       std::to_string(kSlots) + " slots");
    if (r.delivered_fraction != 1.0 || !r.complete)
      errors.push_back("stream did not deliver every slot to every receiver");
    if (r.channel_conflicts != 0)
      errors.push_back(std::to_string(r.channel_conflicts) +
                       " channel conflicts on a fault-free tuned stream");

    trees_[i] = stream_tree(rtm_, it.alg, placement(it), net.shape);
    const lint::StreamLintReport lr =
        lint::lint_stream(trees_[i], *net.topo, cfg_, sim_config(EngineKind::kEvent),
                          kStreamBytes, kSlots, it.window);
    if (!lr.clean()) errors.push_back("lint_stream does not certify the stream");
    if (lr.commit_time != r.commit_time) {
      std::size_t s = 0;
      while (s < lr.commit_time.size() && s < r.commit_time.size() &&
             lr.commit_time[s] == r.commit_time[s])
        ++s;
      errors.push_back("commit_time differs from lint_stream first at slot " +
                       std::to_string(s));
    }
    if (i % kCycleStride == 0) check_cycle_engine(i, errors);
    return errors;
  }

  [[nodiscard]] std::vector<std::string> perturbations() const override {
    return {"commit_time", "committed", "conflicts"};
  }

  void perturb(std::size_t i, const std::string& what) override {
    rt::StreamResult& r = kept_.at(i).res;
    if (what == "commit_time") {
      r.commit_time.at(r.commit_time.size() / 2) += 1;
    } else if (what == "committed") {
      r.committed -= 1;
    } else if (what == "conflicts") {
      r.channel_conflicts += 1;
    } else {
      throw std::invalid_argument("stream_clean: no perturbation " + what);
    }
  }

  [[nodiscard]] std::vector<TreeRef> trees() const override {
    std::vector<TreeRef> out;
    for (std::size_t i = 0; i < items_.size(); ++i) {
      const Net& net = nets_[static_cast<std::size_t>(items_[i].net)];
      out.push_back({net.topo.get(), net.mesh(), &trees_[i]});
    }
    return out;
  }

  [[nodiscard]] std::vector<ChainInput> chain_inputs() const override {
    std::vector<ChainInput> out;
    for (const CleanItem& it : items_) {
      const analysis::Placement& p = placement(it);
      out.push_back({p.source, p.dests, chain_order(it.alg),
                     nets_[static_cast<std::size_t>(it.net)].shape});
    }
    return out;
  }

 protected:
  StreamRun run(const CleanItem& it, Tracer* tracer, sim::SimObserver* observer,
                EngineKind engine) const override {
    const Net& net = nets_[static_cast<std::size_t>(it.net)];
    const analysis::Placement& p = placement(it);
    std::optional<sim::Simulator> sim;
    {
      ScopedSpan span(tracer, "sim.simulator");
      sim.emplace(*net.topo, sim_config(engine));
    }
    sim->set_observer(observer);
    rt::StreamConfig scfg;
    scfg.window_size = it.window;
    scfg.slots = kSlots;
    scfg.bytes = kStreamBytes;
    scfg.alg = it.alg;
    scfg.shape = net.shape;
    StreamRun r;
    {
      ScopedSpan span(tracer, "runtime.stream");
      r.res = srt_.run(*sim, p.source, p.dests, scfg);
    }
    r.stats = sim->stats();
    return r;
  }

  [[nodiscard]] std::uint64_t hash(const StreamRun& r) const override {
    Fnv f;
    hash_stream_run(f, r);
    return f.value();
  }

 private:
  [[nodiscard]] const analysis::Placement& placement(const CleanItem& it) const {
    return placements_[static_cast<std::size_t>(it.net)]
                      [static_cast<std::size_t>(it.placement)];
  }

  rt::RuntimeConfig cfg_;
  rt::MulticastRuntime rtm_{cfg_};
  rt::StreamRuntime srt_{rtm_};
  std::vector<Net> nets_;
  std::vector<std::vector<analysis::Placement>> placements_;
  std::vector<MulticastTree> trees_;
};

// stream_faulty: reliable streams under a receiver kill or a source kill,
// with per-hop message loss, lease heartbeats, source failover and rejoin
// enabled.

struct FaultItem {
  int net = 0;
  McastAlgorithm alg = McastAlgorithm::kOptMesh;
  int placement = 0;
  Time heartbeat = 0;
  sim::FaultPlan plan;
  std::vector<NodeId> killed;  ///< nodes the plan fail-stops
};

class StreamFaulty final : public ListWorkload<FaultItem, StreamRun> {
 public:
  static constexpr int kSlots = 100;
  static constexpr int kWindow = 8;
  /// Mesh streams cost about 4x BMIN ones; two thirds of the calls run on
  /// the mesh so the call-time percentiles sit inside one cluster.
  static constexpr int kPlacements[] = {36, 18};
  static constexpr Time kHeartbeats[] = {400, 800, 1200};
  static constexpr double kDropRate = 1e-3;
  static constexpr std::size_t kCycleStride = 6;

  [[nodiscard]] const char* name() const override { return "stream_faulty"; }
  [[nodiscard]] const char* ops_unit() const override { return "slots committed"; }

  void setup(std::uint64_t seed) override {
    nets_.clear();
    nets_.push_back(mesh_net(16));
    nets_.push_back(bmin_net(64));
    placements_.assign(nets_.size(), {});
    for (std::size_t n = 0; n < nets_.size(); ++n)
      placements_[n] = analysis::sample_placements(harness::substream_seed(seed, n),
                                                   nets_[n].topo->num_nodes(),
                                                   kStreamGroup, kPlacements[n]);
    analysis::Rng rng(harness::substream_seed(seed, 0xfa17));
    // Faults land a third of the way through the model-rate schedule, as
    // in bench_recovery, plus a quarter-slot step per placement.
    const TwoParam tp = cfg_.machine.two_param(rtm_.wire_bytes(kStreamBytes, 1));
    const Time model =
        opt_split_table(tp.t_hold, tp.t_end, kStreamGroup).latency(kStreamGroup);
    const Time t_fault = model * kSlots / 3;

    items_.clear();
    for (int n = 0; n < static_cast<int>(nets_.size()); ++n)
      for (int p = 0; p < kPlacements[n]; ++p) {
        const Net& net = nets_[static_cast<std::size_t>(n)];
        for (const bool source_kill : {false, true}) {
          FaultItem it;
          it.net = n;
          it.alg = p % 2 == 0 ? net.opt() : net.u();
          it.placement = p;
          it.heartbeat = kHeartbeats[p % 3];
          const analysis::Placement& pl = placement(it);
          const NodeId victim =
              source_kill ? pl.source : pl.dests[rng.below(pl.dests.size())];
          it.plan.node_events.push_back({t_fault + (p % 4) * model / 4, victim});
          it.killed = {victim};
          // Source kills run loss-free: under loss, a source death that
          // leaves no record open ends the stream before the failure
          // detector can elect a successor (see README.md, known defects).
          if (!source_kill) {
            it.plan.drop_rate = kDropRate;
            it.plan.seed = rng.next() >> 1;
          }
          items_.push_back(std::move(it));
        }
      }
    reset_results();
    trees_.assign(items_.size(), MulticastTree{});
  }

  [[nodiscard]] CallCounts counts(std::size_t i) const override {
    return stream_counts(kept_[i], true);
  }

  [[nodiscard]] std::vector<std::string> check(std::size_t i) override {
    const FaultItem& it = items_[i];
    const rt::StreamResult& r = kept_[i].res;
    const Net& net = nets_[static_cast<std::size_t>(it.net)];
    std::vector<std::string> errors;
    if (r.committed != kSlots)
      errors.push_back("committed " + std::to_string(r.committed) + " of " +
                       std::to_string(kSlots) + " slots");

    trees_[i] = stream_tree(rtm_, it.alg, placement(it), net.shape);
    const Chain& chain = trees_[i].chain;
    auto listed = [](const std::vector<NodeId>& set, NodeId v) {
      return std::find(set.begin(), set.end(), v) != set.end();
    };
    if (r.delivered_prefix.size() != chain.nodes.size()) {
      errors.push_back("delivered_prefix does not cover the group");
    } else {
      for (int pos = 0; pos < chain.size(); ++pos) {
        const NodeId v = chain.at(pos);
        if (pos == chain.source_pos || listed(r.dead_nodes, v) ||
            listed(r.unreachable_nodes, v))
          continue;
        if (r.delivered_prefix[static_cast<std::size_t>(pos)] != kSlots)
          errors.push_back("live receiver " + std::to_string(v) + " holds only " +
                           std::to_string(r.delivered_prefix[static_cast<std::size_t>(pos)]) +
                           " slots");
      }
    }
    for (const NodeId v : r.dead_nodes)
      if (!listed(it.killed, v))
        errors.push_back("node " + std::to_string(v) +
                         " declared dead but the plan never killed it");
    try {
      verify::InvariantAuditor::audit_stream(r);
    } catch (const verify::InvariantViolation& e) {
      errors.push_back(std::string("audit_stream: ") + e.what());
    }
    if (i % kCycleStride == 0) check_cycle_engine(i, errors);
    return errors;
  }

  [[nodiscard]] std::vector<std::string> perturbations() const override {
    return {"committed", "prefix", "dead_nodes"};
  }

  void perturb(std::size_t i, const std::string& what) override {
    rt::StreamResult& r = kept_.at(i).res;
    if (what == "committed") {
      r.committed -= 1;
    } else if (what == "prefix") {
      // Shorten the prefix of a receiver that is neither dead nor evicted.
      const FaultItem& it = items_.at(i);
      const Chain chain =
          stream_tree(rtm_, it.alg, placement(it), nets_[static_cast<std::size_t>(it.net)].shape)
              .chain;
      for (int pos = 0; pos < chain.size(); ++pos) {
        const NodeId v = chain.at(pos);
        if (pos != chain.source_pos &&
            std::find(r.dead_nodes.begin(), r.dead_nodes.end(), v) == r.dead_nodes.end() &&
            std::find(r.unreachable_nodes.begin(), r.unreachable_nodes.end(), v) ==
                r.unreachable_nodes.end()) {
          r.delivered_prefix.at(static_cast<std::size_t>(pos)) -= 1;
          return;
        }
      }
    } else if (what == "dead_nodes") {
      // Declare dead a node the plan never touched.
      const analysis::Placement& p = placement(items_.at(i));
      for (const NodeId v : p.dests)
        if (std::find(items_[i].killed.begin(), items_[i].killed.end(), v) ==
            items_[i].killed.end()) {
          r.dead_nodes.push_back(v);
          return;
        }
    } else {
      throw std::invalid_argument("stream_faulty: no perturbation " + what);
    }
  }

  [[nodiscard]] std::vector<TreeRef> trees() const override {
    std::vector<TreeRef> out;
    for (std::size_t i = 0; i < items_.size(); ++i) {
      const Net& net = nets_[static_cast<std::size_t>(items_[i].net)];
      out.push_back({net.topo.get(), net.mesh(), &trees_[i]});
    }
    return out;
  }

  [[nodiscard]] std::vector<ChainInput> chain_inputs() const override {
    std::vector<ChainInput> out;
    for (const FaultItem& it : items_) {
      const analysis::Placement& p = placement(it);
      out.push_back({p.source, p.dests, chain_order(it.alg),
                     nets_[static_cast<std::size_t>(it.net)].shape});
    }
    return out;
  }

 protected:
  StreamRun run(const FaultItem& it, Tracer* tracer, sim::SimObserver* observer,
                EngineKind engine) const override {
    const Net& net = nets_[static_cast<std::size_t>(it.net)];
    const analysis::Placement& p = placement(it);
    std::optional<sim::Simulator> sim;
    {
      ScopedSpan span(tracer, "sim.simulator");
      sim.emplace(*net.topo, sim_config(engine));
      sim->set_fault_plan(it.plan);
    }
    sim->set_observer(observer);
    rt::StreamConfig scfg;
    scfg.window_size = kWindow;
    scfg.slots = kSlots;
    scfg.bytes = kStreamBytes;
    scfg.alg = it.alg;
    scfg.shape = net.shape;
    scfg.reliable = true;
    scfg.membership.heartbeat_period = it.heartbeat;
    scfg.failover = true;
    scfg.rejoin = true;
    StreamRun r;
    {
      ScopedSpan span(tracer, "runtime.stream");
      r.res = srt_.run(*sim, p.source, p.dests, scfg);
    }
    r.stats = sim->stats();
    return r;
  }

  [[nodiscard]] std::uint64_t hash(const StreamRun& r) const override {
    Fnv f;
    hash_stream_run(f, r);
    return f.value();
  }

 private:
  [[nodiscard]] const analysis::Placement& placement(const FaultItem& it) const {
    return placements_[static_cast<std::size_t>(it.net)]
                      [static_cast<std::size_t>(it.placement)];
  }

  rt::RuntimeConfig cfg_;
  rt::MulticastRuntime rtm_{cfg_};
  rt::StreamRuntime srt_{rtm_};
  std::vector<Net> nets_;
  std::vector<std::vector<analysis::Placement>> placements_;
  std::vector<MulticastTree> trees_;
};

// ---------------------------------------------------------------------------
// static_screen: admission screening without simulation.  lint_tree on
// large groups (k = 256 / 1024) on 32x32 / 64x64 meshes and 1024 / 4096
// node BMINs; 8-tenant forests admitted at earliest_clean_offset and
// certified by lint_forest; lint_stream on windowed streams.

enum class Screen { kTree, kForest, kStream };

struct ScreenItem {
  Screen kind = Screen::kTree;
  int net = 0;
  McastAlgorithm alg = McastAlgorithm::kOptMesh;
  int k = 0;
  int window = 0;
  int placement = 0;  ///< into placements_ (trees/streams) or forests_
  bool sampled = false;  ///< re-checked against simulation
};

struct ScreenResult {
  std::vector<MulticastTree> trees;  ///< one per tree/stream, 8 per forest
  std::vector<Time> starts;          ///< forest admission offsets
  lint::LintReport tree;
  lint::ForestReport forest;
  lint::StreamLintReport stream;
};

class StaticScreen final : public ListWorkload<ScreenItem, ScreenResult> {
 public:
  static constexpr Bytes kTreeBytes = 1024;
  static constexpr int kTreePlacements = 4;
  static constexpr int kForests = 2;
  static constexpr int kTenants = 8;
  static constexpr int kTenantGroup = 32;
  static constexpr int kStreamSlots = 2000;

  [[nodiscard]] const char* name() const override { return "static_screen"; }
  [[nodiscard]] const char* ops_unit() const override { return "schedules screened"; }
  [[nodiscard]] bool static_only() const override { return true; }

  void setup(std::uint64_t seed) override {
    nets_.clear();
    nets_.push_back(mesh_net(32));     // 0
    nets_.push_back(mesh_net(64));     // 1
    nets_.push_back(bmin_net(1024));   // 2
    nets_.push_back(bmin_net(4096));   // 3
    nets_.push_back(mesh_net(16));     // 4
    nets_.push_back(bmin_net(64));     // 5
    analysis::Rng rng(harness::substream_seed(seed, 0x5c4e));
    placements_.clear();
    forests_.clear();
    items_.clear();
    auto place = [&](int net, int k) {
      placements_.push_back(analysis::sample_placement(
          rng, nets_[static_cast<std::size_t>(net)].topo->num_nodes(), k));
      return static_cast<int>(placements_.size()) - 1;
    };
    for (int p = 0; p < kTreePlacements; ++p)
      for (int n = 0; n < 4; ++n)
        for (const int k : {256, 1024}) {
          const int pl = place(n, k);
          const Net& net = nets_[static_cast<std::size_t>(n)];
          for (const McastAlgorithm alg : {net.opt(), net.u(), McastAlgorithm::kOptTree})
            items_.push_back({Screen::kTree, n, alg, k, 0, pl, p == 0 && k == 256});
        }
    for (int f = 0; f < kForests; ++f)
      for (const int n : {0, 2}) {
        // Node-disjoint tenants: earliest_clean_offset is exact for them.
        const analysis::Placement all = analysis::sample_placement(
            rng, nets_[static_cast<std::size_t>(n)].topo->num_nodes(),
            kTenants * kTenantGroup);
        std::vector<NodeId> nodes = all.dests;
        nodes.insert(nodes.begin(), all.source);
        std::vector<analysis::Placement> tenants;
        for (int t = 0; t < kTenants; ++t) {
          const auto begin = nodes.begin() + t * kTenantGroup;
          tenants.push_back({*begin, std::vector<NodeId>(begin + 1, begin + kTenantGroup)});
        }
        forests_.push_back(std::move(tenants));
        const Net& net = nets_[static_cast<std::size_t>(n)];
        items_.push_back({Screen::kForest, n, net.opt(), kTenantGroup, 0,
                          static_cast<int>(forests_.size()) - 1, f == 0});
      }
    for (const int n : {4, 5}) {
      const int pl = place(n, kStreamGroup);
      const Net& net = nets_[static_cast<std::size_t>(n)];
      for (const McastAlgorithm alg : {net.opt(), net.u()})
        for (const int window : {1, 2, 8})
          items_.push_back({Screen::kStream, n, alg, kStreamGroup, window, pl,
                            alg == net.opt() && window == 2});
    }
    reset_results();
  }

  [[nodiscard]] CallCounts counts(std::size_t i) const override {
    const ScreenItem& it = items_[i];
    const ScreenResult& r = kept_[i];
    CallCounts c;
    c.ops = 1;
    switch (it.kind) {
      case Screen::kTree:
        c.msgs = r.tree.sends;
        c.flit_hops = schedule_flit_hops(r.tree.schedule);
        c.lint_trees = 1;
        c.lint_contended = r.tree.contention_free ? 0 : 1;
        c.lint_sends = r.tree.sends;
        break;
      case Screen::kForest:
        c.msgs = r.forest.sends;
        for (const auto& sched : r.forest.schedules) c.flit_hops += schedule_flit_hops(sched);
        c.lint_trees = 1;
        c.lint_contended = r.forest.contention_free ? 0 : 1;
        c.lint_sends = r.forest.sends;
        break;
      case Screen::kStream: {
        const Net& net = nets_[static_cast<std::size_t>(it.net)];
        c.msgs = r.stream.messages;
        // Every slot repeats the tree's sends over the same paths.
        c.flit_hops = schedule_flit_hops(lint::lint_schedule(
                          r.trees.at(0), *net.topo, cfg_,
                          sim_config(EngineKind::kEvent), kStreamBytes)) *
                      r.stream.slots;
        c.stream_slots = r.stream.slots;
        c.analyzed_slots = r.stream.analyzed_slots;
        break;
      }
    }
    return c;
  }

  [[nodiscard]] std::vector<std::string> check(std::size_t i) override {
    const ScreenItem& it = items_[i];
    const ScreenResult& r = kept_[i];
    const Net& net = nets_[static_cast<std::size_t>(it.net)];
    const bool tuned = verify::guarantees_contention_free(it.alg);
    std::vector<std::string> errors;
    switch (it.kind) {
      case Screen::kTree: {
        const lint::LintReport& lr = r.tree;
        if (!lr.structure_ok || !lr.deadlock_free)
          errors.push_back("lint rejects the tree's structure or finds a deadlock");
        if (tuned && !lr.contention_free)
          errors.push_back(std::string(algorithm_name(it.alg)) +
                           " not certified contention-free (Theorems 1-2)");
        if (it.sampled) check_tree_by_simulation(r.trees.at(0), net, lr, errors);
        break;
      }
      case Screen::kForest:
        if (!r.forest.clean())
          errors.push_back("forest admitted at earliest_clean_offset is not clean");
        if (it.sampled) check_forest_by_simulation(r, net, errors);
        break;
      case Screen::kStream:
        if (tuned && !r.stream.clean())
          errors.push_back("lint_stream does not certify a tuned stream");
        if (it.sampled) check_stream_by_simulation(r, it, net, errors);
        break;
    }
    return errors;
  }

  [[nodiscard]] std::vector<std::string> perturbations() const override {
    return {"makespan", "verdict"};
  }

  void perturb(std::size_t i, const std::string& what) override {
    ScreenResult& r = kept_.at(i);
    if (items_.at(i).kind != Screen::kTree)
      throw std::invalid_argument("static_screen: perturbations target tree items");
    if (what == "makespan") {
      r.tree.makespan += 1;
    } else if (what == "verdict") {
      r.tree.contention_free = !r.tree.contention_free;
    } else {
      throw std::invalid_argument("static_screen: no perturbation " + what);
    }
  }

  [[nodiscard]] std::vector<TreeRef> trees() const override {
    std::vector<TreeRef> out;
    for (std::size_t i = 0; i < items_.size(); ++i) {
      const Net& net = nets_[static_cast<std::size_t>(items_[i].net)];
      for (const MulticastTree& t : kept_[i].trees)
        out.push_back({net.topo.get(), net.mesh(), &t});
    }
    return out;
  }

  [[nodiscard]] std::vector<ChainInput> chain_inputs() const override {
    std::vector<ChainInput> out;
    for (const ScreenItem& it : items_)
      if (it.kind == Screen::kTree && it.k == 1024) {
        const analysis::Placement& p = placements_[static_cast<std::size_t>(it.placement)];
        out.push_back({p.source, p.dests, chain_order(it.alg),
                       nets_[static_cast<std::size_t>(it.net)].shape});
      }
    return out;
  }

 protected:
  ScreenResult run(const ScreenItem& it, Tracer* tracer, sim::SimObserver*,
                   EngineKind engine) const override {
    const Net& net = nets_[static_cast<std::size_t>(it.net)];
    const sim::SimConfig scfg = sim_config(engine);
    ScreenResult r;
    auto build = [&](const analysis::Placement& p, Bytes bytes) {
      ScopedSpan span(tracer, "core.build_multicast");
      const TwoParam tp = cfg_.machine.two_param(rtm_.wire_bytes(bytes, 1));
      r.trees.push_back(build_multicast(it.alg, p.source, p.dests, tp, net.shape));
    };
    switch (it.kind) {
      case Screen::kTree: {
        build(placements_[static_cast<std::size_t>(it.placement)], kTreeBytes);
        ScopedSpan span(tracer, "lint.tree");
        r.tree = lint::lint_tree(r.trees.back(), *net.topo, cfg_, scfg, kTreeBytes);
        break;
      }
      case Screen::kForest: {
        std::vector<lint::ForestMember> members;
        lint::ChannelReservations admitted;
        for (const analysis::Placement& p :
             forests_[static_cast<std::size_t>(it.placement)]) {
          build(p, kTreeBytes);
          Time start = 0;
          {
            ScopedSpan span(tracer, "lint.offset");
            start = lint::earliest_clean_offset(r.trees.back(), *net.topo, cfg_, scfg,
                                                kTreeBytes, admitted);
          }
          {
            ScopedSpan span(tracer, "lint.schedule");
            admitted.add(lint::lint_schedule(r.trees.back(), *net.topo, cfg_, scfg,
                                             kTreeBytes, start));
          }
          r.starts.push_back(start);
          members.push_back({r.trees.back(), kTreeBytes, start});
        }
        ScopedSpan span(tracer, "lint.forest");
        r.forest = lint::lint_forest(members, *net.topo, cfg_, scfg);
        break;
      }
      case Screen::kStream: {
        build(placements_[static_cast<std::size_t>(it.placement)], kStreamBytes);
        ScopedSpan span(tracer, "lint.stream");
        r.stream = lint::lint_stream(r.trees.back(), *net.topo, cfg_, scfg, kStreamBytes,
                                     kStreamSlots, it.window);
        break;
      }
    }
    return r;
  }

  [[nodiscard]] std::uint64_t hash(const ScreenResult& r) const override {
    Fnv f;
    const lint::LintReport& t = r.tree;
    f.add(std::int64_t{t.structure_ok}).add(std::int64_t{t.contention_free})
        .add(std::int64_t{t.deadlock_free}).add(std::int64_t{t.sends})
        .add(std::int64_t{t.channels_used}).add(std::int64_t{t.max_channel_windows})
        .add(t.makespan).add(static_cast<std::int64_t>(t.diagnostics.size()));
    for (const lint::SendWindow& w : t.schedule) f.add(w.delivered).add(w.recv_done);
    const lint::ForestReport& fr = r.forest;
    f.add(std::int64_t{fr.structure_ok}).add(std::int64_t{fr.contention_free})
        .add(std::int64_t{fr.deadlock_free}).add(std::int64_t{fr.trees})
        .add(std::int64_t{fr.sends}).add(std::int64_t{fr.channels_used})
        .add(std::int64_t{fr.max_channel_windows}).add(std::int64_t{fr.intra_pairs})
        .add(std::int64_t{fr.cross_pairs}).add(fr.makespan).add_all(fr.tree_makespan)
        .add_all(r.starts);
    const lint::StreamLintReport& s = r.stream;
    f.add(std::int64_t{s.structure_ok}).add(std::int64_t{s.contention_free})
        .add(std::int64_t{s.deadlock_free}).add(std::int64_t{s.slots})
        .add(std::int64_t{s.window}).add(std::int64_t{s.sends_per_slot}).add(s.messages)
        .add(std::int64_t{s.analyzed_slots}).add(std::int64_t{s.period_slots})
        .add(s.period_cycles).add(s.interval).add(s.slot_latency).add(s.makespan)
        .add(s.busy_bound).add(std::int64_t{s.busy_node}).add(s.channel_bound)
        .add(std::int64_t{s.saturated}).add_all(s.commit_time);
    return f.value();
  }

 private:
  /// MulticastRuntime::run on the event engine must match the static
  /// verdict (and, when clean, every receive time); the cycle engine must
  /// match the event engine bit for bit.
  void check_tree_by_simulation(const MulticastTree& tree, const Net& net,
                                const lint::LintReport& lr,
                                std::vector<std::string>& errors) const {
    auto simulate = [&](EngineKind engine) {
      sim::Simulator sim(*net.topo, sim_config(engine));
      Fnv f;
      const rt::McastResult res = rtm_.run(sim, tree, kTreeBytes);
      hash_mcast(f, res);
      hash_stats(f, sim.stats());
      return std::pair{res, f.value()};
    };
    const auto [res, fp] = simulate(EngineKind::kEvent);
    if (lr.contention_free != (res.channel_conflicts == 0))
      errors.push_back("lint_tree verdict disagrees with MulticastRuntime::run (" +
                       std::to_string(res.channel_conflicts) + " conflicts)");
    if (lr.contention_free && res.channel_conflicts == 0) {
      if (lr.makespan != res.latency)
        errors.push_back("lint makespan " + std::to_string(lr.makespan) +
                         " differs from simulated latency " + std::to_string(res.latency));
      if (std::string e = recv_mismatch(tree, lr.schedule, res.recv_complete); !e.empty())
        errors.push_back(e);
    }
    if (simulate(EngineKind::kCycle).second != fp)
      errors.push_back("cycle engine result differs from the event engine's");
  }

  void check_forest_by_simulation(const ScreenResult& r, const Net& net,
                                  std::vector<std::string>& errors) const {
    auto simulate = [&](EngineKind engine) {
      std::vector<rt::MulticastRuntime::GroupRun> groups;
      for (std::size_t t = 0; t < r.trees.size(); ++t)
        groups.push_back({r.trees[t], kTreeBytes, r.starts[t]});
      sim::Simulator sim(*net.topo, sim_config(engine));
      const std::vector<rt::McastResult> res = rtm_.run_concurrent(sim, std::move(groups));
      Fnv f;
      for (const rt::McastResult& m : res) hash_mcast(f, m);
      hash_stats(f, sim.stats());
      return std::pair{res, f.value()};
    };
    const auto [res, fp] = simulate(EngineKind::kEvent);
    long long conflicts = 0;
    for (const rt::McastResult& m : res) conflicts += m.channel_conflicts;
    if (r.forest.contention_free != (conflicts == 0))
      errors.push_back("lint_forest verdict disagrees with run_concurrent (" +
                       std::to_string(conflicts) + " conflicts)");
    if (r.forest.contention_free && conflicts == 0)
      for (std::size_t t = 0; t < res.size(); ++t)
        if (r.forest.tree_makespan.at(t) - r.starts.at(t) != res[t].latency)
          errors.push_back("forest tree " + std::to_string(t) +
                           " latency differs from lint_forest");
    if (simulate(EngineKind::kCycle).second != fp)
      errors.push_back("cycle engine result differs from the event engine's");
  }

  void check_stream_by_simulation(const ScreenResult& r, const ScreenItem& it,
                                  const Net& net, std::vector<std::string>& errors) const {
    const analysis::Placement& p = placements_[static_cast<std::size_t>(it.placement)];
    rt::StreamConfig scfg;
    scfg.window_size = it.window;
    scfg.slots = kStreamSlots;
    scfg.bytes = kStreamBytes;
    scfg.alg = it.alg;
    scfg.shape = net.shape;
    auto simulate = [&](EngineKind engine) {
      sim::Simulator sim(*net.topo, sim_config(engine));
      const rt::StreamRuntime srt(rtm_);
      StreamRun run{srt.run(sim, p.source, p.dests, scfg), {}};
      run.stats = sim.stats();
      Fnv f;
      hash_stream_run(f, run);
      return std::pair{run.res, f.value()};
    };
    const auto [res, fp] = simulate(EngineKind::kEvent);
    if (r.stream.contention_free != (res.channel_conflicts == 0))
      errors.push_back("lint_stream verdict disagrees with StreamRuntime");
    if (r.stream.commit_time != res.commit_time)
      errors.push_back("lint_stream commit_time differs from StreamRuntime's");
    if (simulate(EngineKind::kCycle).second != fp)
      errors.push_back("cycle engine result differs from the event engine's");
  }

  rt::RuntimeConfig cfg_;
  rt::MulticastRuntime rtm_{cfg_};
  std::vector<Net> nets_;
  std::vector<analysis::Placement> placements_;
  std::vector<std::vector<analysis::Placement>> forests_;
};

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"paper_mix", "stream_clean",
                                                 "stream_faulty", "static_screen"};
  return names;
}

std::unique_ptr<Workload> make_workload(const std::string& name) {
  if (name == "paper_mix") return std::make_unique<PaperMix>();
  if (name == "stream_clean") return std::make_unique<StreamClean>();
  if (name == "stream_faulty") return std::make_unique<StreamFaulty>();
  if (name == "static_screen") return std::make_unique<StaticScreen>();
  return nullptr;
}

RecorderProbe probe_recorder(std::uint64_t seed, int rounds) {
  PaperMix paper;
  paper.setup(seed);
  return paper.probe_recorder(rounds);
}

}  // namespace pcmbench
