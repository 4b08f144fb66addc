// E9 — Engineering microbenchmarks (google-benchmark): costs of the
// building blocks — the O(k) DP, tree expansion, chain sorting, path
// tracing, raw simulator throughput, and membership heartbeat sweeps.
#include <benchmark/benchmark.h>

#include <memory>
#include <numeric>

#include "analysis/sampling.hpp"
#include "bmin/bmin_topology.hpp"
#include "core/algorithms.hpp"
#include "mesh/mesh_topology.hpp"
#include "runtime/mcast_runtime.hpp"
#include "runtime/membership.hpp"

namespace {

using namespace pcm;

void BM_OptSplitTable(benchmark::State& state) {
  const int k = static_cast<int>(state.range(0));
  for (auto _ : state)
    benchmark::DoNotOptimize(opt_split_table(400, 1500, k));
  state.SetComplexityN(k);
}
BENCHMARK(BM_OptSplitTable)->Range(16, 1 << 14)->Complexity(benchmark::oN);

void BM_OptSplitTableExhaustive(benchmark::State& state) {
  const int k = static_cast<int>(state.range(0));
  for (auto _ : state)
    benchmark::DoNotOptimize(opt_split_table_exhaustive(400, 1500, k));
  state.SetComplexityN(k);
}
BENCHMARK(BM_OptSplitTableExhaustive)->Range(16, 1 << 10)->Complexity(benchmark::oNSquared);

void BM_BuildChainSplitTree(benchmark::State& state) {
  const int k = static_cast<int>(state.range(0));
  const SplitTable table = opt_split_table(400, 1500, k);
  Chain chain;
  chain.nodes.resize(k);
  std::iota(chain.nodes.begin(), chain.nodes.end(), 0);
  chain.source_pos = k / 2;
  for (auto _ : state)
    benchmark::DoNotOptimize(build_chain_split_tree(chain, table));
}
BENCHMARK(BM_BuildChainSplitTree)->Range(16, 1 << 12);

void BM_DimensionOrderedChain(benchmark::State& state) {
  const int k = static_cast<int>(state.range(0));
  const MeshShape shape = MeshShape::square2d(64);  // 4096 nodes
  analysis::Rng rng(7);
  const analysis::Placement p =
      analysis::sample_placement(rng, shape.num_nodes(), k);
  for (auto _ : state)
    benchmark::DoNotOptimize(
        make_chain(p.source, p.dests, ChainOrder::kDimensionOrdered, &shape));
}
BENCHMARK(BM_DimensionOrderedChain)->Range(16, 1 << 12);

void BM_TracePathMesh(benchmark::State& state) {
  const auto topo = mesh::make_mesh2d(16);
  NodeId d = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(sim::trace_path(*topo, 0, d));
    d = (d % 255) + 1;
  }
}
BENCHMARK(BM_TracePathMesh);

void BM_TracePathBmin(benchmark::State& state) {
  const auto topo = bmin::make_bmin(128);
  NodeId d = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(sim::trace_path(*topo, 0, d));
    d = (d % 127) + 1;
  }
}
BENCHMARK(BM_TracePathBmin);

void BM_SimulatorMulticast(benchmark::State& state) {
  // Full 32-node 4 KB OPT-mesh multicast on the 16x16 mesh; reports
  // simulated cycles per wall second.
  const auto topo = mesh::make_mesh2d(16);
  rt::MulticastRuntime rtm(rt::RuntimeConfig{});
  const auto placements = analysis::sample_placements(3, 256, 32, 1);
  long long cycles = 0;
  for (auto _ : state) {
    sim::Simulator sim(*topo);
    const auto res = rtm.run_algorithm(sim, McastAlgorithm::kOptMesh,
                                       placements[0].source, placements[0].dests,
                                       4096, &topo->shape());
    benchmark::DoNotOptimize(res.latency);
    cycles += sim.stats().cycles;
  }
  state.counters["sim_cycles/s"] = benchmark::Counter(
      static_cast<double>(cycles), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_SimulatorMulticast)->Unit(benchmark::kMillisecond);

void BM_SimulatorSaturatedMesh(benchmark::State& state) {
  // Raw engine throughput under load: every node of the 16x16 mesh posts
  // a 64-flit unicast to the diagonally opposite node, all ready at cycle
  // 0, so routers stay busy and arbitration contends heavily.  No runtime
  // layer — this isolates the simulator hot path and reports flit-channel
  // traversals per wall second.
  const auto topo = mesh::make_mesh2d(16);
  const int n = topo->num_nodes();
  long long hops = 0;
  for (auto _ : state) {
    sim::Simulator sim(*topo);
    for (NodeId s = 0; s < n; ++s) {
      sim::Message m;
      m.src = s;
      m.dst = (n - 1) - s;
      m.flits = 64;
      m.ready_time = 0;
      sim.post(m);
    }
    sim.run_until_idle();
    benchmark::DoNotOptimize(sim.stats().cycles);
    hops += sim.stats().flit_hops;
  }
  state.counters["flit_hops/s"] = benchmark::Counter(
      static_cast<double>(hops), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_SimulatorSaturatedMesh)->Unit(benchmark::kMillisecond);

void BM_SimulatorContendedMulticast(benchmark::State& state) {
  const auto topo = mesh::make_mesh2d(16);
  rt::MulticastRuntime rtm(rt::RuntimeConfig{});
  const auto placements = analysis::sample_placements(3, 256, 32, 1);
  for (auto _ : state) {
    sim::Simulator sim(*topo);
    benchmark::DoNotOptimize(
        rtm.run_algorithm(sim, McastAlgorithm::kOptTree, placements[0].source,
                          placements[0].dests, 4096, &topo->shape())
            .latency);
  }
}
BENCHMARK(BM_SimulatorContendedMulticast)->Unit(benchmark::kMillisecond);

void BM_MembershipSweep(benchmark::State& state) {
  // One heartbeat sweep (lease ladder + plurality) of a 16-member group.
  // Arg 0: the 16x16 mesh (0) or the 64-node BMIN (1).  Arg 1: a steady
  // network (0), or one link toggled before every sweep (1), so each
  // sweep also rebuilds the reach sets it reads.
  const std::unique_ptr<sim::Topology> topo =
      state.range(0) == 0 ? std::unique_ptr<sim::Topology>(mesh::make_mesh2d(16))
                          : std::unique_ptr<sim::Topology>(bmin::make_bmin(64));
  const bool toggle = state.range(1) != 0;
  const auto p = analysis::sample_placements(5, topo->num_nodes(), 16, 1)[0];
  std::vector<NodeId> members = {p.source};
  members.insert(members.end(), p.dests.begin(), p.dests.end());
  const int mid = topo->num_routers() / 2;
  int port = 0;
  while (!topo->link(mid, port).valid()) ++port;
  constexpr Time kPeriod = 100;
  constexpr int kToggles = 1 << 12;  // plan length; the run restarts after
  sim::FaultPlan plan;
  for (int i = 0; toggle && i < kToggles; ++i)
    plan.link_events.push_back({(i + 1) * kPeriod, mid, port, i % 2 == 1});
  std::unique_ptr<sim::Simulator> sim;
  std::unique_ptr<rt::MembershipService> svc;
  Time t = kToggles * kPeriod;
  long long sweeps = 0;
  long long rebuilds = 0;
  for (auto _ : state) {
    if (t >= kToggles * kPeriod) {
      state.PauseTiming();
      if (svc) rebuilds += svc->reach_rebuilds();
      sim = std::make_unique<sim::Simulator>(*topo);
      sim->set_fault_plan(plan);
      svc = std::make_unique<rt::MembershipService>(
          *sim, members, rt::MembershipConfig{.heartbeat_period = kPeriod});
      t = 0;
      state.ResumeTiming();
    }
    t += kPeriod;
    sim->advance_idle_to(t);
    benchmark::DoNotOptimize(svc->sweep(members[0]));
    ++sweeps;
  }
  rebuilds += svc->reach_rebuilds();
  state.counters["rebuilds/sweep"] =
      static_cast<double>(rebuilds) / static_cast<double>(sweeps);
}
BENCHMARK(BM_MembershipSweep)->ArgsProduct({{0, 1}, {0, 1}});

}  // namespace
