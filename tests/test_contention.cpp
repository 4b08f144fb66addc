// Property tests machine-checking the paper's contention claims:
//
//   Theorem 1: OPT-mesh schedules are contention-free on a wormhole mesh
//              with XY routing (and so are U-mesh schedules).
//   Theorem 2: OPT-min schedules are contention-free on a BMIN with
//              turnaround routing (and so are U-min schedules).
//
// Both the static analyzer (lint_tree) and the flit-level simulator's
// conflict counter must agree.  The untuned OPT-tree, by contrast, must
// show contention for at least some placements — that gap is the paper's
// motivation.
#include <gtest/gtest.h>

#include <algorithm>

#include "analysis/sampling.hpp"
#include "bmin/bmin_topology.hpp"
#include "lint/lint.hpp"
#include "mesh/mesh_topology.hpp"
#include "runtime/mcast_runtime.hpp"

namespace pcm {
namespace {

rt::RuntimeConfig machine() {
  rt::RuntimeConfig cfg;
  cfg.machine.send = LinearCost{40, 1.25 / 16.0};
  cfg.machine.recv = LinearCost{30, 1.125 / 16.0};
  cfg.machine.net_fixed = 4;
  cfg.machine.router_delay = 1;
  cfg.machine.bytes_per_cycle = 16;
  cfg.machine.nominal_hops = 8;
  return cfg;
}

struct Scenario {
  int k;
  Bytes payload;
  std::uint64_t seed;
};

class MeshContentionFree : public ::testing::TestWithParam<Scenario> {};

TEST_P(MeshContentionFree, TunedSchedulesHaveZeroConflicts) {
  const auto [k, payload, seed] = GetParam();
  const auto topo = mesh::make_mesh2d(16);
  rt::MulticastRuntime rtm(machine());
  const TwoParam tp = rtm.config().machine.two_param(rtm.wire_bytes(payload, 1));
  const auto placements = analysis::sample_placements(seed, 256, k, 4);
  for (const auto& p : placements) {
    for (McastAlgorithm alg : {McastAlgorithm::kOptMesh, McastAlgorithm::kUMesh}) {
      const MulticastTree tree =
          build_multicast(alg, p.source, p.dests, tp, &topo->shape());
      const auto report =
          lint::lint_tree(tree, *topo, rtm.config(), sim::SimConfig{}, payload);
      EXPECT_TRUE(report.clean())
          << algorithm_name(alg) << " k=" << k << ": "
          << report.describe(tree, *topo);
      sim::Simulator sim(*topo);
      const auto res = rtm.run(sim, tree, payload);
      EXPECT_EQ(res.channel_conflicts, 0)
          << algorithm_name(alg) << " k=" << k << " payload=" << payload;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Placements, MeshContentionFree,
    ::testing::Values(Scenario{4, 256, 11}, Scenario{8, 1024, 12},
                      Scenario{16, 4096, 13}, Scenario{32, 4096, 14},
                      Scenario{32, 16384, 15}, Scenario{64, 1024, 16},
                      Scenario{128, 512, 17}, Scenario{200, 256, 18}),
    [](const ::testing::TestParamInfo<Scenario>& i) {
      return "k" + std::to_string(i.param.k) + "_b" + std::to_string(i.param.payload);
    });

class BminContentionFree : public ::testing::TestWithParam<Scenario> {};

TEST_P(BminContentionFree, TunedSchedulesHaveZeroConflicts) {
  const auto [k, payload, seed] = GetParam();
  const auto topo = bmin::make_bmin(128, bmin::UpPolicy::kSourceAddress);
  rt::MulticastRuntime rtm(machine());
  const TwoParam tp = rtm.config().machine.two_param(rtm.wire_bytes(payload, 1));
  const auto placements = analysis::sample_placements(seed, 128, k, 4);
  for (const auto& p : placements) {
    for (McastAlgorithm alg : {McastAlgorithm::kOptMin, McastAlgorithm::kUMin}) {
      const MulticastTree tree = build_multicast(alg, p.source, p.dests, tp);
      const auto report =
          lint::lint_tree(tree, *topo, rtm.config(), sim::SimConfig{}, payload);
      EXPECT_TRUE(report.clean())
          << algorithm_name(alg) << " k=" << k << ": "
          << report.describe(tree, *topo);
      sim::Simulator sim(*topo);
      const auto res = rtm.run(sim, tree, payload);
      EXPECT_EQ(res.channel_conflicts, 0)
          << algorithm_name(alg) << " k=" << k << " payload=" << payload;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Placements, BminContentionFree,
    ::testing::Values(Scenario{4, 256, 21}, Scenario{8, 1024, 22},
                      Scenario{16, 4096, 23}, Scenario{32, 4096, 24},
                      Scenario{64, 1024, 25}, Scenario{128, 512, 26}),
    [](const ::testing::TestParamInfo<Scenario>& i) {
      return "k" + std::to_string(i.param.k) + "_b" + std::to_string(i.param.payload);
    });

TEST(UntunedOptTree, ShowsContentionSomewhere) {
  // Sec. 5: "the contention probability also increases which leads to an
  // increasing contention overhead" — with 32 nodes and 4 KB messages on
  // the 16x16 mesh, at least one random placement must exhibit conflicts.
  const auto topo = mesh::make_mesh2d(16);
  rt::MulticastRuntime rtm(machine());
  const auto placements = analysis::sample_placements(31, 256, 32, 8);
  long long total_conflicts = 0;
  for (const auto& p : placements) {
    sim::Simulator sim(*topo);
    const auto res = rtm.run_algorithm(sim, McastAlgorithm::kOptTree, p.source,
                                       p.dests, 4096, &topo->shape());
    total_conflicts += res.channel_conflicts;
  }
  EXPECT_GT(total_conflicts, 0);
}

TEST(UntunedOptTree, AnalyticalCheckerAgreesItConflicts) {
  // lint_tree is exact: its verdict is the simulator's on every placement.
  const auto topo = mesh::make_mesh2d(16);
  rt::MulticastRuntime rtm(machine());
  const TwoParam tp = rtm.config().machine.two_param(rtm.wire_bytes(4096, 1));
  const auto placements = analysis::sample_placements(31, 256, 32, 8);
  int conflicting = 0;
  for (const auto& p : placements) {
    const MulticastTree tree =
        build_multicast(McastAlgorithm::kOptTree, p.source, p.dests, tp);
    const auto report =
        lint::lint_tree(tree, *topo, rtm.config(), sim::SimConfig{}, 4096);
    sim::Simulator sim(*topo);
    EXPECT_EQ(report.contention_free, rtm.run(sim, tree, 4096).channel_conflicts == 0);
    if (!report.contention_free) ++conflicting;
  }
  EXPECT_GT(conflicting, 0);
}

TEST(Hypercube, UCubeAndOptCubeAreContentionFree) {
  // Sec. 6: the technique applies to any network partitionable into
  // contention-free clusters; the hypercube with e-cube routing is the
  // classic case (U-cube).  Our mesh machinery models it directly.
  mesh::MeshTopology topo{MeshShape::hypercube(6)};
  rt::MulticastRuntime rtm(machine());
  const TwoParam tp = rtm.config().machine.two_param(rtm.wire_bytes(2048, 1));
  const auto placements = analysis::sample_placements(77, 64, 16, 6);
  for (const auto& p : placements) {
    for (McastAlgorithm alg : {McastAlgorithm::kOptMesh, McastAlgorithm::kUMesh}) {
      const MulticastTree tree =
          build_multicast(alg, p.source, p.dests, tp, &topo.shape());
      EXPECT_TRUE(
          lint::lint_tree(tree, topo, rtm.config(), sim::SimConfig{}, 2048).clean());
      sim::Simulator sim(topo);
      EXPECT_EQ(rtm.run(sim, tree, 2048).channel_conflicts, 0);
    }
  }
}

TEST(LintDescribe, ListsContendingPairs) {
  const auto topo = mesh::make_mesh2d(16);
  rt::MulticastRuntime rtm(machine());
  const TwoParam tp = rtm.config().machine.two_param(rtm.wire_bytes(4096, 1));
  // Deliberately contending: caller-order chain over a zig-zag placement.
  std::vector<NodeId> dests{255, 1, 254, 2, 253, 3, 252, 4};
  const MulticastTree tree = build_multicast(McastAlgorithm::kOptTree, 128, dests, tp);
  const auto report =
      lint::lint_tree(tree, *topo, rtm.config(), sim::SimConfig{}, 4096);
  ASSERT_FALSE(report.contention_free);
  EXPECT_EQ(report.diagnostics.size(),
            std::min<size_t>(static_cast<size_t>(report.pairs), 64));
  const std::string d = report.describe(tree, *topo);
  EXPECT_NE(d.find("contention: send#"), std::string::npos);
  EXPECT_NE(d.find("mesh("), std::string::npos);
  sim::Simulator sim(*topo);
  EXPECT_GT(rtm.run(sim, tree, 4096).channel_conflicts, 0);
}

}  // namespace
}  // namespace pcm
