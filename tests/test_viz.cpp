// Tests for tree/heatmap visualization.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>

#include "analysis/viz.hpp"
#include "obs/recorder.hpp"
#include "runtime/mcast_runtime.hpp"

namespace pcm::analysis {
namespace {

MulticastTree small_tree() {
  const std::array<NodeId, 4> dests{3, 9, 12, 27};
  return build_multicast(McastAlgorithm::kOptMin, 5, dests, TwoParam{20, 55});
}

TEST(TreeAscii, ListsAllNodesOnce) {
  const MulticastTree t = small_tree();
  const std::string s = tree_ascii(t);
  EXPECT_NE(s.find("node 5 (source)"), std::string::npos);
  for (NodeId n : {3, 9, 12, 27})
    EXPECT_NE(s.find("node " + std::to_string(n)), std::string::npos);
  // Exactly 5 lines.
  EXPECT_EQ(std::count(s.begin(), s.end(), '\n'), 5);
}

TEST(TreeAscii, AnnotatesModelTimes) {
  const MulticastTree t = small_tree();
  const TwoParam tp{20, 55};
  const std::string s = tree_ascii(t, &tp);
  EXPECT_NE(s.find("@55"), std::string::npos);  // first receiver at t_end
}

TEST(TreeDot, WellFormedGraph) {
  const MulticastTree t = small_tree();
  const std::string s = tree_dot(t, "g");
  EXPECT_NE(s.find("digraph g {"), std::string::npos);
  EXPECT_NE(s.find("n5 ["), std::string::npos);        // source styled
  EXPECT_EQ(std::count(s.begin(), s.end(), '>'), 4);   // 4 edges
  EXPECT_EQ(s.back(), '\n');
  EXPECT_NE(s.find("}"), std::string::npos);
}

TEST(TreeDot, EdgeLabelsCarrySequence) {
  const MulticastTree t = small_tree();
  const std::string s = tree_dot(t);
  EXPECT_NE(s.find("label=\"0\""), std::string::npos);
}

TEST(Heatmap, ShowsTrafficAndQuietCells) {
  const auto topo = mesh::make_mesh2d(8);
  rt::MulticastRuntime rtm(rt::RuntimeConfig{});
  sim::Simulator sim(*topo);
  obs::FlightRecorder trace;
  sim.set_observer(&trace);
  const std::array<NodeId, 5> dests{9, 18, 27, 36, 45};
  rtm.run_algorithm(sim, McastAlgorithm::kOptMesh, 0, dests, 4096, &topo->shape());
  const std::string map = mesh_heatmap(*topo, trace.snapshot(), sim.now());
  // 8 rows of 8 cells plus the title line.
  EXPECT_EQ(std::count(map.begin(), map.end(), '\n'), 9);
  EXPECT_NE(map.find('.'), std::string::npos);  // some routers untouched
  bool has_traffic = false;
  for (char c : map)
    if (c >= '0' && c <= '9') has_traffic = true;
  EXPECT_TRUE(has_traffic);
}

TEST(Heatmap, Validation) {
  const auto topo = mesh::make_mesh2d(4);
  EXPECT_THROW(mesh_heatmap(*topo, {}, 0), std::invalid_argument);
  mesh::MeshTopology cube(MeshShape::hypercube(3));
  EXPECT_THROW(mesh_heatmap(cube, {}, 100), std::invalid_argument);
  // A release on a channel the mesh does not have is refused, not indexed.
  obs::TraceEvent stray;
  stray.kind = static_cast<std::uint16_t>(obs::EventKind::kRelease);
  stray.a = topo->num_routers();
  EXPECT_THROW(mesh_heatmap(*topo, std::span(&stray, 1), 100),
               std::invalid_argument);
}

}  // namespace
}  // namespace pcm::analysis
