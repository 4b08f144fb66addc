// Tests for the wormhole mesh topology and XY (dimension-ordered) routing.
#include <gtest/gtest.h>

#include "mesh/mesh_topology.hpp"

namespace pcm::mesh {
namespace {

using sim::PortRef;

TEST(MeshTopology, WiringIsSymmetricAndInRange) {
  const auto topo = make_mesh2d(4);
  EXPECT_EQ(sim::check_topology(*topo, /*exhaustive=*/true), "");
}

TEST(MeshTopology, Mesh16x16Checks) {
  const auto topo = make_mesh2d(16);
  EXPECT_EQ(topo->num_nodes(), 256);
  EXPECT_EQ(topo->radix(), 5);
  EXPECT_EQ(sim::check_topology(*topo, /*exhaustive=*/false), "");
}

TEST(MeshTopology, EdgePortsUnwired) {
  const auto topo = make_mesh2d(4);
  const MeshShape& s = topo->shape();
  const NodeId corner = s.node_at({0, 0});
  EXPECT_FALSE(topo->link(corner, 0).valid());  // x-
  EXPECT_FALSE(topo->link(corner, 2).valid());  // y-
  EXPECT_TRUE(topo->link(corner, 1).valid());   // x+
  EXPECT_TRUE(topo->link(corner, 3).valid());   // y+
}

TEST(MeshTopology, LinksLandOnFacingPort) {
  const auto topo = make_mesh2d(4);
  const MeshShape& s = topo->shape();
  const NodeId a = s.node_at({1, 2});
  const PortRef east = topo->link(a, 1);
  ASSERT_TRUE(east.valid());
  EXPECT_EQ(east.router, s.node_at({2, 2}));
  EXPECT_EQ(east.port, 0);  // arrives on the neighbour's x- input
}

TEST(MeshTopology, LinkMatchesCoordinateConstruction) {
  // link() steps by the dimension stride; it must agree with rebuilding
  // the neighbour from its coordinates on every (router, port), including
  // mesh edges and (multi-port) ejection channels.
  for (const auto& [dims, nports] :
       {std::pair{std::vector<int>{5, 3}, 1}, std::pair{std::vector<int>{3, 4, 2}, 2}}) {
    const MeshTopology topo(MeshShape(dims), RouteOrder::kHighestFirst, nports);
    const MeshShape& s = topo.shape();
    for (int r = 0; r < topo.num_routers(); ++r) {
      for (int q = 0; q < topo.radix(); ++q) {
        PortRef want;
        if (q < topo.local_port()) {
          std::vector<int> c = s.coords(r);
          c[static_cast<std::size_t>(q / 2)] += (q % 2 == 1) ? 1 : -1;
          if (c[static_cast<std::size_t>(q / 2)] >= 0 &&
              c[static_cast<std::size_t>(q / 2)] < s.dim(q / 2))
            want = PortRef{s.node_at(c), q ^ 1};
        }
        const PortRef got = topo.link(r, q);
        EXPECT_EQ(got.valid(), want.valid()) << "router " << r << " port " << q;
        if (want.valid()) {
          EXPECT_EQ(got.router, want.router) << "router " << r << " port " << q;
          EXPECT_EQ(got.port, want.port) << "router " << r << " port " << q;
        }
      }
    }
  }
}

TEST(MeshTopology, XyRoutesHighestDimensionFirst) {
  // XY routing in our convention: X is dimension 1 (the chain's most
  // significant digit) and is corrected first — this alignment between
  // routing order and chain order is what Theorem 1 relies on.
  const auto topo = make_mesh2d(6);
  const MeshShape& s = topo->shape();
  std::vector<int> cand;
  // From (d0=1, d1=1) to (d0=4, d1=3): correct dimension 1 first.
  topo->route(s.node_at({1, 1}), topo->local_port(), s.node_at({1, 1}),
              s.node_at({4, 3}), cand);
  ASSERT_EQ(cand.size(), 1u);
  EXPECT_EQ(cand[0], 3);  // d1+
  cand.clear();
  // Dimension 1 resolved: route in dimension 0.
  topo->route(s.node_at({1, 3}), 2, s.node_at({1, 1}), s.node_at({4, 3}), cand);
  ASSERT_EQ(cand.size(), 1u);
  EXPECT_EQ(cand[0], 1);  // d0+
  cand.clear();
  // At destination: eject.
  topo->route(s.node_at({4, 3}), 0, s.node_at({1, 1}), s.node_at({4, 3}), cand);
  ASSERT_EQ(cand.size(), 1u);
  EXPECT_EQ(cand[0], topo->local_port());
}

TEST(MeshTopology, LowestFirstOrderIsAvailable) {
  MeshTopology topo(MeshShape::square2d(6), RouteOrder::kLowestFirst);
  std::vector<int> cand;
  topo.route(topo.shape().node_at({1, 1}), topo.local_port(),
             topo.shape().node_at({1, 1}), topo.shape().node_at({4, 3}), cand);
  ASSERT_EQ(cand.size(), 1u);
  EXPECT_EQ(cand[0], 1);  // d0+ first under the misaligned order
  EXPECT_EQ(sim::check_topology(topo, /*exhaustive=*/true), "");
}

TEST(MeshTopology, PathsAreMinimal) {
  const auto topo = make_mesh2d(6);
  for (NodeId s = 0; s < 36; s += 5) {
    for (NodeId d = 0; d < 36; ++d) {
      if (s == d) continue;
      const auto path = sim::trace_path(*topo, s, d);
      // Channels = hops + 1 ejection.
      EXPECT_EQ(static_cast<int>(path.size()), topo->path_hops(s, d) + 1)
          << s << "->" << d;
    }
  }
}

TEST(MeshTopology, XyPathTurnsExactlyOnce) {
  const auto topo = make_mesh2d(8);
  const MeshShape& s = topo->shape();
  const auto path = sim::trace_path(*topo, s.node_at({1, 1}), s.node_at({5, 6}));
  // Highest dimension first: d1 segment, then d0 segment, then ejection.
  int phase = 0;  // 0 = d1, 1 = d0, 2 = ejected
  for (sim::ChannelId ch : path) {
    const int port = ch % topo->radix();
    if (port == topo->local_port()) {
      phase = 2;
      continue;
    }
    const int dim = port / 2;
    EXPECT_LT(phase, 2);
    if (dim == 0) phase = std::max(phase, 1);
    if (dim == 1) {
      EXPECT_EQ(phase, 0);
    }
  }
  EXPECT_EQ(phase, 2);
}

TEST(MeshTopology, ThreeDimensionalMeshRoutes) {
  MeshTopology topo(MeshShape({4, 4, 4}));
  EXPECT_EQ(topo.num_nodes(), 64);
  EXPECT_EQ(topo.radix(), 7);
  EXPECT_EQ(sim::check_topology(topo, /*exhaustive=*/true), "");
}

TEST(MeshTopology, HypercubeECubeRoutes) {
  MeshTopology topo(MeshShape::hypercube(7));
  EXPECT_EQ(topo.num_nodes(), 128);
  EXPECT_EQ(sim::check_topology(topo, /*exhaustive=*/false), "");
  // e-cube: path length == Hamming distance (+1 ejection channel).
  const auto path = sim::trace_path(topo, 0b0000000, 0b1010101);
  EXPECT_EQ(path.size(), 5u);
}

TEST(MeshTopology, ChannelNamesAreDescriptive) {
  const auto topo = make_mesh2d(4);
  EXPECT_EQ(topo->channel_name(0, 1), "mesh(0,0).d0+");
  EXPECT_EQ(topo->channel_name(5, topo->local_port()), "mesh(1,1).local0");
}

TEST(MeshTopology, RejectsBadSide) {
  EXPECT_THROW(make_mesh2d(0), std::invalid_argument);
}

TEST(MeshTopology, MultiPortLocalChannels) {
  MeshTopology topo(MeshShape::square2d(4), RouteOrder::kHighestFirst, /*nports=*/2);
  EXPECT_EQ(topo.ports_per_node(), 2);
  EXPECT_EQ(topo.radix(), 6);
  EXPECT_EQ(sim::check_topology(topo, /*exhaustive=*/true), "");
  // Both local channels eject to the router's node.
  EXPECT_EQ(topo.ejector(5, topo.local_port()), 5);
  EXPECT_EQ(topo.ejector(5, topo.local_port() + 1), 5);
  // Attach points are distinct per NI port.
  const sim::PortRef a = topo.node_attach_port(3, 0);
  const sim::PortRef b = topo.node_attach_port(3, 1);
  EXPECT_EQ(a.router, b.router);
  EXPECT_NE(a.port, b.port);
  EXPECT_THROW((void)topo.node_attach_port(3, 2), std::out_of_range);
  // Ejection offers both channels as candidates.
  std::vector<int> cand;
  topo.route(7, 0, 0, 7, cand);
  EXPECT_EQ(cand.size(), 2u);
}

TEST(MeshTopology, RejectsBadPortCount) {
  EXPECT_THROW(
      MeshTopology(MeshShape::square2d(4), RouteOrder::kHighestFirst, 0),
      std::invalid_argument);
}

TEST(MeshTopology, ClosedFormPathMatchesGenericWalk) {
  // append_path is the static analyzer's hot loop; its closed-form
  // XY enumeration must agree channel-for-channel with the generic
  // route()-driven walk on every pair, for both route orders, for
  // hypercubes, and with multi-port ejection.
  const MeshTopology topos[] = {
      MeshTopology(MeshShape::square2d(5)),
      MeshTopology(MeshShape::square2d(5), RouteOrder::kLowestFirst),
      MeshTopology(MeshShape::hypercube(4)),
      MeshTopology(MeshShape({3, 4, 2})),
      MeshTopology(MeshShape::square2d(4), RouteOrder::kHighestFirst,
                   /*nports=*/2),
  };
  for (const MeshTopology& topo : topos) {
    for (NodeId s = 0; s < topo.num_nodes(); ++s)
      for (NodeId d = 0; d < topo.num_nodes(); ++d) {
        std::vector<sim::ChannelId> fast;
        topo.append_path(s, d, fast);
        if (s == d) {
          EXPECT_TRUE(fast.empty());
          continue;
        }
        EXPECT_EQ(fast, sim::trace_path(topo, s, d)) << s << "->" << d;
      }
  }
}

}  // namespace
}  // namespace pcm::mesh
