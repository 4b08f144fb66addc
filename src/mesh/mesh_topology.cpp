#include "mesh/mesh_topology.hpp"

#include <sstream>
#include <stdexcept>

namespace pcm::mesh {

MeshTopology::MeshTopology(MeshShape shape, RouteOrder order, int nports)
    : shape_(std::move(shape)), order_(order), nports_(nports) {
  if (nports < 1) throw std::invalid_argument("MeshTopology: nports must be >= 1");
}

sim::PortRef MeshTopology::link(int router, int out_port) const {
  if (out_port >= local_port()) return {};  // ejection channel, not a link
  const int d = out_port / 2;
  const int dir = (out_port % 2 == 1) ? +1 : -1;
  const int next = shape_.digit(router, d) + dir;
  if (next < 0 || next >= shape_.dim(d)) return {};  // mesh edge: unwired
  // The flit arrives at the neighbour on the input port facing back at us:
  // same dimension, opposite direction.
  return sim::PortRef{router + dir * shape_.stride(d),
                      (out_port % 2 == 1) ? out_port - 1 : out_port + 1};
}

sim::PortRef MeshTopology::node_attach(NodeId n) const {
  return sim::PortRef{n, local_port()};
}

sim::PortRef MeshTopology::node_attach_port(NodeId n, int p) const {
  if (p < 0 || p >= nports_)
    throw std::out_of_range("MeshTopology::node_attach_port: bad NI port");
  return sim::PortRef{n, local_port() + p};
}

NodeId MeshTopology::ejector(int router, int out_port) const {
  return out_port >= local_port() ? router : kInvalidNode;
}

void MeshTopology::route(int router, int /*in_port*/, NodeId /*src*/, NodeId dst,
                         std::vector<int>& candidates) const {
  // Dimension-ordered: correct the first unequal dimension in the
  // configured priority order.
  const int n = shape_.ndims();
  for (int i = 0; i < n; ++i) {
    const int d = (order_ == RouteOrder::kHighestFirst) ? n - 1 - i : i;
    const int cur = shape_.digit(router, d);
    const int want = shape_.digit(dst, d);
    if (cur != want) {
      candidates.push_back(2 * d + (want > cur ? 1 : 0));
      return;
    }
  }
  // Arrived: eject through any free consumption channel.
  for (int p = 0; p < nports_; ++p) candidates.push_back(local_port() + p);
}

void MeshTopology::append_path(NodeId src, NodeId dst,
                               std::vector<sim::ChannelId>& out) const {
  if (src == dst) return;
  const int n = shape_.ndims();
  const int rad = radix();
  int cur = src;
  for (int i = 0; i < n; ++i) {
    const int d = (order_ == RouteOrder::kHighestFirst) ? n - 1 - i : i;
    const int stride = shape_.stride(d);
    const int want = shape_.digit(dst, d);
    int cur_digit = shape_.digit(cur, d);
    if (cur_digit == want) continue;
    const bool up = want > cur_digit;
    const int port = 2 * d + (up ? 1 : 0);
    const int step = up ? stride : -stride;
    while (cur_digit != want) {
      out.push_back(cur * rad + port);
      cur += step;
      cur_digit += up ? 1 : -1;
    }
  }
  out.push_back(cur * rad + local_port());
}

std::string MeshTopology::channel_name(int router, int out_port) const {
  std::ostringstream os;
  os << "mesh(";
  const std::vector<int> c = shape_.coords(router);
  for (size_t i = 0; i < c.size(); ++i) os << (i ? "," : "") << c[i];
  os << ")";
  if (out_port >= local_port()) {
    os << ".local" << out_port - local_port();
  } else {
    os << ".d" << out_port / 2 << (out_port % 2 ? "+" : "-");
  }
  return os.str();
}

std::unique_ptr<MeshTopology> make_mesh2d(int side) {
  if (side < 1) throw std::invalid_argument("make_mesh2d: side must be >= 1");
  return std::make_unique<MeshTopology>(MeshShape::square2d(side));
}

}  // namespace pcm::mesh
