// Node addressing for the topologies studied in the paper.
//
// Mesh nodes live in a finite n-dimensional mesh of side lengths
// dims[0..n-1]; the address of node x is the digit string
// delta_{n-1}(x) ... delta_0(x) in the mixed radix given by `dims`
// (delta_0 varies fastest).  BMIN/hypercube nodes use plain binary
// addresses; a hypercube is exactly a mesh whose every side is 2, so the
// same machinery serves both.
#pragma once

#include <vector>

#include "core/types.hpp"

namespace pcm {

/// Shape of an n-dimensional mesh; converts between linear node ids and
/// per-dimension digit vectors.
class MeshShape {
 public:
  MeshShape() = default;
  explicit MeshShape(std::vector<int> dims);

  /// Convenience: square 2-D mesh (the paper's 16x16 and 6x6 networks).
  static MeshShape square2d(int side) { return MeshShape({side, side}); }

  /// n-dimensional hypercube (every side 2).
  static MeshShape hypercube(int n) { return MeshShape(std::vector<int>(n, 2)); }

  [[nodiscard]] int ndims() const { return static_cast<int>(dims_.size()); }
  [[nodiscard]] int dim(int d) const { return dims_.at(d); }
  [[nodiscard]] const std::vector<int>& dims() const { return dims_; }
  [[nodiscard]] int num_nodes() const { return num_nodes_; }

  /// delta_d(x): digit of node x in dimension d.
  [[nodiscard]] int digit(NodeId x, int d) const;

  /// Node-id step of one unit in dimension d (product of the lower sides).
  [[nodiscard]] int stride(int d) const { return strides_.at(d); }

  [[nodiscard]] std::vector<int> coords(NodeId x) const;
  [[nodiscard]] NodeId node_at(const std::vector<int>& c) const;

  /// Manhattan hop distance between two nodes.
  [[nodiscard]] int distance(NodeId a, NodeId b) const;

  [[nodiscard]] bool contains(NodeId x) const { return x >= 0 && x < num_nodes_; }

  /// The dimension-ordered binary relation `<d` of McKinley et al.:
  /// a <d b iff a == b or there is a dimension j with
  /// delta_j(a) < delta_j(b) and delta_i(a) == delta_i(b) for all i > j.
  /// Equivalently: compare digit vectors lexicographically from the
  /// highest dimension down.  Strict version returns a <d b and a != b.
  [[nodiscard]] bool dim_less(NodeId a, NodeId b) const;

 private:
  std::vector<int> dims_;
  std::vector<int> strides_;  // strides_[d] = product of dims_[0..d-1]
  int num_nodes_ = 0;
};

/// Bit position of the most significant bit where a and b differ, or -1 if
/// a == b.  Used by BMIN turnaround routing (the turn stage is
/// msb_diff(src, dst) for deterministic up-routing).
int msb_diff(NodeId a, NodeId b);

/// ceil(log2(x)) for x >= 1.
int ceil_log2(int x);

}  // namespace pcm
