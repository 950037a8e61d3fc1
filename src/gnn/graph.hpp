#pragma once
// Graph sample representation consumed by the GNN layers.
//
// A Graph is plain data: node features (N x node_dim), a directed edge list,
// edge features (E x edge_dim) and optional regression targets. Message
// passing convention: an edge (src, dst) carries information from src to
// dst, so aggregation (softmax / sum) groups edges by dst.

#include <cstddef>
#include <stdexcept>
#include <vector>

#include "src/tensor/ops.hpp"
#include "src/tensor/tensor.hpp"

namespace stco::gnn {

struct Graph {
  std::size_t num_nodes = 0;
  std::size_t node_dim = 0;
  std::size_t edge_dim = 0;

  tensor::IndexVec edge_src;
  tensor::IndexVec edge_dst;
  std::vector<double> node_features;  ///< row-major num_nodes x node_dim
  std::vector<double> edge_features;  ///< row-major num_edges x edge_dim

  /// Node-regression targets (num_nodes x target_dim) — Poisson emulator.
  std::vector<double> node_targets;
  /// Graph-regression target (1 x target_dim) — IV predictor.
  std::vector<double> graph_targets;

  std::size_t num_edges() const { return edge_src.size(); }

  /// O(E) structural validity scan without throwing. Hot paths gate this
  /// behind STCO_REQUIRE at batch-construction time (gnn::merge_graphs,
  /// the encoders), so STCO_CHECKS=OFF builds pay nothing per forward;
  /// the throwing check() below stays for untrusted inputs
  /// (deserialization, caller-built graphs in tests).
  bool valid() const noexcept {
    if (edge_src.size() != edge_dst.size()) return false;
    if (!tensor::holds_shape(node_features.size(), num_nodes, node_dim)) return false;
    if (!tensor::holds_shape(edge_features.size(), num_edges(), edge_dim)) return false;
    for (auto s : edge_src)
      if (s >= num_nodes) return false;
    for (auto d : edge_dst)
      if (d >= num_nodes) return false;
    return true;
  }

  /// Validate internal consistency; throws std::invalid_argument on error.
  void check() const {
    if (edge_src.size() != edge_dst.size()) throw std::invalid_argument("Graph: edge arrays");
    if (!tensor::holds_shape(node_features.size(), num_nodes, node_dim))
      throw std::invalid_argument("Graph: node feature size");
    if (!tensor::holds_shape(edge_features.size(), num_edges(), edge_dim))
      throw std::invalid_argument("Graph: edge feature size");
    for (auto s : edge_src)
      if (s >= num_nodes) throw std::invalid_argument("Graph: src out of range");
    for (auto d : edge_dst)
      if (d >= num_nodes) throw std::invalid_argument("Graph: dst out of range");
  }

  /// Node features as a constant tensor.
  tensor::Tensor node_tensor() const {
    return tensor::Tensor::from_data(node_features, num_nodes, node_dim);
  }
  /// Edge features as a constant tensor.
  tensor::Tensor edge_tensor() const {
    return tensor::Tensor::from_data(edge_features, num_edges(), edge_dim);
  }
  tensor::Tensor node_target_tensor(std::size_t target_dim) const {
    return tensor::Tensor::from_data(node_targets, num_nodes, target_dim);
  }
  tensor::Tensor graph_target_tensor() const {
    return tensor::Tensor::from_data(graph_targets, 1, graph_targets.size());
  }
};

}  // namespace stco::gnn
