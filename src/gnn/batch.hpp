#pragma once
// Graph batching: merge many graphs into one disjoint union so a single
// forward pass covers the whole mini-batch.
//
// The batch carries CSR-style per-graph segment offsets: graph g owns node
// rows [node_offset[g], node_offset[g+1]) and edge rows [edge_offset[g],
// edge_offset[g+1]) of the merged arrays. Pooling (segment_mean_offsets)
// and the fused inference kernels (gnn/infer) share this one index
// structure; graph_id remains as the per-node id view of the same mapping.

#include <span>

#include "src/gnn/models.hpp"

namespace stco::gnn {

struct BatchedGraph {
  Graph merged;                 ///< disjoint union of the inputs
  tensor::IndexVec graph_id;    ///< per node: which input graph it came from
  std::size_t num_graphs = 0;

  /// CSR segment offsets (num_graphs + 1 entries each): graph g's nodes
  /// are merged rows [node_offset[g], node_offset[g+1]), its edges merged
  /// rows [edge_offset[g], edge_offset[g+1]). Edge endpoints inside that
  /// range are already globally offset.
  tensor::IndexVec node_offset;
  tensor::IndexVec edge_offset;

  /// Stacked graph-level targets (num_graphs x target_dim), when every
  /// input graph carried graph_targets.
  std::vector<double> graph_targets;
  std::size_t target_dim = 0;
};

/// Merge graphs (all must share node_dim / edge_dim) into a move-built
/// batch: totals are counted up front, every merged array is reserved
/// exactly once, and per-graph structural validation is hoisted here
/// behind STCO_REQUIRE (zero cost when STCO_CHECKS=OFF; width mismatches
/// and empty batches still throw unconditionally). Node targets are
/// concatenated; graph targets are stacked when present on every input.
BatchedGraph merge_graphs(std::span<const Graph> graphs);

/// DEPRECATED training-path batched forward, kept as a thin forwarder for
/// one release: autograd-capable trunk + segment pooling + head. For
/// inference use gnn::Predictor (src/gnn/infer/predictor.hpp), which runs
/// the same math through the fused plan several times faster.
tensor::Tensor forward_batched(const RelGatModel& model, const BatchedGraph& batch,
                               const exec::Context& ctx = exec::Context::serial());

}  // namespace stco::gnn
