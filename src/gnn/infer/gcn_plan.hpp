#pragma once
// GcnPlan: the inference plan for the cell-characterization GCN
// (charlib::CellCharModel) — input projection, a stack of symmetric-
// normalized GCN layers, mean pooling, and one MLP head per metric.
//
// gnn cannot depend on charlib, so the plan is compiled from the gnn-level
// components the charlib model is built of. Same execution model as
// InferencePlan: prepacked aligned weights, arena scratch, per-graph tasks
// over a CSR batch, accumulation orders bit-identical to the training path
// (GcnLayer::forward + mean_rows + Mlp::forward).

#include <cstdint>
#include <span>
#include <vector>

#include "src/exec/context.hpp"
#include "src/gnn/batch.hpp"
#include "src/gnn/infer/arena.hpp"
#include "src/gnn/infer/plan.hpp"

namespace stco::gnn::infer {

class GcnPlan {
 public:
  GcnPlan() = default;

  /// True once compile_gcn_plan() produced this plan.
  bool compiled() const { return !head_blocks_.empty(); }
  std::uint64_t fingerprint() const { return fingerprint_; }
  std::size_t hidden() const { return hidden_; }

  /// Batched forward over the CSR batch for a subset of heads: returns
  /// (num_graphs x heads.size()) row-major scalar head outputs (each head
  /// must have out_dim 1).
  std::vector<double> run(const BatchedGraph& batch,
                          std::span<const std::size_t> heads, Arena& arena,
                          const exec::Context& ctx = exec::Context::serial()) const;

  /// Single-graph forward without the merge copy.
  std::vector<double> run_one(const Graph& g, std::span<const std::size_t> heads,
                              Arena& arena) const;

 private:
  friend GcnPlan compile_gcn_plan(const Linear& input_proj,
                                  std::span<const GcnLayer> layers,
                                  std::span<const Mlp> heads);

  void run_span(const Graph& merged, const tensor::IndexVec& node_offset,
                const tensor::IndexVec& edge_offset,
                std::span<const std::size_t> heads, Arena& arena, double* out,
                const exec::Context& ctx) const;

  std::size_t node_dim_ = 0;
  std::size_t hidden_ = 0;
  LinearBlock input_proj_;
  std::vector<LinearBlock> gcn_;  ///< per layer: the affine part
  std::vector<Activation> gcn_act_;
  std::vector<MlpBlock> head_blocks_;
  std::uint64_t fingerprint_ = 0;
};

/// Snapshot the GCN trunk + metric heads into an executable plan. Counts
/// toward gnn.infer.plan_compiles.
GcnPlan compile_gcn_plan(const Linear& input_proj,
                         std::span<const GcnLayer> layers,
                         std::span<const Mlp> heads);

}  // namespace stco::gnn::infer
