#pragma once
// InferencePlan: an inference-only execution plan compiled once from a
// trained RelGatModel.
//
// compile_plan() snapshots the model's weights into prepacked, 64-byte-
// aligned blocks (per-head projections concatenated column-wise, attention
// vectors split into their z[dst] / message halves) and fixes the fused
// kernel sequence: input projection, num_layers RelGAT layers (projection →
// messages → attention softmax → aggregation → bias/LayerNorm/ELU/residual
// as one pass over each graph slice), mean pooling, MLP head. Execution
// draws all scratch from a per-batch Arena and fans out over exec::Context
// one task per graph — per-graph slices of the CSR batch are disjoint, so
// results are bit-identical at any thread count, and bit-identical to the
// training-path forward per graph (see DESIGN.md "Inference engine").
//
// A plan is an immutable weight snapshot: it does NOT track later training
// steps or weight loads. Owners (gnn::Predictor, TcadSurrogate,
// charlib::CellCharModel) recompile at each mutation point; the persist-
// fingerprint of the packed weights is exposed so a warm-started engine can
// prove it rebuilt its plan exactly once per loaded artifact.

#include <cstdint>
#include <vector>

#include "src/exec/context.hpp"
#include "src/gnn/batch.hpp"
#include "src/gnn/infer/arena.hpp"
#include "src/gnn/infer/kernels.hpp"
#include "src/gnn/models.hpp"
#include "src/persist/manifest.hpp"

namespace stco::gnn::infer {

/// Prepacked affine layer: w is (in x out) row-major, b is out-wide.
struct LinearBlock {
  std::size_t in = 0, out = 0;
  tensor::AlignedVec w, b;
};

/// Prepacked MLP (hidden activation between layers, linear output).
struct MlpBlock {
  std::vector<LinearBlock> layers;
  Activation hidden_act = Activation::kRelu;
  std::size_t max_width = 0;  ///< widest layer input/output, for scratch
  std::size_t in_dim() const { return layers.front().in; }
  std::size_t out_dim() const { return layers.back().out; }
};

/// Prepacked RelGAT layer (see GatLayerView for the packing scheme).
struct GatLayerBlock {
  std::size_t heads = 0, head_dim = 0, edge_dim = 0;
  tensor::AlignedVec w, we;          ///< hidden x hidden / edge_dim x hidden
  tensor::AlignedVec a_dst, a_msg;   ///< hidden each
  tensor::AlignedVec bias;           ///< hidden
  tensor::AlignedVec ln_gain, ln_bias;  ///< hidden each; empty = no norm
};

class InferencePlan {
 public:
  /// Batched forward: returns (num_graphs x out_dim) row-major for graph
  /// regression, else (total_nodes x out_dim). Scratch comes from `arena`
  /// (reset on entry); one task per graph runs on `ctx`.
  std::vector<double> run(const BatchedGraph& batch, Arena& arena,
                          const exec::Context& ctx = exec::Context::serial()) const;

  /// Single-graph forward without the merge copy: (out_dim) for graph
  /// regression, else (num_nodes x out_dim).
  std::vector<double> run_one(const Graph& g, Arena& arena) const;

  const RelGatConfig& config() const { return cfg_; }
  /// persist::Fingerprint over the packed weights + topology. Matches
  /// between two plans iff they snapshot identical weights.
  std::uint64_t fingerprint() const { return fingerprint_; }

 private:
  friend InferencePlan compile_plan(const RelGatModel& model);

  void run_span(const Graph& merged, const tensor::IndexVec& node_offset,
                const tensor::IndexVec& edge_offset, Arena& arena,
                double* out, const exec::Context& ctx) const;

  RelGatConfig cfg_;
  LinearBlock input_proj_;
  std::vector<GatLayerBlock> layers_;
  MlpBlock head_;
  std::uint64_t fingerprint_ = 0;
};

/// Snapshot `model` into an executable plan. Counts toward the
/// gnn.infer.plan_compiles obs counter.
InferencePlan compile_plan(const RelGatModel& model);

// --- shared packing / kernel-dispatch helpers (also used by GcnPlan) ------

/// Pack a training Linear into a LinearBlock.
LinearBlock pack_linear(const Linear& lin);
/// Mix a LinearBlock into a weight fingerprint.
void fingerprint_linear(persist::Fingerprint& fp, const LinearBlock& lb);
/// Pack a training Mlp into an MlpBlock.
MlpBlock pack_mlp(const Mlp& mlp);
/// Run a packed MLP over rows [r0, r1): input rows (stride istride) →
/// output rows (stride ostride), ping-pong scratch with max_width row
/// stride. `ping`/`pong` each hold (r1 rows x max_width).
void run_mlp_rows(const MlpBlock& m, const double* x, std::size_t istride,
                  double* out, std::size_t ostride, std::size_t r0,
                  std::size_t r1, double* ping, double* pong);
/// In-place scalar activation over rows [r0, r1), replicating
/// gnn::apply_activation's elementwise forward exactly.
void k_activation(double* y, std::size_t stride, std::size_t r0,
                  std::size_t r1, std::size_t cols, Activation act);

}  // namespace stco::gnn::infer
