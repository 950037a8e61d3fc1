#pragma once
// Fused inference kernels for the RelGAT / GCN execution plans.
//
// Each kernel operates on raw row-major double blocks over an explicit
// node-row range [n0, n1) and edge range [e0, e1) — one graph's slice of a
// CSR-batched forward — so batched execution fans out per graph with
// disjoint writes (thread-count bit-identity for free).
//
// Parity contract: every accumulation order here replicates the training
// ops in src/tensor/ops.cpp exactly — k-ascending matmul with the same
// zero-operand skip, bias added after the full product, edge-ascending
// segment softmax/aggregation, per-row layer-norm statistics in column
// order — so a plan forward is bit-identical to the training-path forward
// on default builds (see DESIGN.md "Inference engine").

#include <cstddef>
#include <cstdint>

#if defined(__GNUC__) || defined(__clang__)
#define STCO_RESTRICT __restrict__
#else
#define STCO_RESTRICT
#endif

namespace stco::gnn::infer {

/// One RelGAT layer's prepacked weights as raw views. Per-head projection
/// blocks are packed column-wise (head h owns columns [h*head_dim,
/// (h+1)*head_dim)), matching the training path's head concatenation; the
/// attention vector a_h (2*head_dim x 1) is split into its z[dst] half
/// (a_dst) and message half (a_msg).
struct GatLayerView {
  std::size_t heads = 0;
  std::size_t head_dim = 0;
  std::size_t hidden = 0;    ///< heads * head_dim == layer width
  std::size_t edge_dim = 0;  ///< 1 in the use_edge_features=false ablation
  const double* w = nullptr;        ///< hidden x hidden
  const double* we = nullptr;       ///< edge_dim x hidden
  const double* a_dst = nullptr;    ///< hidden
  const double* a_msg = nullptr;    ///< hidden
  const double* bias = nullptr;     ///< hidden
  const double* ln_gain = nullptr;  ///< hidden, nullptr when no layer norm
  const double* ln_bias = nullptr;  ///< hidden
  bool residual = true;
};

/// Arena-backed scratch for one batched forward, indexed by global node /
/// edge ids (a graph task only touches its own slice).
struct GatScratch {
  double* z = nullptr;        ///< N x hidden   node projections
  double* msg = nullptr;      ///< E x hidden   relational messages (the edge
                              ///<               projection folds into these)
  double* logit = nullptr;    ///< E x heads    logits, reused as alpha
  double* seg_max = nullptr;  ///< N x heads    softmax max per (dst, head)
  double* seg_sum = nullptr;  ///< N x heads    softmax sum per (dst, head)
  double* agg = nullptr;      ///< N x hidden   attention-weighted sums
};

/// y[r, :] = x[r, :] @ w + b for rows [r0, r1); w is (in x out) row-major,
/// b is out-wide (nullptr: no bias term). Strides are row strides.
void k_linear(const double* STCO_RESTRICT x, std::size_t xstride,
              double* STCO_RESTRICT y, std::size_t ystride, std::size_t r0,
              std::size_t r1, std::size_t in, std::size_t out,
              const double* STCO_RESTRICT w, const double* STCO_RESTRICT b);

/// One full RelGAT layer (projection, messages, attention, aggregation,
/// bias, optional LayerNorm, ELU, optional residual), applied to `h`
/// (N x hidden, updated in place) for one graph's node range [n0, n1) and
/// edge range [e0, e1). `edge_feat` is the merged edge-feature block
/// (E x edge_dim); nullptr selects the constant-1 ablation column.
void k_gat_layer(const GatLayerView& L, const GatScratch& s,
                 const std::uint32_t* src, const std::uint32_t* dst,
                 std::size_t n0, std::size_t n1, std::size_t e0, std::size_t e1,
                 const double* edge_feat, double* h);

/// Column mean of h rows [n0, n1) into out[0..cols): replicates
/// tensor::mean_rows (1/n scaling applied per term, rows ascending).
void k_mean_rows(const double* STCO_RESTRICT h, std::size_t stride,
                 std::size_t n0, std::size_t n1, std::size_t cols,
                 double* STCO_RESTRICT out);

}  // namespace stco::gnn::infer
