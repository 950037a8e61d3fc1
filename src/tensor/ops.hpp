#pragma once
// Differentiable operations over Tensor. All support reverse-mode autograd.
//
// Broadcasting rules are deliberately narrow: binary elementwise ops accept
// equal shapes, a 1 x cols row vector against an N x cols matrix (bias add),
// or a 1 x 1 scalar against anything. Graph ops (gather / scatter / segment
// softmax) take plain index arrays, which is how message passing is built.

#include <cstdint>
#include <vector>

#include "src/exec/context.hpp"
#include "src/tensor/tensor.hpp"

namespace stco::tensor {

using IndexVec = std::vector<std::uint32_t>;

// --- arithmetic -----------------------------------------------------------
/// Cache-blocked matrix product. Large products (forward and backward) are
/// split over disjoint row blocks and run on `ctx`; every output element
/// accumulates its k-terms in ascending order regardless of blocking or
/// schedule, so the result is bit-identical for any thread count. The
/// backward closure keeps a pointer to `ctx`: it must outlive backward(),
/// which holds for Context::serial() (static) and for any training loop
/// whose context spans the loop body.
Tensor matmul(const Tensor& a, const Tensor& b,
              const exec::Context& ctx = exec::Context::serial());
Tensor add(const Tensor& a, const Tensor& b);
Tensor sub(const Tensor& a, const Tensor& b);
Tensor mul(const Tensor& a, const Tensor& b);
Tensor scale(const Tensor& a, double s);
Tensor neg(const Tensor& a);

// --- activations ----------------------------------------------------------
Tensor relu(const Tensor& a);
Tensor leaky_relu(const Tensor& a, double alpha = 0.2);
Tensor elu(const Tensor& a, double alpha = 1.0);
Tensor tanh_t(const Tensor& a);
Tensor sigmoid(const Tensor& a);
Tensor softplus(const Tensor& a);

// --- reductions -----------------------------------------------------------
Tensor sum_all(const Tensor& a);
/// Column means: N x F -> 1 x F (global mean pooling on a single graph).
Tensor mean_rows(const Tensor& a);
/// Per-segment column means: N x F with seg[i] in [0, n_seg) -> n_seg x F.
/// Empty segments yield zero rows.
Tensor segment_mean(const Tensor& a, const IndexVec& seg, std::size_t n_seg);
/// Per-segment column means over CONTIGUOUS segments: row r belongs to
/// segment s iff offsets[s] <= r < offsets[s+1]. `offsets` has n_seg + 1
/// non-decreasing entries with offsets.front() == 0 and
/// offsets.back() == a.rows(). For the equivalent sorted segment-id vector
/// this accumulates in exactly segment_mean's order (bit-identical); it is
/// the pooling entry point shared by batched training pooling and the
/// inference engine's CSR batch layout (gnn::BatchedGraph::node_offset).
Tensor segment_mean_offsets(const Tensor& a, const IndexVec& offsets);

// --- structure ------------------------------------------------------------
Tensor concat_cols(const std::vector<Tensor>& parts);
/// out[i, :] = a[idx[i], :]
Tensor gather_rows(const Tensor& a, const IndexVec& idx);
/// out[idx[i], :] += a[i, :]; out has n_rows rows.
Tensor scatter_add_rows(const Tensor& a, const IndexVec& idx, std::size_t n_rows);

/// out[r, :] = a[r, :] * s[r, 0]; `s` must be rows x 1. Used to apply
/// per-edge attention coefficients to message blocks.
Tensor scale_rows(const Tensor& a, const Tensor& s);

// --- attention / normalization --------------------------------------------
/// Softmax of an E x 1 logit column within segments (e.g. incoming edges of
/// each destination node). Numerically stabilized per segment.
Tensor segment_softmax(const Tensor& logits, const IndexVec& seg, std::size_t n_seg);

/// Per-row layer normalization with learnable gain/bias (both 1 x F).
Tensor layer_norm(const Tensor& x, const Tensor& gain, const Tensor& bias,
                  double eps = 1e-5);

// --- losses ---------------------------------------------------------------
/// Mean squared error against a constant target (gradients do not flow into
/// `target` even if it requires grad).
Tensor mse_loss(const Tensor& pred, const Tensor& target);

}  // namespace stco::tensor
