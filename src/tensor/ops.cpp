#include "src/tensor/ops.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "src/numeric/contract.hpp"
#include "src/numeric/fpguard.hpp"

namespace stco::tensor {

namespace {

enum class Broadcast { kSame, kRow, kScalar };

Broadcast classify(const Tensor& a, const Tensor& b) {
  if (a.rows() == b.rows() && a.cols() == b.cols()) return Broadcast::kSame;
  if (b.rows() == 1 && b.cols() == a.cols()) return Broadcast::kRow;
  if (b.size() == 1) return Broadcast::kScalar;
  throw std::invalid_argument("tensor op: incompatible shapes");
}

// Accumulate a full-shaped gradient `g` (rows x cols) into parent `p`,
// reducing over broadcast dimensions as needed.
void accumulate_broadcast(Node& p, const std::vector<double>& g, std::size_t rows,
                          std::size_t cols, Broadcast bc) {
  if (!p.requires_grad) return;
  switch (bc) {
    case Broadcast::kSame:
      for (std::size_t i = 0; i < g.size(); ++i) p.grad[i] += g[i];
      break;
    case Broadcast::kRow:
      for (std::size_t r = 0; r < rows; ++r)
        for (std::size_t c = 0; c < cols; ++c) p.grad[c] += g[r * cols + c];
      break;
    case Broadcast::kScalar: {
      double s = 0.0;
      for (double v : g) s += v;
      p.grad[0] += s;
      break;
    }
  }
}

double broadcast_at(const Node& b, std::size_t r, std::size_t c, std::size_t cols,
                    Broadcast bc) {
  switch (bc) {
    case Broadcast::kSame:
      return b.value[r * cols + c];
    case Broadcast::kRow:
      return b.value[c];
    case Broadcast::kScalar:
      return b.value[0];
  }
  return 0.0;
}

/// Elementwise unary op helper: forward maps value, backward multiplies the
/// output grad by dfwd evaluated from (input value, output value).
template <typename Fwd, typename Dfn>
Tensor unary(const Tensor& a, Fwd fwd, Dfn dfn) {
  Tensor out = Tensor::make_op(a.rows(), a.cols(), {a}, [dfn](Node& n) {
    Node& p = *n.parents[0];
    if (!p.requires_grad) return;
    for (std::size_t i = 0; i < n.value.size(); ++i)
      p.grad[i] += n.grad[i] * dfn(p.value[i], n.value[i]);
  });
  auto& v = out.value();
  const auto& av = a.value();
  for (std::size_t i = 0; i < v.size(); ++i) v[i] = fwd(av[i]);
  return out;
}

}  // namespace

namespace {

// Blocking parameters for matmul. kMatmulParallelFlops gates both the
// row-block fan-out and the backward scratch buffer; the gate depends only
// on problem size (never on the thread count) so the serial and parallel
// contexts take the same accumulation path.
constexpr std::size_t kMatmulRowBlock = 32;
constexpr std::size_t kMatmulKBlock = 64;
constexpr std::size_t kMatmulColBlock = 128;
constexpr double kMatmulParallelFlops = 1 << 18;

/// C[r0:r1, :] += A[r0:r1, :] * B, tiled over k and j for cache reuse. The
/// k-tile loop stays outermost so each output element still accumulates its
/// k-terms in ascending order — bit-identical to the untiled triple loop.
void matmul_rows(const double* av, const double* bv, double* c, std::size_t r0,
                 std::size_t r1, std::size_t k, std::size_t n) {
  for (std::size_t k0 = 0; k0 < k; k0 += kMatmulKBlock) {
    const std::size_t k1 = std::min(k, k0 + kMatmulKBlock);
    for (std::size_t j0 = 0; j0 < n; j0 += kMatmulColBlock) {
      const std::size_t j1 = std::min(n, j0 + kMatmulColBlock);
      for (std::size_t i = r0; i < r1; ++i)
        for (std::size_t kk = k0; kk < k1; ++kk) {
          const double aik = av[i * k + kk];
          if (aik == 0.0) continue;
          for (std::size_t j = j0; j < j1; ++j)
            c[i * n + j] += aik * bv[kk * n + j];
        }
    }
  }
}

/// dA[r0:r1, :] += G[r0:r1, :] * B^T (row range of dA).
void matmul_grad_a_rows(const double* g, const double* bv, double* da,
                        std::size_t r0, std::size_t r1, std::size_t k,
                        std::size_t n) {
  for (std::size_t i = r0; i < r1; ++i)
    for (std::size_t j = 0; j < n; ++j) {
      const double gij = g[i * n + j];
      if (gij == 0.0) continue;
      for (std::size_t kk = 0; kk < k; ++kk)
        da[i * k + kk] += gij * bv[kk * n + j];
    }
}

/// dB[k0:k1, :] += A[:, k0:k1]^T * G (row range of dB; i stays ascending per
/// element, matching the full serial loop).
void matmul_grad_b_rows(const double* av, const double* g, double* db,
                        std::size_t k0, std::size_t k1, std::size_t m,
                        std::size_t k, std::size_t n) {
  for (std::size_t i = 0; i < m; ++i)
    for (std::size_t kk = k0; kk < k1; ++kk) {
      const double aik = av[i * k + kk];
      if (aik == 0.0) continue;
      for (std::size_t j = 0; j < n; ++j) db[kk * n + j] += aik * g[i * n + j];
    }
}

/// Run `kernel(r0, r1, dst)` over [0, nrows), fanned out in row blocks on
/// `ctx` when the problem is large enough. Small problems write straight
/// into `grad`; large ones accumulate into a zeroed scratch first and then
/// fold the scratch into `grad` in index order. The scratch path is chosen
/// by size alone, keeping serial and parallel results bit-identical.
template <typename Kernel>
void blocked_grad(std::vector<double>& grad, std::size_t nrows, double flops,
                  const exec::Context& ctx, Kernel&& kernel) {
  const std::size_t nblocks =
      nrows == 0 ? 0 : (nrows + kMatmulRowBlock - 1) / kMatmulRowBlock;
  if (flops < kMatmulParallelFlops || nblocks < 2) {
    kernel(std::size_t{0}, nrows, grad.data());
    return;
  }
  std::vector<double> scratch(grad.size(), 0.0);
  ctx.parallel_for(nblocks, [&](std::size_t blk) {
    const std::size_t r0 = blk * kMatmulRowBlock;
    kernel(r0, std::min(nrows, r0 + kMatmulRowBlock), scratch.data());
  });
  for (std::size_t i = 0; i < grad.size(); ++i) grad[i] += scratch[i];
}

}  // namespace

Tensor matmul(const Tensor& a, const Tensor& b, const exec::Context& ctx) {
  if (a.cols() != b.rows()) throw std::invalid_argument("matmul: shape");
  const std::size_t m = a.rows(), k = a.cols(), n = b.cols();
  const double flops = static_cast<double>(m) * static_cast<double>(k) *
                       static_cast<double>(n);
  const exec::Context* ctxp = &ctx;  // must outlive backward(); see ops.hpp
  Tensor out = Tensor::make_op(m, n, {a, b}, [m, k, n, flops, ctxp](Node& node) {
    Node& pa = *node.parents[0];
    Node& pb = *node.parents[1];
    if (pa.requires_grad)
      blocked_grad(pa.grad, m, flops, *ctxp,
                   [&](std::size_t r0, std::size_t r1, double* dst) {
                     matmul_grad_a_rows(node.grad.data(), pb.value.data(), dst,
                                        r0, r1, k, n);
                   });
    if (pb.requires_grad)
      blocked_grad(pb.grad, k, flops, *ctxp,
                   [&](std::size_t k0, std::size_t k1, double* dst) {
                     matmul_grad_b_rows(pa.value.data(), node.grad.data(), dst,
                                        k0, k1, m, k, n);
                   });
  });
  auto& c = out.value();
  // Record-only: overflow to inf in a forward pass is survivable (the loss
  // goes non-finite and the trainer sees it), but the contract.fp.* counters
  // localize it to the matmul hot region. Parallel blocks run on worker
  // threads whose FP flags this guard cannot see; the serial path and the
  // submitting thread's share of work are still covered.
  numeric::FpGuard fp_guard("tensor.matmul", numeric::FpGuard::Policy::kRecord);
  const double* av = a.value().data();
  const double* bv = b.value().data();
  const std::size_t nblocks = m == 0 ? 0 : (m + kMatmulRowBlock - 1) / kMatmulRowBlock;
  if (flops < kMatmulParallelFlops || nblocks < 2) {
    matmul_rows(av, bv, c.data(), 0, m, k, n);
  } else {
    ctx.parallel_for(nblocks, [&](std::size_t blk) {
      const std::size_t r0 = blk * kMatmulRowBlock;
      matmul_rows(av, bv, c.data(), r0, std::min(m, r0 + kMatmulRowBlock), k, n);
    });
  }
  return out;
}

Tensor add(const Tensor& a, const Tensor& b) {
  const Broadcast bc = classify(a, b);
  const std::size_t rows = a.rows(), cols = a.cols();
  Tensor out = Tensor::make_op(rows, cols, {a, b}, [rows, cols, bc](Node& n) {
    accumulate_broadcast(*n.parents[0], n.grad, rows, cols, Broadcast::kSame);
    accumulate_broadcast(*n.parents[1], n.grad, rows, cols, bc);
  });
  auto& v = out.value();
  for (std::size_t r = 0; r < rows; ++r)
    for (std::size_t c = 0; c < cols; ++c)
      v[r * cols + c] = a.value()[r * cols + c] + broadcast_at(*b.raw(), r, c, cols, bc);
  return out;
}

Tensor sub(const Tensor& a, const Tensor& b) {
  const Broadcast bc = classify(a, b);
  const std::size_t rows = a.rows(), cols = a.cols();
  Tensor out = Tensor::make_op(rows, cols, {a, b}, [rows, cols, bc](Node& n) {
    accumulate_broadcast(*n.parents[0], n.grad, rows, cols, Broadcast::kSame);
    std::vector<double> neg_g(n.grad.size());
    numeric::contract::poison(neg_g);  // fully overwritten just below
    for (std::size_t i = 0; i < n.grad.size(); ++i) neg_g[i] = -n.grad[i];
    accumulate_broadcast(*n.parents[1], neg_g, rows, cols, bc);
  });
  auto& v = out.value();
  for (std::size_t r = 0; r < rows; ++r)
    for (std::size_t c = 0; c < cols; ++c)
      v[r * cols + c] = a.value()[r * cols + c] - broadcast_at(*b.raw(), r, c, cols, bc);
  return out;
}

Tensor mul(const Tensor& a, const Tensor& b) {
  const Broadcast bc = classify(a, b);
  const std::size_t rows = a.rows(), cols = a.cols();
  Tensor out = Tensor::make_op(rows, cols, {a, b}, [rows, cols, bc](Node& n) {
    Node& pa = *n.parents[0];
    Node& pb = *n.parents[1];
    if (pa.requires_grad) {
      for (std::size_t r = 0; r < rows; ++r)
        for (std::size_t c = 0; c < cols; ++c)
          pa.grad[r * cols + c] +=
              n.grad[r * cols + c] * broadcast_at(pb, r, c, cols, bc);
    }
    if (pb.requires_grad) {
      std::vector<double> g(n.grad.size());
      numeric::contract::poison(g);  // fully overwritten just below
      for (std::size_t r = 0; r < rows; ++r)
        for (std::size_t c = 0; c < cols; ++c)
          g[r * cols + c] = n.grad[r * cols + c] * pa.value[r * cols + c];
      accumulate_broadcast(pb, g, rows, cols, bc);
    }
  });
  auto& v = out.value();
  for (std::size_t r = 0; r < rows; ++r)
    for (std::size_t c = 0; c < cols; ++c)
      v[r * cols + c] = a.value()[r * cols + c] * broadcast_at(*b.raw(), r, c, cols, bc);
  return out;
}

Tensor scale(const Tensor& a, double s) {
  return unary(a, [s](double x) { return s * x; }, [s](double, double) { return s; });
}

Tensor neg(const Tensor& a) { return scale(a, -1.0); }

Tensor relu(const Tensor& a) {
  return unary(a, [](double x) { return x > 0 ? x : 0.0; },
               [](double x, double) { return x > 0 ? 1.0 : 0.0; });
}

Tensor leaky_relu(const Tensor& a, double alpha) {
  return unary(a, [alpha](double x) { return x > 0 ? x : alpha * x; },
               [alpha](double x, double) { return x > 0 ? 1.0 : alpha; });
}

Tensor elu(const Tensor& a, double alpha) {
  return unary(a, [alpha](double x) { return x > 0 ? x : alpha * (std::exp(x) - 1.0); },
               [alpha](double x, double y) { return x > 0 ? 1.0 : y + alpha; });
}

Tensor tanh_t(const Tensor& a) {
  return unary(a, [](double x) { return std::tanh(x); },
               [](double, double y) { return 1.0 - y * y; });
}

Tensor sigmoid(const Tensor& a) {
  return unary(a, [](double x) { return 1.0 / (1.0 + std::exp(-x)); },
               [](double, double y) { return y * (1.0 - y); });
}

Tensor softplus(const Tensor& a) {
  return unary(
      a,
      [](double x) { return x > 30 ? x : std::log1p(std::exp(x)); },
      [](double x, double) { return 1.0 / (1.0 + std::exp(-x)); });
}

Tensor sum_all(const Tensor& a) {
  Tensor out = Tensor::make_op(1, 1, {a}, [](Node& n) {
    Node& p = *n.parents[0];
    if (!p.requires_grad) return;
    for (auto& g : p.grad) g += n.grad[0];
  });
  double s = 0.0;
  for (double v : a.value()) s += v;
  out.value()[0] = s;
  return out;
}

Tensor mean_rows(const Tensor& a) {
  const std::size_t rows = a.rows(), cols = a.cols();
  if (rows == 0) throw std::invalid_argument("mean_rows: empty");
  Tensor out = Tensor::make_op(1, cols, {a}, [rows, cols](Node& n) {
    Node& p = *n.parents[0];
    if (!p.requires_grad) return;
    const double inv = 1.0 / static_cast<double>(rows);
    for (std::size_t r = 0; r < rows; ++r)
      for (std::size_t c = 0; c < cols; ++c) p.grad[r * cols + c] += inv * n.grad[c];
  });
  auto& v = out.value();
  const double inv = 1.0 / static_cast<double>(rows);
  for (std::size_t r = 0; r < rows; ++r)
    for (std::size_t c = 0; c < cols; ++c) v[c] += inv * a.value()[r * cols + c];
  return out;
}

Tensor segment_mean(const Tensor& a, const IndexVec& seg, std::size_t n_seg) {
  const std::size_t rows = a.rows(), cols = a.cols();
  if (seg.size() != rows) throw std::invalid_argument("segment_mean: seg size");
  auto counts = std::make_shared<std::vector<double>>(n_seg, 0.0);
  for (auto s : seg) {
    if (s >= n_seg) throw std::out_of_range("segment_mean: segment id");
    ++(*counts)[s];
  }
  Tensor out =
      Tensor::make_op(n_seg, cols, {a}, [seg, counts, cols](Node& n) {
        Node& p = *n.parents[0];
        if (!p.requires_grad) return;
        for (std::size_t r = 0; r < seg.size(); ++r) {
          const double inv = 1.0 / std::max(1.0, (*counts)[seg[r]]);
          for (std::size_t c = 0; c < cols; ++c)
            p.grad[r * cols + c] += inv * n.grad[seg[r] * cols + c];
        }
      });
  auto& v = out.value();
  for (std::size_t r = 0; r < rows; ++r)
    for (std::size_t c = 0; c < cols; ++c)
      v[seg[r] * cols + c] += a.value()[r * cols + c];
  for (std::size_t s = 0; s < n_seg; ++s) {
    const double inv = 1.0 / std::max(1.0, (*counts)[s]);
    for (std::size_t c = 0; c < cols; ++c) v[s * cols + c] *= inv;
  }
  return out;
}

Tensor segment_mean_offsets(const Tensor& a, const IndexVec& offsets) {
  const std::size_t rows = a.rows(), cols = a.cols();
  if (offsets.size() < 2 || offsets.front() != 0 || offsets.back() != rows)
    throw std::invalid_argument("segment_mean_offsets: offsets must cover [0, rows]");
  for (std::size_t s = 0; s + 1 < offsets.size(); ++s)
    if (offsets[s] > offsets[s + 1])
      throw std::invalid_argument("segment_mean_offsets: offsets must be non-decreasing");
  const std::size_t n_seg = offsets.size() - 1;
  Tensor out = Tensor::make_op(n_seg, cols, {a}, [offsets, cols](Node& n) {
    Node& p = *n.parents[0];
    if (!p.requires_grad) return;
    for (std::size_t s = 0; s + 1 < offsets.size(); ++s) {
      const double inv =
          1.0 / std::max(1.0, static_cast<double>(offsets[s + 1] - offsets[s]));
      for (std::size_t r = offsets[s]; r < offsets[s + 1]; ++r)
        for (std::size_t c = 0; c < cols; ++c)
          p.grad[r * cols + c] += inv * n.grad[s * cols + c];
    }
  });
  auto& v = out.value();
  for (std::size_t s = 0; s < n_seg; ++s) {
    for (std::size_t r = offsets[s]; r < offsets[s + 1]; ++r)
      for (std::size_t c = 0; c < cols; ++c) v[s * cols + c] += a.value()[r * cols + c];
    const double inv =
        1.0 / std::max(1.0, static_cast<double>(offsets[s + 1] - offsets[s]));
    for (std::size_t c = 0; c < cols; ++c) v[s * cols + c] *= inv;
  }
  return out;
}

Tensor concat_cols(const std::vector<Tensor>& parts) {
  if (parts.empty()) throw std::invalid_argument("concat_cols: empty");
  const std::size_t rows = parts[0].rows();
  std::size_t total = 0;
  for (const auto& p : parts) {
    if (p.rows() != rows) throw std::invalid_argument("concat_cols: row mismatch");
    total += p.cols();
  }
  std::vector<std::size_t> offsets;
  std::size_t off = 0;
  for (const auto& p : parts) {
    offsets.push_back(off);
    off += p.cols();
  }
  Tensor out = Tensor::make_op(rows, total, parts, [offsets, rows, total](Node& n) {
    for (std::size_t k = 0; k < n.parents.size(); ++k) {
      Node& p = *n.parents[k];
      if (!p.requires_grad) continue;
      const std::size_t pc = p.cols;
      for (std::size_t r = 0; r < rows; ++r)
        for (std::size_t c = 0; c < pc; ++c)
          p.grad[r * pc + c] += n.grad[r * total + offsets[k] + c];
    }
  });
  auto& v = out.value();
  for (std::size_t k = 0; k < parts.size(); ++k) {
    const auto& pv = parts[k].value();
    const std::size_t pc = parts[k].cols();
    for (std::size_t r = 0; r < rows; ++r)
      for (std::size_t c = 0; c < pc; ++c)
        v[r * total + offsets[k] + c] = pv[r * pc + c];
  }
  return out;
}

Tensor gather_rows(const Tensor& a, const IndexVec& idx) {
  const std::size_t cols = a.cols();
  for (auto i : idx)
    if (i >= a.rows()) throw std::out_of_range("gather_rows: index");
  Tensor out = Tensor::make_op(idx.size(), cols, {a}, [idx, cols](Node& n) {
    Node& p = *n.parents[0];
    if (!p.requires_grad) return;
    for (std::size_t r = 0; r < idx.size(); ++r)
      for (std::size_t c = 0; c < cols; ++c)
        p.grad[idx[r] * cols + c] += n.grad[r * cols + c];
  });
  auto& v = out.value();
  for (std::size_t r = 0; r < idx.size(); ++r)
    for (std::size_t c = 0; c < cols; ++c) v[r * cols + c] = a.value()[idx[r] * cols + c];
  return out;
}

Tensor scatter_add_rows(const Tensor& a, const IndexVec& idx, std::size_t n_rows) {
  const std::size_t cols = a.cols();
  if (idx.size() != a.rows()) throw std::invalid_argument("scatter_add_rows: idx size");
  for (auto i : idx)
    if (i >= n_rows) throw std::out_of_range("scatter_add_rows: index");
  Tensor out = Tensor::make_op(n_rows, cols, {a}, [idx, cols](Node& n) {
    Node& p = *n.parents[0];
    if (!p.requires_grad) return;
    for (std::size_t r = 0; r < idx.size(); ++r)
      for (std::size_t c = 0; c < cols; ++c)
        p.grad[r * cols + c] += n.grad[idx[r] * cols + c];
  });
  auto& v = out.value();
  for (std::size_t r = 0; r < idx.size(); ++r)
    for (std::size_t c = 0; c < cols; ++c) v[idx[r] * cols + c] += a.value()[r * cols + c];
  return out;
}

Tensor scale_rows(const Tensor& a, const Tensor& s) {
  if (s.rows() != a.rows() || s.cols() != 1)
    throw std::invalid_argument("scale_rows: s must be rows x 1");
  const std::size_t rows = a.rows(), cols = a.cols();
  Tensor out = Tensor::make_op(rows, cols, {a, s}, [rows, cols](Node& n) {
    Node& pa = *n.parents[0];
    Node& ps = *n.parents[1];
    for (std::size_t r = 0; r < rows; ++r) {
      double acc = 0.0;
      for (std::size_t c = 0; c < cols; ++c) {
        const double g = n.grad[r * cols + c];
        if (pa.requires_grad) pa.grad[r * cols + c] += g * ps.value[r];
        acc += g * pa.value[r * cols + c];
      }
      if (ps.requires_grad) ps.grad[r] += acc;
    }
  });
  auto& v = out.value();
  for (std::size_t r = 0; r < rows; ++r)
    for (std::size_t c = 0; c < cols; ++c)
      v[r * cols + c] = a.value()[r * cols + c] * s.value()[r];
  return out;
}

Tensor segment_softmax(const Tensor& logits, const IndexVec& seg, std::size_t n_seg) {
  if (logits.cols() != 1) throw std::invalid_argument("segment_softmax: expects E x 1");
  if (seg.size() != logits.rows())
    throw std::invalid_argument("segment_softmax: seg size");
  for (auto s : seg)
    if (s >= n_seg) throw std::out_of_range("segment_softmax: segment id");

  const std::size_t e = logits.rows();
  Tensor out = Tensor::make_op(e, 1, {logits}, [seg, n_seg, e](Node& n) {
    Node& p = *n.parents[0];
    if (!p.requires_grad) return;
    // dL/dx_i = y_i * (g_i - sum_{j in seg(i)} g_j y_j)
    std::vector<double> seg_gy(n_seg, 0.0);
    for (std::size_t i = 0; i < e; ++i) seg_gy[seg[i]] += n.grad[i] * n.value[i];
    for (std::size_t i = 0; i < e; ++i)
      p.grad[i] += n.value[i] * (n.grad[i] - seg_gy[seg[i]]);
  });

  auto& y = out.value();
  const auto& x = logits.value();
  std::vector<double> seg_max(n_seg, -1e300), seg_sum(n_seg, 0.0);
  for (std::size_t i = 0; i < e; ++i) seg_max[seg[i]] = std::max(seg_max[seg[i]], x[i]);
  for (std::size_t i = 0; i < e; ++i) {
    y[i] = std::exp(x[i] - seg_max[seg[i]]);
    seg_sum[seg[i]] += y[i];
  }
  for (std::size_t i = 0; i < e; ++i) y[i] /= std::max(seg_sum[seg[i]], 1e-300);
  return out;
}

Tensor layer_norm(const Tensor& x, const Tensor& gain, const Tensor& bias, double eps) {
  const std::size_t rows = x.rows(), cols = x.cols();
  if (gain.rows() != 1 || gain.cols() != cols || bias.rows() != 1 || bias.cols() != cols)
    throw std::invalid_argument("layer_norm: gain/bias must be 1 x F");

  // Cache per-row (mean, inv_std) and normalized values for backward.
  auto cache = std::make_shared<std::vector<double>>(rows * (cols + 1));
  // layout: rows * cols normalized values, then rows inv_std values.

  Tensor out = Tensor::make_op(
      rows, cols, {x, gain, bias}, [rows, cols, cache](Node& n) {
        Node& px = *n.parents[0];
        Node& pg = *n.parents[1];
        Node& pb = *n.parents[2];
        const double* xhat = cache->data();
        const double* inv_std = cache->data() + rows * cols;
        for (std::size_t r = 0; r < rows; ++r) {
          // Per-row backward for y = gain * xhat + bias.
          double mean_gdy = 0.0, mean_gdy_xhat = 0.0;
          for (std::size_t c = 0; c < cols; ++c) {
            const double gdy = pg.value[c] * n.grad[r * cols + c];
            mean_gdy += gdy;
            mean_gdy_xhat += gdy * xhat[r * cols + c];
          }
          mean_gdy /= static_cast<double>(cols);
          mean_gdy_xhat /= static_cast<double>(cols);
          for (std::size_t c = 0; c < cols; ++c) {
            const double gdy = pg.value[c] * n.grad[r * cols + c];
            if (px.requires_grad)
              px.grad[r * cols + c] +=
                  (gdy - mean_gdy - xhat[r * cols + c] * mean_gdy_xhat) * inv_std[r];
            if (pg.requires_grad)
              pg.grad[c] += n.grad[r * cols + c] * xhat[r * cols + c];
            if (pb.requires_grad) pb.grad[c] += n.grad[r * cols + c];
          }
        }
      });

  auto& y = out.value();
  const auto& xv = x.value();
  double* xhat = cache->data();
  double* inv_std = cache->data() + rows * cols;
  for (std::size_t r = 0; r < rows; ++r) {
    double m = 0.0;
    for (std::size_t c = 0; c < cols; ++c) m += xv[r * cols + c];
    m /= static_cast<double>(cols);
    double var = 0.0;
    for (std::size_t c = 0; c < cols; ++c) {
      const double d = xv[r * cols + c] - m;
      var += d * d;
    }
    var /= static_cast<double>(cols);
    inv_std[r] = 1.0 / std::sqrt(var + eps);
    for (std::size_t c = 0; c < cols; ++c) {
      xhat[r * cols + c] = (xv[r * cols + c] - m) * inv_std[r];
      y[r * cols + c] = gain.value()[c] * xhat[r * cols + c] + bias.value()[c];
    }
  }
  return out;
}

Tensor mse_loss(const Tensor& pred, const Tensor& target) {
  if (pred.rows() != target.rows() || pred.cols() != target.cols())
    throw std::invalid_argument("mse_loss: shape");
  const std::size_t n = pred.size();
  Tensor out = Tensor::make_op(1, 1, {pred, target}, [n](Node& node) {
    Node& p = *node.parents[0];
    const Node& t = *node.parents[1];
    if (!p.requires_grad) return;
    const double scale2 = 2.0 * node.grad[0] / static_cast<double>(n);
    for (std::size_t i = 0; i < n; ++i)
      p.grad[i] += scale2 * (p.value[i] - t.value[i]);
  });
  double s = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double d = pred.value()[i] - target.value()[i];
    s += d * d;
  }
  out.value()[0] = s / static_cast<double>(n);
  return out;
}

}  // namespace stco::tensor
