#include "src/gnn/infer/kernels.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>

namespace stco::gnn::infer {

/// Widest node row the branchless-ELU index buffer covers (stack array).
constexpr std::size_t kMaxEluRow = 256;

// Zero y rows then accumulate x @ w with k ascending per output element —
// the same per-element order as tensor::matmul's kernel (its k/j tiling
// does not change it), so every output magnitude matches the training
// matmul bit-for-bit. The one deliberate difference: the training kernel
// skips exact-zero x operands, we keep the FLOP. Adding v*w with v == 0
// contributes exactly +/-0.0, which can only flip the sign of an exact-zero
// accumulator — never a magnitude — and a branchless inner loop is what
// lets the compiler vectorize the j lanes (the k-order per element is
// untouched by that: lanes are independent output elements).
static void matmul_rows_zero(const double* STCO_RESTRICT x, std::size_t xstride,
                             double* STCO_RESTRICT y, std::size_t ystride,
                             std::size_t r0, std::size_t r1, std::size_t in,
                             std::size_t out, const double* STCO_RESTRICT w) {
  // Register-blocked over output columns: each 8-wide block accumulates in
  // registers across the whole k loop (one broadcast + mul + add per k)
  // instead of re-walking the output row per k. Per output element the
  // k-terms still accumulate in ascending order with one rounding per mul
  // and per add, so every value matches the rank-1-update form — and the
  // training matmul — bit-for-bit.
  constexpr std::size_t kBlock = 8;
  for (std::size_t i = r0; i < r1; ++i) {
    const double* STCO_RESTRICT xr = x + i * xstride;
    double* STCO_RESTRICT yr = y + i * ystride;
    std::size_t j = 0;
    for (; j + kBlock <= out; j += kBlock) {
      double acc[kBlock] = {};
      for (std::size_t k = 0; k < in; ++k) {
        const double v = xr[k];
        const double* STCO_RESTRICT wr = w + k * out + j;
        for (std::size_t u = 0; u < kBlock; ++u) acc[u] += v * wr[u];
      }
      for (std::size_t u = 0; u < kBlock; ++u) yr[j + u] = acc[u];
    }
    for (; j < out; ++j) {
      double acc = 0.0;
      for (std::size_t k = 0; k < in; ++k) acc += xr[k] * w[k * out + j];
      yr[j] = acc;
    }
  }
}

void k_linear(const double* STCO_RESTRICT x, std::size_t xstride,
              double* STCO_RESTRICT y, std::size_t ystride, std::size_t r0,
              std::size_t r1, std::size_t in, std::size_t out,
              const double* STCO_RESTRICT w, const double* STCO_RESTRICT b) {
  matmul_rows_zero(x, xstride, y, ystride, r0, r1, in, out, w);
  if (b == nullptr) return;
  // Bias is added after the full product, matching add(matmul(x, w), b).
  for (std::size_t i = r0; i < r1; ++i) {
    double* STCO_RESTRICT yr = y + i * ystride;
    for (std::size_t j = 0; j < out; ++j) yr[j] += b[j];
  }
}

void k_gat_layer(const GatLayerView& L, const GatScratch& s,
                 const std::uint32_t* src, const std::uint32_t* dst,
                 std::size_t n0, std::size_t n1, std::size_t e0, std::size_t e1,
                 const double* edge_feat, double* h) {
  const std::size_t hid = L.hidden, hd = L.head_dim;

  // Node projection for all heads in one pass: the packed (hidden x hidden)
  // block keeps each head's columns contiguous, so every output element
  // accumulates exactly the k-terms of its head's training matmul.
  matmul_rows_zero(h, hid, s.z, hid, n0, n1, hid, hid, L.w);

  for (std::size_t i = n0; i < n1; ++i) {
    double* ar = s.agg + i * hid;
    for (std::size_t j = 0; j < hid; ++j) ar[j] = 0.0;
  }

  // Edge projection + message + logits for ALL heads in one edge pass. The
  // edge projection accumulates straight into the message row (k ascending,
  // the training matmul's per-element order) and the z[src] add lands on
  // top — value-identical to materializing ze = ef @ we first, without the
  // E x hidden store/reload. The ablation path (edge_feat == nullptr) is a
  // constant-1 column against a (1 x hidden) we block: each row reduces to
  // 0.0 + 1.0 * we[j], written out explicitly to keep the rounding (and
  // signed zeros) identical to the training matmul. The message add itself
  // is elementwise, so the full hid-wide row is value-identical to per-head
  // slices. Each head's logit is one ascending accumulator over its
  // [z[dst] || msg] slice — z[dst] terms first, message terms second,
  // exactly the training concat-matmul order — and the per-head chains are
  // independent, so the FPU overlaps them instead of stalling on one serial
  // add chain. Branchless (no zero-operand skip): same sign-of-zero caveat
  // as matmul_rows_zero, magnitudes bit-identical.
  const std::size_t heads = L.heads;
  for (std::size_t e = e0; e < e1; ++e) {
    const double* STCO_RESTRICT zs = s.z + src[e] * hid;
    double* STCO_RESTRICT m = s.msg + e * hid;
    if (edge_feat != nullptr && L.edge_dim > 0) {
      const double* STCO_RESTRICT efr = edge_feat + e * L.edge_dim;
      // k = 0 writes the product directly: 0.0 + v*w rounds to v*w, so
      // skipping the zero-init changes no magnitude (sign-of-zero caveat
      // as usual) and saves a store pass per edge.
      const double v0 = efr[0];
      for (std::size_t j = 0; j < hid; ++j) m[j] = v0 * L.we[j];
      for (std::size_t k = 1; k < L.edge_dim; ++k) {
        const double v = efr[k];
        const double* STCO_RESTRICT wr = L.we + k * hid;
        for (std::size_t j = 0; j < hid; ++j) m[j] += v * wr[j];
      }
      for (std::size_t j = 0; j < hid; ++j) m[j] = zs[j] + m[j];
    } else if (edge_feat != nullptr) {
      // Degenerate 0-wide edge features: the projection is an empty sum.
      for (std::size_t j = 0; j < hid; ++j) m[j] = zs[j] + 0.0;
    } else {
      for (std::size_t j = 0; j < hid; ++j)
        m[j] = zs[j] + (0.0 + 1.0 * L.we[j]);
    }
    const double* STCO_RESTRICT zd = s.z + dst[e] * hid;
    double* STCO_RESTRICT lg = s.logit + e * heads;
    for (std::size_t head = 0; head < heads; ++head) {
      const std::size_t c0 = head * hd;
      const double* STCO_RESTRICT ad = L.a_dst + c0;
      const double* STCO_RESTRICT am = L.a_msg + c0;
      double acc = 0.0;
      for (std::size_t j = 0; j < hd; ++j) acc += zd[c0 + j] * ad[j];
      for (std::size_t j = 0; j < hd; ++j) acc += m[c0 + j] * am[j];
      lg[head] = acc > 0 ? acc : 0.2 * acc;
    }
  }

  // Segment softmax over destination nodes, all heads per pass
  // (tensor::segment_softmax's three edge-ascending passes; each (dst, head)
  // accumulator still sees its edges in ascending order, so the sums round
  // identically to the per-head training loops).
  for (std::size_t i = n0; i < n1; ++i) {
    for (std::size_t head = 0; head < heads; ++head) {
      s.seg_max[i * heads + head] = -1e300;
      s.seg_sum[i * heads + head] = 0.0;
    }
  }
  for (std::size_t e = e0; e < e1; ++e) {
    double* STCO_RESTRICT sm = s.seg_max + dst[e] * heads;
    const double* STCO_RESTRICT lg = s.logit + e * heads;
    for (std::size_t head = 0; head < heads; ++head)
      sm[head] = std::max(sm[head], lg[head]);
  }
  for (std::size_t e = e0; e < e1; ++e) {
    const double* STCO_RESTRICT sm = s.seg_max + dst[e] * heads;
    double* STCO_RESTRICT ss = s.seg_sum + dst[e] * heads;
    double* STCO_RESTRICT lg = s.logit + e * heads;
    for (std::size_t head = 0; head < heads; ++head) {
      const double y = std::exp(lg[head] - sm[head]);
      lg[head] = y;
      ss[head] += y;
    }
  }
  for (std::size_t e = e0; e < e1; ++e) {
    const double* STCO_RESTRICT ss = s.seg_sum + dst[e] * heads;
    double* STCO_RESTRICT lg = s.logit + e * heads;
    for (std::size_t head = 0; head < heads; ++head)
      lg[head] /= std::max(ss[head], 1e-300);
  }

  // agg[dst] += alpha * msg for all heads in one edge pass, edge-ascending
  // per (dst, column); the product is rounded before the add exactly like
  // scale_rows followed by scatter_add_rows.
  for (std::size_t e = e0; e < e1; ++e) {
    const double* STCO_RESTRICT lg = s.logit + e * heads;
    const double* STCO_RESTRICT m = s.msg + e * hid;
    double* STCO_RESTRICT o = s.agg + dst[e] * hid;
    for (std::size_t head = 0; head < heads; ++head) {
      const double a = lg[head];
      const std::size_t c0 = head * hd;
      for (std::size_t j = 0; j < hd; ++j) {
        const double t = m[c0 + j] * a;
        o[c0 + j] += t;
      }
    }
  }

  // Fused post-pass per node row: bias, optional LayerNorm (eps 1e-5),
  // ELU(1.0), optional residual. Every element sees the training sequence
  // of roundings; the bias add rides inside the (inherently scalar) mean
  // reduction, while the normalize / ELU / residual steps stay separate
  // loops — the ELU's exp is a scalar libcall, and folding it into the
  // arithmetic passes would stop the vectorizer from touching them. The z
  // row is dead here and serves as the temporary.
  for (std::size_t i = n0; i < n1; ++i) {
    double* STCO_RESTRICT t = s.z + i * hid;
    const double* STCO_RESTRICT o = s.agg + i * hid;
    if (L.ln_gain != nullptr) {
      double m = 0.0;
      for (std::size_t c = 0; c < hid; ++c) {
        const double v = o[c] + L.bias[c];
        t[c] = v;
        m += v;
      }
      m /= static_cast<double>(hid);
      double var = 0.0;
      for (std::size_t c = 0; c < hid; ++c) {
        const double d = t[c] - m;
        var += d * d;
      }
      var /= static_cast<double>(hid);
      const double inv_std = 1.0 / std::sqrt(var + 1e-5);
      for (std::size_t c = 0; c < hid; ++c) {
        const double xhat = (t[c] - m) * inv_std;
        t[c] = L.ln_gain[c] * xhat + L.ln_bias[c];
      }
    } else {
      for (std::size_t c = 0; c < hid; ++c) t[c] = o[c] + L.bias[c];
    }
    // ELU(1.0). The sign of each element is data-random, so a plain
    // `t > 0 ? t : exp(t) - 1` branch mispredicts constantly (the exp
    // libcall rules out if-conversion). Instead: branchlessly compress the
    // non-positive indices, then run exp over just those — same elements
    // get the same exp, positives pass through untouched. NaN compares
    // false with <= 0.0, stays un-exp'd, and propagates unchanged either
    // way. Falls back to the branchy form for rows wider than the stack
    // index buffer.
    if (hid <= kMaxEluRow) {
      std::uint32_t idx[kMaxEluRow];
      std::size_t cnt = 0;
      for (std::size_t c = 0; c < hid; ++c) {
        idx[cnt] = static_cast<std::uint32_t>(c);
        cnt += t[c] <= 0.0 ? 1u : 0u;
      }
      for (std::size_t k = 0; k < cnt; ++k) {
        const std::size_t c = idx[k];
        t[c] = std::exp(t[c]) - 1.0;
      }
    } else {
      for (std::size_t c = 0; c < hid; ++c)
        t[c] = t[c] > 0 ? t[c] : std::exp(t[c]) - 1.0;
    }
    double* STCO_RESTRICT hr = h + i * hid;
    if (L.residual) {
      for (std::size_t c = 0; c < hid; ++c) hr[c] = t[c] + hr[c];
    } else {
      for (std::size_t c = 0; c < hid; ++c) hr[c] = t[c];
    }
  }
}

void k_mean_rows(const double* STCO_RESTRICT h, std::size_t stride,
                 std::size_t n0, std::size_t n1, std::size_t cols,
                 double* STCO_RESTRICT out) {
  for (std::size_t c = 0; c < cols; ++c) out[c] = 0.0;
  const double inv = 1.0 / static_cast<double>(n1 - n0);
  for (std::size_t r = n0; r < n1; ++r) {
    const double* STCO_RESTRICT hr = h + r * stride;
    for (std::size_t c = 0; c < cols; ++c) out[c] += inv * hr[c];
  }
}

}  // namespace stco::gnn::infer
