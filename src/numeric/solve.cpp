#include "src/numeric/solve.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <stdexcept>

namespace stco::numeric {

namespace {

constexpr std::uint64_t kNegativeZeroBits = 0x8000000000000000ULL;

bool is_negative_zero(double v) { return std::bit_cast<std::uint64_t>(v) == kNegativeZeroBits; }

}  // namespace

std::optional<DenseLu> DenseLu::factor(const Matrix& a) {
  DenseLu f;
  if (!f.refactor(a)) return std::nullopt;
  return f;
}

bool DenseLu::refactor(const Matrix& a) {
  if (a.rows() != a.cols()) throw std::invalid_argument("DenseLu: square required");
  const std::size_t n = a.rows();
  if (lu_.rows() != n) {
    lu_.resize(n, n);
    perm_.resize(n);
    plan_.pivot.resize(n);
    pattern_.clear();
    refactors_ = 0;
    planned_ = false;
  }
  // A one-shot factor keeps no pattern; the second refactor starts one.
  if (++refactors_ == 2) pattern_.assign(n * n, 0);
  const double* src = a.data();
  double* dst = lu_.data();
  // Bit tests, so the copy vectorizes: v + 0.0 differs from v in the sign
  // bit only for -0, and a value outside the pattern has bits the mask
  // lacks.
  std::uint64_t negative_zero_bits = 0;
  std::uint64_t outside_bits = 0;
  if (pattern_.empty()) {
    for (std::size_t i = 0; i < n * n; ++i) {
      const double v = src[i];
      dst[i] = v;
      negative_zero_bits |=
          std::bit_cast<std::uint64_t>(v) & ~std::bit_cast<std::uint64_t>(v + 0.0);
    }
  } else {
    const std::uint64_t* pat = pattern_.data();
    for (std::size_t i = 0; i < n * n; ++i) {
      const double v = src[i];
      dst[i] = v;
      const auto bits = std::bit_cast<std::uint64_t>(v);
      negative_zero_bits |= bits & ~std::bit_cast<std::uint64_t>(v + 0.0);
      outside_bits |= bits & ~pat[i];
    }
  }
  const bool negative_zero = negative_zero_bits != 0;
  if (planned_ && !negative_zero && outside_bits == 0) {
    switch (replay()) {
      case Replay::kOk:
        by_plan_ = true;
        return true;
      case Replay::kSingular:
        by_plan_ = false;
        return false;
      case Replay::kDiverged:
        std::copy(src, src + n * n, dst);
        break;
    }
  }
  by_plan_ = false;
  const bool ok = factor_in_place(!negative_zero);
  planned_ = ok && !negative_zero && !pattern_.empty();
  if (planned_) {
    for (std::size_t i = 0; i < n * n; ++i)
      if (std::bit_cast<std::uint64_t>(src[i]) != 0) pattern_[i] = ~std::uint64_t{0};
    build_plan();
  }
  return ok;
}

// Rows are never moved: logical row i of the factors lives in storage row
// perm_[i], so a pivot swap exchanges two indices. The arithmetic is the
// row-swapping algorithm's.

bool DenseLu::factor_in_place(bool skip_zeros) {
  const std::size_t n = dim();
  double* lu = lu_.data();
  for (std::size_t i = 0; i < n; ++i) perm_[i] = i;

  for (std::size_t k = 0; k < n; ++k) {
    // Partial pivot.
    std::size_t piv = k;
    double best = std::fabs(lu[perm_[k] * n + k]);
    for (std::size_t i = k + 1; i < n; ++i) {
      const double v = std::fabs(lu[perm_[i] * n + k]);
      if (v > best) {
        best = v;
        piv = i;
      }
    }
    if (best < 1e-300) return false;
    plan_.pivot[k] = piv;
    std::swap(perm_[k], perm_[piv]);
    const double* rk = lu + perm_[k] * n;
    const double pivot = rk[k];
    for (std::size_t i = k + 1; i < n; ++i) {
      double* ri = lu + perm_[i] * n;
      const double m = ri[k] / pivot;
      ri[k] = m;
      if (m == 0.0) continue;
      // With a non-finite m, m * 0 is NaN, so every column changes.
      const bool skip = skip_zeros && std::isfinite(m);
      for (std::size_t j = k + 1; j < n; ++j)
        if (!skip || rk[j] != 0.0) ri[j] -= m * rk[j];
    }
  }
  return true;
}

void DenseLu::build_plan() {
  const std::size_t n = dim();
  Plan& p = plan_;
  for (auto* v : {&p.diag, &p.cand_begin, &p.cand, &p.cand_row, &p.prow, &p.elim_begin,
                  &p.elim, &p.zero_begin, &p.zero, &p.ucol_begin, &p.ucol, &p.lcol_begin,
                  &p.lcol, &p.perm})
    v->clear();
  // Structure in storage layout, and the logical -> storage row map.
  std::vector<unsigned char> s(pattern_.begin(), pattern_.end());
  std::vector<std::size_t> rows(n);
  for (std::size_t i = 0; i < n; ++i) rows[i] = i;
  for (std::size_t k = 0; k < n; ++k) {
    p.diag.push_back(rows[k] * n + k);
    p.cand_begin.push_back(p.cand.size());
    for (std::size_t i = k + 1; i < n; ++i)
      if (s[rows[i] * n + k]) {
        p.cand.push_back(rows[i] * n + k);
        p.cand_row.push_back(i);
      }
    std::swap(rows[k], rows[p.pivot[k]]);
    const std::size_t rk = rows[k] * n;
    p.prow.push_back(rk);
    p.elim_begin.push_back(p.elim.size());
    p.zero_begin.push_back(p.zero.size());
    for (std::size_t i = k + 1; i < n; ++i) {
      if (s[rows[i] * n + k])
        p.elim.push_back(rows[i] * n);
      else
        p.zero.push_back(rows[i] * n + k);
    }
    p.ucol_begin.push_back(p.ucol.size());
    for (std::size_t j = k + 1; j < n; ++j)
      if (s[rk + j]) p.ucol.push_back(j);
    // Fill-in.
    for (std::size_t e = p.elim_begin[k]; e < p.elim.size(); ++e)
      for (std::size_t u = p.ucol_begin[k]; u < p.ucol.size(); ++u)
        s[p.elim[e] + p.ucol[u]] = 1;
  }
  p.cand_begin.push_back(p.cand.size());
  p.elim_begin.push_back(p.elim.size());
  p.zero_begin.push_back(p.zero.size());
  p.ucol_begin.push_back(p.ucol.size());
  for (std::size_t i = 0; i < n; ++i) {
    p.lcol_begin.push_back(p.lcol.size());
    for (std::size_t j = 0; j < i; ++j)
      if (s[rows[i] * n + j]) p.lcol.push_back(j);
  }
  p.lcol_begin.push_back(p.lcol.size());
  p.perm = rows;
}

DenseLu::Replay DenseLu::replay() {
  const std::size_t n = dim();
  const Plan& p = plan_;
  double* lu = lu_.data();
  for (std::size_t k = 0; k < n; ++k) {
    // The dense pivot search; every row it skips holds an exact zero.
    std::size_t piv = k;
    double best = std::fabs(lu[p.diag[k]]);
    for (std::size_t c = p.cand_begin[k]; c < p.cand_begin[k + 1]; ++c) {
      const double v = std::fabs(lu[p.cand[c]]);
      const bool better = v > best;
      piv = better ? p.cand_row[c] : piv;
      best = better ? v : best;
    }
    if (best < 1e-300) return Replay::kSingular;
    if (piv != p.pivot[k]) return Replay::kDiverged;
    const double* rk = lu + p.prow[k];
    const double pivot = rk[k];
    const std::size_t* ucol = p.ucol.data() + p.ucol_begin[k];
    const std::size_t nnz = p.ucol_begin[k + 1] - p.ucol_begin[k];
    for (std::size_t e = p.elim_begin[k]; e < p.elim_begin[k + 1]; ++e) {
      double* ri = lu + p.elim[e];
      const double m = ri[k] / pivot;
      ri[k] = m;
      if (m == 0.0) continue;
      if (!std::isfinite(m)) return Replay::kDiverged;
      for (std::size_t t = 0; t < nnz; ++t) ri[ucol[t]] -= m * rk[ucol[t]];
    }
    // The other rows hold +0, which is already 0 / pivot for a positive
    // pivot.
    if (!(pivot > 0.0)) {
      const double zero_m = 0.0 / pivot;
      for (std::size_t z = p.zero_begin[k]; z < p.zero_begin[k + 1]; ++z) lu[p.zero[z]] = zero_m;
    }
  }
  std::copy(p.perm.begin(), p.perm.end(), perm_.begin());
  return Replay::kOk;
}

void DenseLu::substitute(const Vec& b, Vec& x, bool skip_zeros) const {
  const std::size_t n = dim();
  const double* lu = lu_.data();
  x.resize(n);
  for (std::size_t i = 0; i < n; ++i) x[i] = b[perm_[i]];
  // Forward substitution (unit lower).
  for (std::size_t i = 1; i < n; ++i) {
    const double* ri = lu + perm_[i] * n;
    double s = x[i];
    for (std::size_t j = 0; j < i; ++j) {
      if (skip_zeros && ri[j] == 0.0) continue;
      s -= ri[j] * x[j];
    }
    x[i] = s;
  }
  // Back substitution.
  for (std::size_t ii = n; ii-- > 0;) {
    const double* ri = lu + perm_[ii] * n;
    double s = x[ii];
    for (std::size_t j = ii + 1; j < n; ++j) {
      if (skip_zeros && ri[j] == 0.0) continue;
      s -= ri[j] * x[j];
    }
    x[ii] = s / ri[ii];
  }
}

void DenseLu::substitute_planned(const Vec& b, Vec& x) const {
  const std::size_t n = dim();
  const Plan& p = plan_;
  const double* lu = lu_.data();
  x.resize(n);
  for (std::size_t i = 0; i < n; ++i) x[i] = b[perm_[i]];
  for (std::size_t i = 1; i < n; ++i) {
    const double* ri = lu + p.perm[i] * n;
    double s = x[i];
    for (std::size_t c = p.lcol_begin[i]; c < p.lcol_begin[i + 1]; ++c)
      s -= ri[p.lcol[c]] * x[p.lcol[c]];
    x[i] = s;
  }
  for (std::size_t ii = n; ii-- > 0;) {
    const double* ri = lu + p.prow[ii];
    double s = x[ii];
    for (std::size_t c = p.ucol_begin[ii]; c < p.ucol_begin[ii + 1]; ++c)
      s -= ri[p.ucol[c]] * x[p.ucol[c]];
    x[ii] = s / ri[ii];
  }
}

void DenseLu::solve(const Vec& b, Vec& x) const {
  if (b.size() != dim()) throw std::invalid_argument("DenseLu::solve: size");
  const bool negative_zero = std::any_of(b.begin(), b.end(), is_negative_zero);
  if (negative_zero) {
    substitute(b, x, false);
    return;
  }
  if (by_plan_)
    substitute_planned(b, x);
  else
    substitute(b, x, true);
  // A skipped 0 * x[j] is NaN when x[j] is not finite; a non-finite
  // solution may have skipped one, so it is redone without skipping.
  if (!std::all_of(x.begin(), x.end(), [](double v) { return std::isfinite(v); }))
    substitute(b, x, false);
}

Matrix DenseLu::factors() const {
  const std::size_t n = dim();
  Matrix f(n, n);
  for (std::size_t i = 0; i < n; ++i)
    std::copy(lu_.row_ptr(perm_[i]), lu_.row_ptr(perm_[i]) + n, f.row_ptr(i));
  return f;
}

Vec DenseLu::solve(const Vec& b) const {
  Vec x;
  solve(b, x);
  return x;
}

Vec solve_dense(const Matrix& a, const Vec& b) {
  auto lu = DenseLu::factor(a);
  if (!lu) throw std::runtime_error("solve_dense: singular matrix");
  return lu->solve(b);
}

Vec solve_tridiagonal(const Vec& lower, const Vec& diag, const Vec& upper, const Vec& b) {
  const std::size_t n = diag.size();
  if (lower.size() + 1 != n || upper.size() + 1 != n || b.size() != n)
    throw std::invalid_argument("solve_tridiagonal: sizes");
  Vec c(n), d(n);
  c[0] = upper.empty() ? 0.0 : upper[0] / diag[0];
  d[0] = b[0] / diag[0];
  for (std::size_t i = 1; i < n; ++i) {
    const double m = diag[i] - lower[i - 1] * c[i - 1];
    if (std::fabs(m) < 1e-300) throw std::runtime_error("solve_tridiagonal: singular");
    c[i] = (i + 1 < n) ? upper[i] / m : 0.0;
    d[i] = (b[i] - lower[i - 1] * d[i - 1]) / m;
  }
  Vec x(n);
  x[n - 1] = d[n - 1];
  for (std::size_t ii = n - 1; ii-- > 0;) x[ii] = d[ii] - c[ii] * x[ii + 1];
  return x;
}

namespace {

/// Sync the structured status with the legacy fields and classify the
/// terminal state of an iterative Krylov solve.
void finish_iterative(IterativeResult& res, std::size_t max_iter, bool breakdown) {
  res.status.iterations = res.iterations;
  res.status.residual = res.residual;
  if (res.converged) {
    res.status.reason = SolveReason::kOk;
  } else if (!std::isfinite(res.residual)) {
    res.status.reason = SolveReason::kNanResidual;
  } else if (breakdown) {
    res.status.reason = SolveReason::kSingularJacobian;
  } else if (res.iterations >= max_iter) {
    res.status.reason = SolveReason::kMaxIterations;
  } else {
    res.status.reason = SolveReason::kSingularJacobian;
  }
}

}  // namespace

IterativeResult solve_cg(const SparseMatrix& a, const Vec& b, double tol,
                         std::size_t max_iter, const Preconditioner* precond) {
  const std::size_t n = b.size();
  if (max_iter == 0) max_iter = 4 * n + 100;
  IterativeResult res;
  res.x.assign(n, 0.0);
  const double bnorm = norm2(b);
  if (bnorm == 0.0) {
    res.converged = true;
    finish_iterative(res, max_iter, false);
    return res;
  }
  JacobiPreconditioner jacobi;
  if (!precond) {
    jacobi.refresh(a);
    precond = &jacobi;
  }

  Vec r = b;  // x0 = 0
  Vec z, ap;
  precond->apply(r, z);
  Vec p = z;
  double rz = dot(r, z);

  bool breakdown = false;
  for (std::size_t it = 0; it < max_iter; ++it) {
    a.apply(p, ap);
    const double pap = dot(p, ap);
    if (std::fabs(pap) < 1e-300) {
      breakdown = true;
      break;
    }
    const double alpha = rz / pap;
    axpy(alpha, p, res.x);
    axpy(-alpha, ap, r);
    res.iterations = it + 1;
    res.residual = norm2(r) / bnorm;
    if (res.residual < tol) {
      res.converged = true;
      break;
    }
    if (!std::isfinite(res.residual)) break;
    precond->apply(r, z);
    const double rz_new = dot(r, z);
    const double beta = rz_new / rz;
    rz = rz_new;
    for (std::size_t i = 0; i < n; ++i) p[i] = z[i] + beta * p[i];
  }
  finish_iterative(res, max_iter, breakdown);
  return res;
}

IterativeResult solve_bicgstab(const SparseMatrix& a, const Vec& b, double tol,
                               std::size_t max_iter, const Preconditioner* precond) {
  const std::size_t n = b.size();
  if (max_iter == 0) max_iter = 8 * n + 200;
  IterativeResult res;
  res.x.assign(n, 0.0);
  const double bnorm = norm2(b);
  if (bnorm == 0.0) {
    res.converged = true;
    finish_iterative(res, max_iter, false);
    return res;
  }
  JacobiPreconditioner jacobi;
  if (!precond) {
    jacobi.refresh(a);
    precond = &jacobi;
  }

  Vec r = b;
  Vec r0 = r;
  double rho = 1.0, alpha = 1.0, omega = 1.0;
  Vec v(n, 0.0), p(n, 0.0);
  Vec phat, shat, s, t;  // hoisted: reused every iteration

  bool breakdown = false;
  for (std::size_t it = 0; it < max_iter && !breakdown; ++it) {
    const double rho_new = dot(r0, r);
    if (std::fabs(rho_new) < 1e-300) {
      breakdown = true;
      break;
    }
    const double beta = (rho_new / rho) * (alpha / omega);
    rho = rho_new;
    for (std::size_t i = 0; i < n; ++i) p[i] = r[i] + beta * (p[i] - omega * v[i]);
    precond->apply(p, phat);
    a.apply(phat, v);
    const double r0v = dot(r0, v);
    if (std::fabs(r0v) < 1e-300) {
      breakdown = true;
      break;
    }
    alpha = rho / r0v;
    s = r;
    axpy(-alpha, v, s);
    res.iterations = it + 1;
    if (norm2(s) / bnorm < tol) {
      axpy(alpha, phat, res.x);
      res.residual = norm2(s) / bnorm;
      res.converged = true;
      break;
    }
    precond->apply(s, shat);
    a.apply(shat, t);
    const double tt = dot(t, t);
    if (tt < 1e-300) {
      breakdown = true;
      break;
    }
    omega = dot(t, s) / tt;
    axpy(alpha, phat, res.x);
    axpy(omega, shat, res.x);
    r = s;
    axpy(-omega, t, r);
    res.residual = norm2(r) / bnorm;
    if (res.residual < tol) {
      res.converged = true;
      break;
    }
    if (!std::isfinite(res.residual)) break;
    if (std::fabs(omega) < 1e-300) breakdown = true;
  }
  finish_iterative(res, max_iter, breakdown);
  return res;
}

}  // namespace stco::numeric
