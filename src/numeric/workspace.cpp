#include "src/numeric/workspace.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "src/numeric/contract.hpp"
#include "src/numeric/fpguard.hpp"
#include "src/obs/metrics.hpp"

namespace stco::numeric {

namespace {

// Relative residual target for the BiCGSTAB rung. It asks for an extra
// digit beyond the 1e-12 the Newton loops need: ILU(0) converges in O(1)
// iterations so it tends to land *just* under the tolerance, whereas a
// slow Jacobi-preconditioned solve overshoots well past it on its final
// sweep. Residual physical quantities (e.g. the equilibrium terminal
// current, a pure cancellation) inherit that final-residual gap, so the
// cheap extra digit keeps them insensitive to the preconditioner.
constexpr double kKrylovTol = 1e-14;

// Re-factor the ILU when any matrix entry's relative drift since the last
// factorization exceeds this (worst per-entry rule, see values_fresh).
constexpr double kRefactorThreshold = 0.25;

// A band/dense answer is accepted when its true relative residual is
// below this, even if it misses the (very tight) Krylov tolerance.
constexpr double kDirectResidualTol = 1e-6;

struct LinearMetrics {
  obs::Counter& solves = obs::counter("solver.linear.solves");
  obs::Counter& pattern_builds = obs::counter("solver.linear.pattern_builds");
  obs::Counter& refills = obs::counter("solver.linear.refills");
  obs::Counter& ilu_refactors = obs::counter("solver.linear.ilu_refactors");
  obs::Counter& band_solves = obs::counter("solver.linear.band_solves");
  obs::Counter& dense_fallback = obs::counter("solver.linear.dense_fallback");
  obs::Histogram& iterations =
      obs::histogram("solver.linear.iterations", {2, 5, 10, 20, 40, 80, 160, 320});
  obs::Gauge& workspace_bytes = obs::gauge("solver.workspace_bytes");
};

LinearMetrics& metrics() {
  static LinearMetrics m;
  return m;
}

// Estimated resident footprint of one NewtonWorkspace: the CSR matrix
// (row_ptr + col_idx + values), the cached factored values, the Krylov
// residual scratch, and the ILU factorization (same pattern as a_, so
// roughly another values + col_idx copy when valid). High-water gauge —
// concurrent workspaces report the largest one, which is what an OOM
// post-mortem wants to know.
std::size_t workspace_footprint(const SparseMatrix& a, bool ilu_valid,
                                std::size_t factored_values,
                                std::size_t residual_scratch) {
  const std::size_t nnz = a.values().size();
  std::size_t bytes = (a.rows() + 1) * sizeof(std::size_t)  // row_ptr
                      + nnz * (sizeof(std::size_t) + sizeof(double))
                      + factored_values * sizeof(double)
                      + residual_scratch * sizeof(double);
  if (ilu_valid) bytes += nnz * (sizeof(std::size_t) + sizeof(double));
  return bytes;
}

// Worst per-entry relative drift of `current` against `snapshot`. An
// aggregate norm would be dominated by the largest entries (e.g. O(1)
// Dirichlet rows next to O(1e-11) stencil couplings) and miss
// order-of-magnitude swings in the small ones — and a preconditioner that
// is stale in *any* entry's scale can stall Krylov.
bool values_fresh(const std::vector<double>& current,
                  const std::vector<double>& snapshot) {
  if (snapshot.size() != current.size()) return false;
  double worst = 0.0;
  for (std::size_t k = 0; k < current.size(); ++k) {
    const double scale = std::max(std::fabs(current[k]), std::fabs(snapshot[k]));
    if (scale < 1e-300) continue;
    worst = std::max(worst, std::fabs(current[k] - snapshot[k]) / scale);
    if (worst > kRefactorThreshold) return false;
  }
  return worst <= kRefactorThreshold;
}

// Accept a band/dense solution `x` into `res` when its true relative
// residual (computed in `scratch`) is finite and below kDirectResidualTol.
bool accept_direct(const SparseMatrix& a, const Vec& rhs, double bnorm, Vec&& x,
                   Vec& scratch, IterativeResult& res) {
  a.apply(x, scratch);
  axpy(-1.0, rhs, scratch);
  const double rel = bnorm > 0.0 ? norm2(scratch) / bnorm : norm2(scratch);
  if (!(std::isfinite(rel) && rel < kDirectResidualTol)) return false;
  res.x = std::move(x);
  res.residual = rel;
  res.converged = true;
  res.status.reason = SolveReason::kOk;
  res.status.residual = rel;
  return true;
}

}  // namespace

void NewtonWorkspace::assemble(const TripletBuilder& b) {
  if constexpr (contract::kChecksEnabled) {
    // A NaN/Inf matrix entry here means the upstream residual/Jacobian
    // evaluation is already broken; catching it at assembly names the
    // culprit iteration instead of a mysteriously stalled Krylov solve.
    for (const auto& t : b.entries())
      STCO_REQUIRE(std::isfinite(t.value),
                   "non-finite Jacobian entry handed to NewtonWorkspace::assemble");
  }
  if (has_pattern_ && a_.rows() == b.rows() && a_.cols() == b.cols()) {
    try {
      a_.refill(b);
      ++stats_.refills;
      metrics().refills.add(1);
      return;
    } catch (const std::invalid_argument&) {
      // Pattern changed (new structural entry) — rebuild below.
    }
  }
  a_ = SparseMatrix::from_triplets(b);
  has_pattern_ = true;
  ilu_.invalidate();
  factored_values_.clear();
  ++stats_.pattern_builds;
  metrics().pattern_builds.add(1);
  metrics().workspace_bytes.set_max(static_cast<double>(workspace_footprint(
      a_, false, factored_values_.size(), residual_scratch_.size())));
}

void NewtonWorkspace::reset() {
  a_ = SparseMatrix{};
  has_pattern_ = false;
  ilu_.invalidate();
  factored_values_.clear();
}

bool NewtonWorkspace::ilu_fresh_enough() const {
  if (!ilu_.valid()) return false;
  return values_fresh(a_.values(), factored_values_);
}

IterativeResult NewtonWorkspace::solve(const Vec& rhs) {
  if (!has_pattern_) throw std::logic_error("NewtonWorkspace::solve: assemble first");
  // Record-only FP sentinel: the solve ladder legitimately detects and
  // recovers from NaN (kNanResidual -> band/dense fallback), so aborting
  // here would break the recovery contract; the contract.fp.* counters
  // still expose how often the hot region raises exceptions.
  FpGuard fp_guard("numeric.newton_workspace.solve", FpGuard::Policy::kRecord);
  // residual_scratch_ is fully overwritten by a_.apply() before every read;
  // poisoning makes any future partial-write bug read back as NaN.
  contract::poison(residual_scratch_);
  metrics().solves.add(1);

  if (!ilu_fresh_enough()) {
    if (ilu_.factor(a_)) {
      factored_values_ = a_.values();
      ++stats_.ilu_factors;
      metrics().ilu_refactors.add(1);
    } else {
      factored_values_.clear();
    }
  }
  const Preconditioner* precond = ilu_.valid() ? &ilu_ : nullptr;
  metrics().workspace_bytes.set_max(static_cast<double>(workspace_footprint(
      a_, ilu_.valid(), factored_values_.size(), residual_scratch_.size())));

  IterativeResult res = solve_bicgstab(a_, rhs, kKrylovTol, 0, precond);
  metrics().iterations.observe(static_cast<double>(res.iterations));
  if (res.converged) {
    ++stats_.krylov_solves;
    return res;
  }

  // Krylov stalled. Banded direct LU is exact up to roundoff; accept its
  // answer when the true residual is small even if it misses the (very
  // tight) Krylov tolerance.
  const double bnorm = norm2(rhs);
  if (auto band = BandLu::factor(a_);
      band && accept_direct(a_, rhs, bnorm, band->solve(rhs), residual_scratch_, res)) {
    ++stats_.band_solves;
    metrics().band_solves.add(1);
    return res;
  }
  if (auto lu = DenseLu::factor(a_.to_dense());
      lu && accept_direct(a_, rhs, bnorm, lu->solve(rhs), residual_scratch_, res)) {
    ++stats_.dense_solves;
    metrics().dense_fallback.add(1);
    return res;
  }
  return res;  // genuinely failed; status carries the Krylov diagnosis
}

void TridiagWorkspace::resize(std::size_t n) {
  diag.assign(n, 0.0);
  rhs.assign(n, 0.0);
  const std::size_t m = n > 0 ? n - 1 : 0;
  lower.assign(m, 0.0);
  upper.assign(m, 0.0);
  c_.resize(n);
  d_.resize(n);
  // Thomas scratch is written front-to-back before any read; poison so a
  // future indexing bug surfaces as NaN instead of stale values.
  contract::poison(c_);
  contract::poison(d_);
}

void TridiagWorkspace::solve(Vec& x) {
  const std::size_t n = diag.size();
  if (lower.size() + 1 != n || upper.size() + 1 != n || rhs.size() != n)
    throw std::invalid_argument("TridiagWorkspace::solve: sizes");
  c_.resize(n);
  d_.resize(n);
  if (std::fabs(diag[0]) < 1e-300)
    throw std::runtime_error("TridiagWorkspace::solve: singular");
  c_[0] = upper.empty() ? 0.0 : upper[0] / diag[0];
  d_[0] = rhs[0] / diag[0];
  for (std::size_t i = 1; i < n; ++i) {
    const double m = diag[i] - lower[i - 1] * c_[i - 1];
    if (std::fabs(m) < 1e-300) throw std::runtime_error("TridiagWorkspace::solve: singular");
    c_[i] = (i + 1 < n) ? upper[i] / m : 0.0;
    d_[i] = (rhs[i] - lower[i - 1] * d_[i - 1]) / m;
  }
  x.resize(n);
  x[n - 1] = d_[n - 1];
  for (std::size_t ii = n - 1; ii-- > 0;) x[ii] = d_[ii] - c_[ii] * x[ii + 1];
}

}  // namespace stco::numeric
