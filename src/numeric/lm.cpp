#include "src/numeric/lm.hpp"

#include <cmath>
#include <stdexcept>

#include "src/numeric/solve.hpp"

namespace stco::numeric {

namespace {

constexpr double kInitialLambda = 1e-3;
constexpr double kLambdaUp = 10.0;
constexpr double kLambdaDown = 0.5;
constexpr double kGradientTol = 1e-10;  ///< stop when ||J^T r||_inf below this
constexpr double kStepTol = 1e-12;      ///< stop when relative step below this
constexpr double kFdStep = 1e-6;        ///< relative forward-difference step

void clamp_params(Vec& p, const Vec& lower, const Vec& upper) {
  if (!lower.empty())
    for (std::size_t i = 0; i < p.size(); ++i) p[i] = std::max(p[i], lower[i]);
  if (!upper.empty())
    for (std::size_t i = 0; i < p.size(); ++i) p[i] = std::min(p[i], upper[i]);
}

double half_ssq(const Vec& r) {
  double s = 0.0;
  for (double x : r) s += x * x;
  return 0.5 * s;
}

}  // namespace

LmResult levenberg_marquardt(const ResidualFn& fn, Vec initial, std::size_t n_residuals,
                             const LmOptions& opts, const Vec& lower, const Vec& upper) {
  const std::size_t np = initial.size();
  if (np == 0) throw std::invalid_argument("levenberg_marquardt: empty parameter vector");
  if (!lower.empty() && lower.size() != np)
    throw std::invalid_argument("levenberg_marquardt: lower bound size");
  if (!upper.empty() && upper.size() != np)
    throw std::invalid_argument("levenberg_marquardt: upper bound size");

  LmResult out;
  out.params = std::move(initial);
  clamp_params(out.params, lower, upper);

  // Terminal bookkeeping: keep the structured status and the legacy bool in
  // lockstep whatever path returns.
  auto finish = [&](SolveReason reason) -> LmResult& {
    out.status.reason = reason;
    out.status.iterations = out.iterations;
    out.status.residual = out.cost;
    out.converged = out.status.ok();
    return out;
  };

  Vec r(n_residuals), r_trial(n_residuals);
  fn(out.params, r);
  out.cost = half_ssq(r);
  if (!std::isfinite(out.cost)) return finish(SolveReason::kNanResidual);

  Matrix jac(n_residuals, np);
  double lambda = kInitialLambda;

  for (std::size_t it = 0; it < opts.max_iterations; ++it) {
    out.iterations = it + 1;

    // Forward-difference Jacobian.
    Vec p_fd = out.params;
    for (std::size_t j = 0; j < np; ++j) {
      const double h = kFdStep * std::max(1.0, std::fabs(out.params[j]));
      p_fd[j] = out.params[j] + h;
      fn(p_fd, r_trial);
      for (std::size_t i = 0; i < n_residuals; ++i)
        jac(i, j) = (r_trial[i] - r[i]) / h;
      p_fd[j] = out.params[j];
    }

    // Normal equations: (J^T J + lambda diag(J^T J)) dp = -J^T r.
    Matrix jtj(np, np);
    Vec jtr(np, 0.0);
    for (std::size_t i = 0; i < n_residuals; ++i) {
      for (std::size_t a = 0; a < np; ++a) {
        jtr[a] += jac(i, a) * r[i];
        for (std::size_t b = a; b < np; ++b) jtj(a, b) += jac(i, a) * jac(i, b);
      }
    }
    for (std::size_t a = 0; a < np; ++a)
      for (std::size_t b = 0; b < a; ++b) jtj(a, b) = jtj(b, a);

    const double grad_norm = norm_inf(jtr);
    if (!std::isfinite(grad_norm)) return finish(SolveReason::kNanResidual);
    if (grad_norm < kGradientTol) return finish(SolveReason::kOk);

    bool accepted = false;
    bool singular = false;
    for (int tries = 0; tries < 12 && !accepted; ++tries) {
      Matrix lhs = jtj;
      for (std::size_t a = 0; a < np; ++a)
        lhs(a, a) += lambda * std::max(jtj(a, a), 1e-12);
      Vec rhs(np);
      for (std::size_t a = 0; a < np; ++a) rhs[a] = -jtr[a];

      Vec dp;
      try {
        dp = solve_dense(lhs, rhs);
      } catch (const std::runtime_error&) {
        singular = true;
        lambda *= kLambdaUp;
        continue;
      }
      singular = false;

      Vec p_trial = out.params;
      axpy(1.0, dp, p_trial);
      clamp_params(p_trial, lower, upper);
      fn(p_trial, r_trial);
      const double cost_trial = half_ssq(r_trial);

      if (cost_trial < out.cost) {
        const double step = norm2(dp) / std::max(1.0, norm2(out.params));
        out.params = std::move(p_trial);
        r = r_trial;
        out.cost = cost_trial;
        lambda = std::max(lambda * kLambdaDown, 1e-14);
        accepted = true;
        if (step < kStepTol) return finish(SolveReason::kOk);
      } else {
        lambda *= kLambdaUp;
      }
    }
    if (!accepted) {
      // Every damped step was rejected. With a well-posed system that means
      // a local basin floor: report the best point found as converged. If
      // the normal equations were singular at every damping level, surface
      // that instead.
      return finish(singular ? SolveReason::kSingularJacobian : SolveReason::kOk);
    }
  }
  return finish(SolveReason::kMaxIterations);
}

}  // namespace stco::numeric
