#pragma once
// Shared convergence recovery for the TCAD solvers (nonlinear Poisson,
// drift-diffusion, quasi-1D transport): the continuation policy, the one
// bias-continuation walk all three ladders run, and the bias helpers their
// continuation stages share.

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <utility>

#include "src/mesh/mesh.hpp"
#include "src/numeric/status.hpp"
#include "src/tcad/device.hpp"

namespace stco::tcad {

/// Bias-continuation recovery: when the direct solve at the target bias
/// fails, the bias step is subdivided adaptively (halving on divergence,
/// down to 2^-max_subdivisions of the full step) and walked from zero bias
/// to the target (see continuation_walk). The whole ladder — direct attempt
/// plus every continuation stage — is bounded by a shared iteration budget
/// so a pathological technology point fails in bounded time with a
/// structured status instead of hanging dataset generation.
struct ContinuationPolicy {
  bool enabled = true;
  std::size_t max_subdivisions = 6;      ///< bias-step halvings; 0 = no continuation
  std::size_t iteration_budget = 50000;  ///< solver iterations; 0 = unlimited
};

/// exp(x) with x clamped to [-clamp, clamp] (Boltzmann factors).
inline double clamped_exp(double x, double clamp) {
  return std::exp(std::clamp(x, -clamp, clamp));
}

/// Bias scaled a fraction `f` of the way from the all-at-vs point to `b`.
Bias bias_fraction(const Bias& b, double f);

/// Copy of `m` with the contact Dirichlet potentials re-pinned for bias
/// `b`. Mesh geometry is bias-independent (see build_mesh), so this is all
/// a continuation stage needs to evaluate an intermediate bias.
mesh::DeviceMesh rebias_mesh(const mesh::DeviceMesh& m, const TftDevice& dev,
                             const Bias& b);

/// Bias-continuation walk shared by the TCAD recovery ladders.
///
/// `failed` is the ladder's last failed attempt and `total` the status the
/// ladder has consumed so far. The walk steps the bias fraction f from 0 to
/// 1 by calling `stage(f, last_converged)` — `last_converged` is null until
/// a stage converges — starting at step 0.5, halving the step when a stage
/// diverges and growing it back 2x (up to 0.5) after one converges. Each
/// stage is preceded by a budget check and summed into `total` (iterations,
/// retries, last residual) and `stats` (continuation_retries).
///
/// Returns the final stage at f = 1 with reason kOk when the walk arrives.
/// Otherwise — disabled policy, max_subdivisions == 0, exhausted budget, or
/// a step below 2^-max_subdivisions — it returns the last converged stage
/// (`failed` if none converged) with the reason of what stopped it. Either
/// way the result carries `total` as its status and counts one `recovered`
/// or one `failures` in `stats`. R needs a `numeric::SolveStatus status`.
template <class R, class Stage>
R continuation_walk(R failed, numeric::SolveStatus total, const ContinuationPolicy& cp,
                    numeric::SolveBudget& budget, numeric::RobustnessStats& stats,
                    Stage&& stage) {
  auto finish = [&](R& r, numeric::SolveReason reason) -> R {
    ++(reason == numeric::SolveReason::kOk ? stats.recovered : stats.failures);
    total.reason = reason;
    r.status = total;
    return std::move(r);
  };
  if (!cp.enabled || cp.max_subdivisions == 0) return finish(failed, failed.status.reason);

  const double min_step = 1.0 / static_cast<double>(std::size_t{1} << cp.max_subdivisions);
  double f = 0.0, step = 0.5;
  bool have_converged = false;
  R last = std::move(failed);
  while (f < 1.0) {
    if (budget.exhausted()) {
      ++stats.budget_exhausted;
      return finish(last, numeric::SolveReason::kBudgetExceeded);
    }
    const double f_try = std::min(1.0, f + step);
    ++stats.continuation_retries;
    ++total.retries;
    R r = stage(f_try, have_converged ? &last : nullptr);
    total.iterations += r.status.iterations;
    total.residual = r.status.residual;
    if (r.status.ok()) {
      f = f_try;
      last = std::move(r);
      have_converged = true;
      step = std::min(2.0 * step, 0.5);
    } else {
      step *= 0.5;
      if (step < min_step) return finish(last, r.status.reason);
    }
  }
  return finish(last, numeric::SolveReason::kOk);
}

}  // namespace stco::tcad
