#pragma once
// Levenberg-Marquardt nonlinear least squares with a forward-difference
// Jacobian and optional box constraints. Used for compact-model parameter
// extraction against measured I-V curves (paper Fig. 3).

#include <functional>
#include <vector>

#include "src/numeric/matrix.hpp"
#include "src/numeric/status.hpp"

namespace stco::numeric {

struct LmOptions {
  std::size_t max_iterations = 200;
};

struct LmResult {
  Vec params;
  double cost = 0.0;  ///< 0.5 * sum(r^2) at the solution
  std::size_t iterations = 0;
  bool converged = false;  ///< shorthand for status.ok()
  SolveStatus status;      ///< structured termination record
};

/// Residual function: fills `residuals` (fixed size) from `params`.
using ResidualFn = std::function<void(const Vec& params, Vec& residuals)>;

/// Minimize 0.5*||r(p)||^2 starting from `initial`.
///
/// `lower`/`upper` (if non-empty) clamp parameters each step; sizes must
/// match `initial`.
[[nodiscard]] LmResult levenberg_marquardt(const ResidualFn& fn, Vec initial,
                                           std::size_t n_residuals,
                                           const LmOptions& opts = {},
                                           const Vec& lower = {}, const Vec& upper = {});

}  // namespace stco::numeric
