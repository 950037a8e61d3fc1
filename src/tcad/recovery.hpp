#pragma once
// Shared convergence-recovery policy for the TCAD solvers (nonlinear
// Poisson, drift-diffusion, quasi-1D transport).

#include <cstddef>

namespace stco::tcad {

/// Bias-continuation recovery: when the direct solve at the target bias
/// fails, the bias step is subdivided adaptively (halving on divergence,
/// down to 2^-max_subdivisions of the full step) and walked from zero bias
/// to the target, re-using each converged solution as the next initial
/// guess. The whole ladder — direct attempt plus every continuation stage —
/// is bounded by a shared iteration / wall-clock budget so a pathological
/// technology point fails in bounded time with a structured status instead
/// of hanging dataset generation.
struct ContinuationPolicy {
  bool enabled = true;
  std::size_t max_subdivisions = 6;      ///< bias-step halvings before giving up
  std::size_t iteration_budget = 50000;  ///< solver iterations; 0 = unlimited
  double wall_clock_budget = 0.0;        ///< seconds; 0 = unlimited
};

}  // namespace stco::tcad
