#pragma once
// Full 2-D drift-diffusion device simulation: the TCAD-grade engine.
//
// Gummel decoupling: (1) nonlinear Poisson with carriers exponentially
// tied to the potential around the previous state, (2) electron and (3)
// hole continuity with Scharfetter-Gummel edge fluxes and SRH
// recombination, iterated to self-consistency. Contacts are ideal ohmic
// (equilibrium carrier densities at the contact potential); the gate is
// insulated so carriers live only on semiconductor nodes.
//
// This solver is deliberately expensive — it is what the paper's
// "commercial TCAD (142.07 s per device)" stands in for; the GNN surrogate
// replaces it in the fast path. The cheaper quasi-1D transport solver
// (transport.hpp) is used for bulk dataset generation.

#include "src/tcad/poisson.hpp"

namespace stco::tcad {

/// Source/drain contacts are heavily doped ohmic regions (majority
/// carrier set by the film's carrier type); this is their carrier
/// reservoir density [1/m^3]. Without it an intrinsic film cannot be
/// supplied with carriers and the transistor never turns on.
inline constexpr double kContactDoping = 1e24;

struct DriftDiffusionOptions {
  std::size_t max_gummel = 120;
  ContinuationPolicy continuation{};  ///< bias-continuation recovery
};

struct DriftDiffusionSolution {
  numeric::Vec potential;        ///< [V], all nodes
  numeric::Vec electron_density; ///< [1/m^3], semiconductor nodes (0 elsewhere)
  numeric::Vec hole_density;
  double source_current = 0.0;   ///< terminal currents per device width [A]
  double drain_current = 0.0;    ///< (positive = conventional current in)
  std::size_t gummel_iterations = 0;
  bool converged = false;          ///< mirrors status.ok()
  numeric::SolveStatus status;     ///< structured termination record
  numeric::RobustnessStats stats;  ///< recovery-ladder counters
};

/// Solve the coupled Poisson + electron/hole continuity system.
///
/// Inner-Newton and continuity assembly parallelize over mesh rows on
/// `ctx` with per-row scratch merged in index order — bit-identical to the
/// serial default at any thread count (the PR-3 determinism contract).
[[nodiscard]] DriftDiffusionSolution solve_drift_diffusion(
    const TftDevice& dev, const Bias& bias, const mesh::DeviceMesh& mesh,
    const DriftDiffusionOptions& opts = {},
    const exec::Context& ctx = exec::Context::serial());

/// Convenience overload building the default mesh (finer than the dataset
/// default: this is the reference engine).
[[nodiscard]] DriftDiffusionSolution solve_drift_diffusion(
    const TftDevice& dev, const Bias& bias, std::size_t nx = 32, std::size_t n_ch = 8,
    std::size_t n_ox = 6, const DriftDiffusionOptions& opts = {},
    const exec::Context& ctx = exec::Context::serial());

/// Bernoulli function x / (e^x - 1) with the stable small-|x| expansion
/// (exposed for tests).
double bernoulli(double x);

}  // namespace stco::tcad
