#pragma once
// Nonlinear 2-D Poisson solver (damped Newton over a finite-volume
// discretization with Boltzmann carrier statistics). This is the "expensive
// physics" half of the TCAD substrate: the GNN Poisson emulator is trained
// to reproduce its output (paper Table II, row 1).

#include <cstddef>

#include "src/exec/context.hpp"
#include "src/mesh/mesh.hpp"
#include "src/numeric/matrix.hpp"
#include "src/numeric/status.hpp"
#include "src/tcad/device.hpp"
#include "src/tcad/recovery.hpp"

namespace stco::tcad {

/// Converged solution fields, one entry per mesh node.
struct PoissonSolution {
  numeric::Vec potential;        ///< electrostatic potential [V]
  numeric::Vec electron_density; ///< n [1/m^3] (0 outside the semiconductor)
  numeric::Vec hole_density;     ///< p [1/m^3]
  numeric::Vec charge_density;   ///< net space charge q(p - n + N) [C/m^3]
  numeric::Vec quasi_fermi;      ///< quasi-Fermi potential used per node [V]
  std::size_t newton_iterations = 0;
  bool converged = false;          ///< mirrors status.ok()
  numeric::SolveStatus status;     ///< structured termination record
  numeric::RobustnessStats stats;  ///< recovery-ladder counters
};

struct PoissonOptions {
  std::size_t max_newton = 80;
  ContinuationPolicy continuation{};  ///< bias-continuation recovery
};

/// Solve the nonlinear Poisson equation on the mesh built for `dev`/`bias`.
///
/// The quasi-Fermi potential is ramped linearly along the channel between
/// the source and drain contact potentials (a gradual-channel closure; the
/// drift-diffusion transport solve lives in transport.hpp).
///
/// Newton residual/Jacobian assembly parallelizes over mesh rows on `ctx`
/// with per-row scratch merged in index order, so the result is
/// bit-identical to the serial default at any thread count (the PR-3
/// determinism contract).
[[nodiscard]] PoissonSolution solve_poisson(
    const TftDevice& dev, const Bias& bias, const mesh::DeviceMesh& mesh,
    const PoissonOptions& opts = {},
    const exec::Context& ctx = exec::Context::serial());

/// Convenience overload that builds the default mesh first.
[[nodiscard]] PoissonSolution solve_poisson(
    const TftDevice& dev, const Bias& bias, std::size_t nx = 16,
    std::size_t n_ch = 5, std::size_t n_ox = 4, const PoissonOptions& opts = {},
    const exec::Context& ctx = exec::Context::serial());

}  // namespace stco::tcad
