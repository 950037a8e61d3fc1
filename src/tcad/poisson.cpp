#include "src/tcad/poisson.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "src/numeric/solve.hpp"
#include "src/numeric/sparse.hpp"
#include "src/numeric/workspace.hpp"
#include "src/obs/obs.hpp"
#include "src/tcad/recovery.hpp"

namespace stco::tcad {

namespace {

/// Relative permittivity at a node.
double node_eps(const mesh::MeshNode& n, const TftDevice& dev) {
  switch (n.material) {
    case mesh::Material::kSemiconductor: return dev.semi.eps_r;
    case mesh::Material::kOxide: return dev.oxide.eps_r;
    case mesh::Material::kMetal: return 1.0;  // unused: metal rows are Dirichlet
  }
  return 1.0;
}

/// One damped-Newton solve at a fixed bias. `warm_start` (when non-null)
/// seeds the potential; all Newton iterations are charged to `budget`.
/// `ws` carries the Jacobian pattern, ILU factors, and scratch across
/// iterations — and across continuation stages, since rebias_mesh keeps
/// the geometry (and hence the sparsity pattern) unchanged.
PoissonSolution solve_poisson_once(const TftDevice& dev, const Bias& bias,
                                   const mesh::DeviceMesh& m,
                                   const PoissonOptions& opts,
                                   const numeric::Vec* warm_start,
                                   numeric::SolveBudget& budget,
                                   numeric::NewtonWorkspace& ws,
                                   const exec::Context& ctx,
                                   std::vector<numeric::TripletBuilder>& row_jac) {
  const std::size_t n = m.num_nodes();
  const std::size_t nx = m.nx();
  const double vt = thermal_voltage(opts.temperature_k);
  const double dx = m.dx(), dy = m.dy();

  PoissonSolution sol;
  sol.potential.assign(n, 0.0);
  sol.electron_density.assign(n, 0.0);
  sol.hole_density.assign(n, 0.0);
  sol.charge_density.assign(n, 0.0);
  sol.quasi_fermi.assign(n, 0.0);
  sol.status.reason = numeric::SolveReason::kMaxIterations;

  // Quasi-Fermi ramp along the channel between the contact edges.
  const double x_src_edge = dev.contact_len;
  const double x_drn_edge = m.lx() - dev.contact_len;
  for (std::size_t i = 0; i < n; ++i) {
    const auto& nd = m.node(i);
    double f = 0.0;
    if (x_drn_edge > x_src_edge)
      f = std::clamp((nd.x - x_src_edge) / (x_drn_edge - x_src_edge), 0.0, 1.0);
    sol.quasi_fermi[i] = bias.vs + f * (bias.vd - bias.vs);
  }

  // Initial guess: warm start if given, else Dirichlet values where pinned
  // and the quasi-Fermi ramp elsewhere.
  if (warm_start && warm_start->size() == n) {
    sol.potential = *warm_start;
  } else {
    for (std::size_t i = 0; i < n; ++i) {
      const auto& nd = m.node(i);
      sol.potential[i] = nd.dirichlet ? nd.dirichlet_value : sol.quasi_fermi[i];
    }
  }

  // Per-node control-volume area (per unit depth) with half cells at edges.
  auto cell_area = [&](std::size_t ix, std::size_t iy) {
    const double wx = (ix == 0 || ix == nx - 1) ? 0.5 * dx : dx;
    const double wy = (iy == 0 || iy == m.ny() - 1) ? 0.5 * dy : dy;
    return wx * wy;
  };

  // Edge coupling: eps0 * harmonic-mean(eps_r) * (face length / distance).
  auto coupling = [&](std::size_t a, std::size_t b, bool horizontal,
                      std::size_t perp_edge_count) {
    const double ea = node_eps(m.node(a), dev);
    const double eb = node_eps(m.node(b), dev);
    const double eh = 2.0 * ea * eb / (ea + eb);
    double face = horizontal ? dy : dx;
    // Half face for boundary rows/columns.
    if (perp_edge_count == 1) face *= 0.5;
    const double dist = horizontal ? dx : dy;
    return kEps0 * eh * face / dist;
  };

  numeric::Vec phi = sol.potential;
  numeric::Vec f_res(n), np(n), pp(n), rhs(n);
  numeric::TripletBuilder jac(n, n);  // hoisted: cleared and restamped per iteration

  const double carrier_scale = kQ;  // residual in Coulombs per unit depth

  for (std::size_t it = 0; it < opts.max_newton; ++it) {
    if (budget.exhausted()) {
      sol.status.reason = numeric::SolveReason::kBudgetExceeded;
      break;
    }
    budget.charge(1);
    sol.newton_iterations = it + 1;
    sol.status.iterations = it + 1;

    // Carrier densities and residual, parallel over mesh rows: every write
    // (np/pp/f_res at node i) stays inside row iy and reads only shared
    // immutable state, so any schedule produces the serial result.
    std::fill(f_res.begin(), f_res.end(), 0.0);
    ctx.parallel_for(m.ny(), [&](std::size_t iy) {
      for (std::size_t ix = 0; ix < nx; ++ix) {
        const std::size_t i = m.index(ix, iy);
        const auto& nd = m.node(i);
        double rho = 0.0;
        if (nd.material == mesh::Material::kSemiconductor) {
          const double ni = dev.semi.ni;
          np[i] = ni * clamped_exp((phi[i] - sol.quasi_fermi[i]) / vt, opts.exp_clamp);
          pp[i] = ni * clamped_exp((sol.quasi_fermi[i] - phi[i]) / vt, opts.exp_clamp);
          rho = carrier_scale * (pp[i] - np[i] + dev.doping);
        } else {
          np[i] = pp[i] = 0.0;
        }
        f_res[i] += rho * cell_area(ix, iy);
      }
    });

    // Jacobian stamp, parallel over mesh rows into per-row scratch
    // builders. Stamping row iy touches f_res only at nodes of row iy and
    // reads phi/np/pp from neighbouring rows (immutable during assembly);
    // the serial index-ordered append below reproduces the exact entry
    // sequence a single serial stamping pass would emit, so from_triplets
    // / refill sum duplicates in the same order at any thread count.
    ctx.parallel_for(m.ny(), [&](std::size_t iy) {
      numeric::TripletBuilder& rj = row_jac[iy];
      rj.clear();
      for (std::size_t ix = 0; ix < nx; ++ix) {
        const std::size_t i = m.index(ix, iy);
        const auto& nd = m.node(i);
        if (nd.dirichlet) {
          // Identity row with residual F_i = phi_i - bc: under the
          // J dphi = -F convention this gives dphi_i = bc - phi_i, snapping
          // the node onto the boundary value in one step (critical for
          // warm starts, where phi_i != bc on entry).
          rj.add(i, i, 1.0);
          f_res[i] = phi[i] - nd.dirichlet_value;
          continue;
        }
        auto stamp_neighbor = [&](std::size_t j, bool horizontal,
                                  std::size_t perp_edge_count) {
          const double c = coupling(i, j, horizontal, perp_edge_count);
          f_res[i] += c * (phi[j] - phi[i]);
          rj.add(i, i, -c);
          // The column is stamped for Dirichlet neighbours too: their
          // identity rows solve dphi_j = bc - phi_j, which is 0 once
          // converged and during iteration pulls phi_j exactly onto the
          // boundary value, so the coupling carries that step into row i.
          rj.add(i, j, c);
        };
        const bool top_or_bottom = (iy == 0 || iy == m.ny() - 1);
        const bool left_or_right = (ix == 0 || ix == nx - 1);
        if (ix > 0) stamp_neighbor(m.index(ix - 1, iy), true, top_or_bottom ? 1 : 2);
        if (ix + 1 < nx) stamp_neighbor(m.index(ix + 1, iy), true, top_or_bottom ? 1 : 2);
        if (iy > 0) stamp_neighbor(m.index(ix, iy - 1), false, left_or_right ? 1 : 2);
        if (iy + 1 < m.ny()) stamp_neighbor(m.index(ix, iy + 1), false, left_or_right ? 1 : 2);

        // d rho / d phi = -(q/vt) (n + p)
        if (nd.material == mesh::Material::kSemiconductor) {
          const double drho = -(carrier_scale / vt) * (np[i] + pp[i]);
          rj.add(i, i, drho * cell_area(ix, iy));
        }
      }
    });
    jac.clear();
    for (std::size_t iy = 0; iy < m.ny(); ++iy) jac.append(row_jac[iy]);

    // Newton step: J dphi = -F. The workspace reuses the pattern (refill),
    // the ILU(0) factors (staleness-gated), and runs the fallback ladder
    // (banded LU, then counted dense LU) if the Krylov solve stalls.
    for (std::size_t i = 0; i < n; ++i) rhs[i] = -f_res[i];
    ws.assemble(jac);
    auto res = ws.solve(rhs);
    if (!res.converged) {
      sol.status.reason = numeric::SolveReason::kSingularJacobian;
      break;
    }

    double step_inf = numeric::norm_inf(res.x);
    if (!std::isfinite(step_inf)) {
      sol.status.reason = numeric::SolveReason::kNanResidual;
      sol.status.residual = step_inf;
      break;
    }
    // Per-node step clamping (not a global scaling): a large correction on
    // one node — e.g. a Dirichlet row absorbing a continuation bias jump —
    // must not throttle the Boltzmann-stabilizing updates everywhere else,
    // or warm-started solves limit-cycle at exactly max_step.
    double applied_inf = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      const double d = std::clamp(res.x[i], -opts.max_step, opts.max_step);
      phi[i] += d;
      applied_inf = std::max(applied_inf, std::fabs(d));
    }
    sol.status.residual = applied_inf;

    if (applied_inf < opts.tol_update) {
      sol.converged = true;
      sol.status.reason = numeric::SolveReason::kOk;
      break;
    }
  }

  sol.potential = phi;
  for (std::size_t i = 0; i < n; ++i) {
    const auto& nd = m.node(i);
    if (nd.material == mesh::Material::kSemiconductor) {
      sol.electron_density[i] =
          dev.semi.ni * clamped_exp((phi[i] - sol.quasi_fermi[i]) / vt, opts.exp_clamp);
      sol.hole_density[i] =
          dev.semi.ni * clamped_exp((sol.quasi_fermi[i] - phi[i]) / vt, opts.exp_clamp);
      sol.charge_density[i] =
          kQ * (sol.hole_density[i] - sol.electron_density[i] + dev.doping);
    }
  }
  return sol;
}

// Full ladder without instrumentation; the public solve_poisson wraps it in
// an obs span and per-solve histograms.
PoissonSolution solve_poisson_ladder(const TftDevice& dev, const Bias& bias,
                                     const mesh::DeviceMesh& m,
                                     const PoissonOptions& opts,
                                     const exec::Context& ctx) {
  numeric::SolveBudget budget(opts.continuation.iteration_budget);
  // One workspace for the whole ladder: continuation stages share the mesh
  // geometry, so the Jacobian pattern — and often the ILU factors — carry
  // over between stages.
  numeric::NewtonWorkspace ws;
  // Per-row Jacobian scratch shared by every stage (see solve_poisson_once).
  std::vector<numeric::TripletBuilder> row_jac;
  row_jac.reserve(m.ny());
  for (std::size_t iy = 0; iy < m.ny(); ++iy)
    row_jac.emplace_back(m.num_nodes(), m.num_nodes());
  // Continuation progress: each unit is one fixed-bias Newton solve
  // (direct attempt or continuation stage), announced before it runs so
  // large-mesh dataset builds report rate/ETA while solves are in flight.
  static obs::ProgressTask& prog = obs::progress("tcad.continuation.stages");
  auto once = [&](const Bias& b, const mesh::DeviceMesh& mb, const numeric::Vec* warm) {
    prog.add_work(1);
    PoissonSolution s = solve_poisson_once(dev, b, mb, opts, warm, budget, ws, ctx, row_jac);
    prog.advance();
    return s;
  };

  PoissonSolution sol = once(bias, m, nullptr);
  ++sol.stats.attempts;
  if (sol.converged) {
    ++sol.stats.direct_success;
    return sol;
  }
  // Each continuation stage warm-starts from the last converged potential.
  numeric::RobustnessStats stats = sol.stats;
  const numeric::SolveStatus direct = sol.status;
  sol = continuation_walk(std::move(sol), direct, opts.continuation, budget, stats,
                          [&](double f, const PoissonSolution* last) {
                            const Bias b = bias_fraction(bias, f);
                            return once(b, rebias_mesh(m, dev, b),
                                        last ? &last->potential : nullptr);
                          });
  sol.converged = sol.status.ok();
  sol.stats = stats;
  return sol;
}

}  // namespace

PoissonSolution solve_poisson(const TftDevice& dev, const Bias& bias,
                              const mesh::DeviceMesh& m, const PoissonOptions& opts,
                              const exec::Context& ctx) {
  obs::Span span("tcad.solve_poisson");
  static obs::Counter& c_solves = obs::counter("tcad.poisson.solves");
  static obs::Counter& c_failures = obs::counter("tcad.poisson.failures");
  static obs::Histogram& h_iters = obs::histogram(
      "tcad.poisson.iterations", {5, 10, 20, 40, 80, 160, 320});
  PoissonSolution sol = solve_poisson_ladder(dev, bias, m, opts, ctx);
  c_solves.add(1);
  if (!sol.converged) c_failures.add(1);
  h_iters.observe(static_cast<double>(sol.status.iterations));
  return sol;
}

PoissonSolution solve_poisson(const TftDevice& dev, const Bias& bias, std::size_t nx,
                              std::size_t n_ch, std::size_t n_ox,
                              const PoissonOptions& opts, const exec::Context& ctx) {
  const auto m = build_mesh(dev, bias, nx, n_ch, n_ox);
  return solve_poisson(dev, bias, m, opts, ctx);
}

}  // namespace stco::tcad
