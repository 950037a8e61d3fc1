#include "src/tcad/drift_diffusion.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "src/numeric/solve.hpp"
#include "src/numeric/sparse.hpp"
#include "src/numeric/workspace.hpp"
#include "src/obs/obs.hpp"
#include "src/tcad/recovery.hpp"

namespace stco::tcad {

double bernoulli(double x) {
  if (std::fabs(x) < 1e-4) return 1.0 - 0.5 * x + x * x / 12.0;
  if (x > 40.0) return x * std::exp(-x);
  if (x < -40.0) return -x;
  return x / std::expm1(x);
}

namespace {

/// Finite-volume geometry of the Gummel loop: edge weight (face length /
/// distance, per unit depth) and node control area. The Poisson solver
/// computes the same quantities inline as kEps0*eh*face/dist, a different
/// rounding order from kEps0*eh*(face/dist) here, so the two stay apart.
struct Geometry {
  const mesh::DeviceMesh& m;
  double face_over_dist(std::size_t ix_a, std::size_t iy_a,
                        [[maybe_unused]] std::size_t ix_b, std::size_t iy_b) const {
    const bool horizontal = iy_a == iy_b;
    double face = horizontal ? m.dy() : m.dx();
    if (horizontal && (iy_a == 0 || iy_a == m.ny() - 1)) face *= 0.5;
    if (!horizontal && (ix_a == 0 || ix_a == m.nx() - 1)) face *= 0.5;
    const double dist = horizontal ? m.dx() : m.dy();
    return face / dist;
  }
  double cell_area(std::size_t ix, std::size_t iy) const {
    const double wx = (ix == 0 || ix == m.nx() - 1) ? 0.5 * m.dx() : m.dx();
    const double wy = (iy == 0 || iy == m.ny() - 1) ? 0.5 * m.dy() : m.dy();
    return wx * wy;
  }
};

/// Equilibrium ohmic-contact carrier densities for net doping N.
void contact_densities(double ni, double doping, double& n_eq, double& p_eq) {
  const double half = 0.5 * doping;
  n_eq = half + std::sqrt(half * half + ni * ni);
  p_eq = ni * ni / n_eq;
}

/// One Gummel solve at a fixed bias. `warm` (when non-null) seeds the
/// potential and carrier densities — a continuation stage hands the
/// previous converged state forward. Gummel cycles are charged to `budget`.
/// `ws_poisson` (n_nodes system) and `ws_continuity` (semiconductor
/// sub-system, same pattern for electrons and holes) persist the Jacobian
/// patterns, ILU factors, and scratch across Gummel cycles and
/// continuation stages.
DriftDiffusionSolution solve_dd_once(const TftDevice& dev, const Bias& bias,
                                     const mesh::DeviceMesh& m,
                                     const DriftDiffusionOptions& opts,
                                     const DriftDiffusionSolution* warm,
                                     numeric::SolveBudget& budget,
                                     numeric::NewtonWorkspace& ws_poisson,
                                     numeric::NewtonWorkspace& ws_continuity,
                                     const exec::Context& ctx) {
  const std::size_t n_nodes = m.num_nodes();
  const std::size_t nx = m.nx(), ny = m.ny();
  const double vt = thermal_voltage(opts.temperature_k);
  const Geometry geo{m};

  // Semiconductor sub-indexing.
  std::vector<std::size_t> semi_index(n_nodes, SIZE_MAX);
  std::vector<std::size_t> semi_nodes;
  for (std::size_t i = 0; i < n_nodes; ++i)
    if (m.node(i).material == mesh::Material::kSemiconductor) {
      semi_index[i] = semi_nodes.size();
      semi_nodes.push_back(i);
    }
  const std::size_t ns = semi_nodes.size();

  DriftDiffusionSolution sol;
  sol.status.reason = numeric::SolveReason::kMaxIterations;
  if (warm && warm->potential.size() == n_nodes) {
    sol.potential = warm->potential;
    sol.electron_density = warm->electron_density;
    sol.hole_density = warm->hole_density;
  } else {
    // Initial state from the decoupled Poisson solve.
    PoissonOptions popts;
    popts.temperature_k = opts.temperature_k;
    // The Gummel loop has its own continuation ladder above this function;
    // give the initializer a direct shot only so failures surface here. The
    // solution's stats count that ladder alone, not the initializer's.
    popts.continuation.enabled = false;
    const auto init = solve_poisson(dev, bias, m, popts, ctx);
    sol.potential = init.potential;
    sol.electron_density = init.electron_density;
    sol.hole_density = init.hole_density;
  }

  // Contact carrier boundary conditions: heavily doped ohmic reservoirs
  // with the film's majority carrier.
  const double signed_contact_doping =
      dev.semi.carrier == CarrierType::kNType ? opts.contact_doping
                                              : -opts.contact_doping;
  double n_eq, p_eq;
  contact_densities(dev.semi.ni, signed_contact_doping, n_eq, p_eq);
  auto is_carrier_contact = [&](std::size_t i) {
    const auto& nd = m.node(i);
    return nd.dirichlet && nd.material == mesh::Material::kSemiconductor;
  };
  for (std::size_t i : semi_nodes)
    if (is_carrier_contact(i)) {
      sol.electron_density[i] = n_eq;
      sol.hole_density[i] = p_eq;
    }
  // Floor densities for numerical stability.
  for (std::size_t i : semi_nodes) {
    sol.electron_density[i] = std::max(sol.electron_density[i], 1e-6 * dev.semi.ni);
    sol.hole_density[i] = std::max(sol.hole_density[i], 1e-6 * dev.semi.ni);
  }

  numeric::Vec phi = sol.potential;

  // Terminal current of a contact region (per unit depth x width), used
  // both for convergence monitoring and the final report.
  auto contact_current = [&](mesh::Region region) {
    double i_sum = 0.0;
    for (std::size_t i : semi_nodes) {
      if (!is_carrier_contact(i) || m.node(i).region != region) continue;
      const std::size_t ix = i % nx, iy = i / nx;
      auto flux = [&](std::size_t jx, std::size_t jy) {
        const std::size_t j = m.index(jx, jy);
        if (semi_index[j] == SIZE_MAX || is_carrier_contact(j)) return;
        const double d = (phi[j] - phi[i]) / vt;
        const double wn = geo.face_over_dist(ix, iy, jx, jy) * dev.semi.mu0 * vt;
        const double wp = wn * 0.5;  // hole mobility derating as in continuity
        const double phi_n = wn * (sol.electron_density[i] * bernoulli(-d) -
                                   sol.electron_density[j] * bernoulli(d));
        const double phi_p = wp * (sol.hole_density[i] * bernoulli(d) -
                                   sol.hole_density[j] * bernoulli(-d));
        i_sum += kQ * (phi_p - phi_n);
      };
      if (ix > 0) flux(ix - 1, iy);
      if (ix + 1 < nx) flux(ix + 1, iy);
      if (iy > 0) flux(ix, iy - 1);
      if (iy + 1 < ny) flux(ix, iy + 1);
    }
    return i_sum * dev.width;
  };

  // --- Gummel outer loop ----------------------------------------------------
  // Hoisted assembly buffers: the same sparsity patterns are restamped
  // every inner Newton iteration / carrier solve, so the workspaces refill
  // in place instead of rebuilding CSR structures.
  numeric::TripletBuilder jac(n_nodes, n_nodes);
  numeric::Vec f(n_nodes), rhs_phi(n_nodes);
  numeric::TripletBuilder cont(ns, ns);
  numeric::Vec rhs_cont(ns);
  // Per-row-block scratch for parallel assembly: stamped concurrently,
  // merged serially in block order so the combined entry sequence (and the
  // downstream duplicate-summation order) matches a serial pass exactly.
  std::vector<numeric::TripletBuilder> row_jac;
  row_jac.reserve(ny);
  for (std::size_t iy = 0; iy < ny; ++iy) row_jac.emplace_back(n_nodes, n_nodes);
  const std::size_t n_blocks = nx > 0 ? (ns + nx - 1) / nx : 0;
  std::vector<numeric::TripletBuilder> row_cont;
  row_cont.reserve(n_blocks);
  for (std::size_t b = 0; b < n_blocks; ++b) row_cont.emplace_back(ns, ns);
  double id_prev = 0.0;
  bool dead = false;
  for (std::size_t outer = 0; outer < opts.max_gummel && !dead; ++outer) {
    if (budget.exhausted()) {
      sol.status.reason = numeric::SolveReason::kBudgetExceeded;
      break;
    }
    budget.charge(1);
    sol.gummel_iterations = outer + 1;
    sol.status.iterations = outer + 1;
    const numeric::Vec phi_outer = phi;

    // (1) Poisson with carriers exponentially tied to phi around the
    // current state (keeps the Jacobian an M-matrix).
    {
      const numeric::Vec phi_ref = phi;
      for (std::size_t it = 0; it < opts.max_inner_newton; ++it) {
        std::fill(f.begin(), f.end(), 0.0);
        // Parallel over mesh rows: writes (f[i], row_jac[iy]) stay inside
        // row iy; phi/densities are read-only during assembly.
        ctx.parallel_for(ny, [&](std::size_t iy) {
          numeric::TripletBuilder& rj = row_jac[iy];
          rj.clear();
          for (std::size_t ix = 0; ix < nx; ++ix) {
            const std::size_t i = m.index(ix, iy);
            const auto& nd = m.node(i);
            if (nd.dirichlet) {
              // Residual F_i = phi_i - bc so that rhs = -F yields
              // dphi_i = bc - phi_i (moves toward the contact value).
              rj.add(i, i, 1.0);
              f[i] = phi[i] - nd.dirichlet_value;
              continue;
            }
            auto stamp = [&](std::size_t jx, std::size_t jy) {
              const std::size_t j = m.index(jx, jy);
              const double ea =
                  nd.material == mesh::Material::kSemiconductor ? dev.semi.eps_r
                  : nd.material == mesh::Material::kOxide       ? dev.oxide.eps_r
                                                                : 1.0;
              const auto& nj = m.node(j);
              const double eb =
                  nj.material == mesh::Material::kSemiconductor ? dev.semi.eps_r
                  : nj.material == mesh::Material::kOxide       ? dev.oxide.eps_r
                                                                : 1.0;
              const double c =
                  kEps0 * (2.0 * ea * eb / (ea + eb)) * geo.face_over_dist(ix, iy, jx, jy);
              f[i] += c * (phi[j] - phi[i]);
              rj.add(i, i, -c);
              rj.add(i, j, c);
            };
            if (ix > 0) stamp(ix - 1, iy);
            if (ix + 1 < nx) stamp(ix + 1, iy);
            if (iy > 0) stamp(ix, iy - 1);
            if (iy + 1 < ny) stamp(ix, iy + 1);

            if (nd.material == mesh::Material::kSemiconductor) {
              const double en = clamped_exp((phi[i] - phi_ref[i]) / vt, opts.exp_clamp);
              const double ep = clamped_exp((phi_ref[i] - phi[i]) / vt, opts.exp_clamp);
              const double nn = sol.electron_density[i] * en;
              const double pp = sol.hole_density[i] * ep;
              const double area = geo.cell_area(ix, iy);
              f[i] += kQ * (pp - nn + dev.doping) * area;
              rj.add(i, i, -(kQ / vt) * (nn + pp) * area);
            }
          }
        });
        jac.clear();
        for (std::size_t iy = 0; iy < ny; ++iy) jac.append(row_jac[iy]);
        for (std::size_t i = 0; i < n_nodes; ++i) rhs_phi[i] = -f[i];
        ws_poisson.assemble(jac);
        auto res = ws_poisson.solve(rhs_phi);
        if (!res.converged) {
          sol.status.reason = numeric::SolveReason::kSingularJacobian;
          dead = true;
          break;
        }
        const double step = numeric::norm_inf(res.x);
        if (!std::isfinite(step)) {
          sol.status.reason = numeric::SolveReason::kNanResidual;
          dead = true;
          break;
        }
        const double damp = std::min(1.0, opts.max_step / std::max(step, 1e-300));
        for (std::size_t i = 0; i < n_nodes; ++i) phi[i] += damp * res.x[i];
        if (step * damp < 1e-9) break;
      }
      if (dead) break;
      // Consistent carrier update for the exponential tie.
      for (std::size_t i : semi_nodes) {
        sol.electron_density[i] *=
            clamped_exp((phi[i] - phi_ref[i]) / vt, opts.exp_clamp);
        sol.hole_density[i] *=
            clamped_exp((phi_ref[i] - phi[i]) / vt, opts.exp_clamp);
      }
      for (std::size_t i : semi_nodes)
        if (is_carrier_contact(i)) {
          sol.electron_density[i] = n_eq;
          sol.hole_density[i] = p_eq;
        }
    }

    // (2)/(3) Carrier continuity with Scharfetter-Gummel fluxes. Electrons
    // first, then holes, each linear given phi and the lagged SRH
    // denominator.
    for (int carrier = 0; carrier < 2 && !dead; ++carrier) {
      const bool electrons = carrier == 0;
      const double mu = electrons ? dev.semi.mu0 : dev.semi.mu0 * 0.5;
      std::fill(rhs_cont.begin(), rhs_cont.end(), 0.0);
      // Parallel over row-sized blocks of the semiconductor sub-index:
      // writes (rhs_cont[k], row_cont[blk]) stay inside the block; phi and
      // the lagged densities are read-only during assembly.
      ctx.parallel_for(n_blocks, [&](std::size_t blk) {
        numeric::TripletBuilder& rc = row_cont[blk];
        rc.clear();
        const std::size_t k_end = std::min(ns, (blk + 1) * nx);
        for (std::size_t k = blk * nx; k < k_end; ++k) {
          const std::size_t i = semi_nodes[k];
          if (is_carrier_contact(i)) {
            rc.add(k, k, 1.0);
            rhs_cont[k] = electrons ? n_eq : p_eq;
            continue;
          }
          const std::size_t ix = i % nx, iy = i / nx;
          auto stamp = [&](std::size_t jx, std::size_t jy) {
            const std::size_t j = m.index(jx, jy);
            if (semi_index[j] == SIZE_MAX) return;  // insulated boundary
            const double w = geo.face_over_dist(ix, iy, jx, jy) * mu * vt;
            const double d = (phi[j] - phi[i]) / vt;
            // Electron particle outflow i->j:
            //   w [ n_i B(-d) - n_j B(d) ]
            // Hole particle outflow i->j:
            //   w [ p_i B(d) - p_j B(-d) ]
            const double ci = electrons ? bernoulli(-d) : bernoulli(d);
            const double cj = electrons ? bernoulli(d) : bernoulli(-d);
            rc.add(k, k, w * ci);
            rc.add(k, semi_index[j], -w * cj);
          };
          if (ix > 0) stamp(ix - 1, iy);
          if (ix + 1 < nx) stamp(ix + 1, iy);
          if (iy > 0) stamp(ix, iy - 1);
          if (iy + 1 < ny) stamp(ix, iy + 1);

          // SRH with lagged denominator: R = (x * other - ni^2) / D_old.
          const auto& sp = dev.semi;
          const double denom = sp.tau_srh_p * (sol.electron_density[i] + sp.ni) +
                               sp.tau_srh_n * (sol.hole_density[i] + sp.ni);
          const double area = geo.cell_area(ix, iy);
          const double other = electrons ? sol.hole_density[i] : sol.electron_density[i];
          // Outflow + R*area = 0  ->  A x = rhs with R split linear/const.
          rc.add(k, k, area * other / denom);
          rhs_cont[k] = area * sp.ni * sp.ni / denom;
        }
      });
      cont.clear();
      for (std::size_t b = 0; b < n_blocks; ++b) cont.append(row_cont[b]);
      // Electrons and holes stamp the same positions, so one workspace
      // serves both (values differ per carrier; the staleness rule decides
      // whether the ILU factors carry over).
      ws_continuity.assemble(cont);
      auto res = ws_continuity.solve(rhs_cont);
      if (!res.converged) {
        sol.status.reason = numeric::SolveReason::kSingularJacobian;
        dead = true;
        break;
      }
      for (std::size_t k = 0; k < ns; ++k) {
        const double v = std::max(res.x[k], 1e-10 * dev.semi.ni);
        (electrons ? sol.electron_density : sol.hole_density)[semi_nodes[k]] = v;
      }
    }
    if (dead) break;

    double dphi = 0.0;
    for (std::size_t i = 0; i < n_nodes; ++i)
      dphi = std::max(dphi, std::fabs(phi[i] - phi_outer[i]));
    const double id_now = contact_current(mesh::Region::kDrain);
    if (!std::isfinite(dphi) || !std::isfinite(id_now)) {
      sol.status.reason = numeric::SolveReason::kNanResidual;
      break;
    }
    sol.status.residual = dphi;
    const bool phi_ok = dphi < opts.tol_phi;
    const bool current_ok =
        outer > 2 && dphi < std::sqrt(opts.tol_phi) &&
        std::fabs(id_now - id_prev) <=
            opts.tol_current * std::max(std::fabs(id_now), 1e-18);
    id_prev = id_now;
    if ((phi_ok || current_ok) && outer > 0) {
      sol.converged = true;
      sol.status.reason = numeric::SolveReason::kOk;
      break;
    }
  }

  sol.potential = phi;
  sol.source_current = contact_current(mesh::Region::kSource);
  sol.drain_current = contact_current(mesh::Region::kDrain);
  return sol;
}

DriftDiffusionSolution solve_drift_diffusion_ladder(const TftDevice& dev,
                                                    const Bias& bias,
                                                    const mesh::DeviceMesh& m,
                                                    const DriftDiffusionOptions& opts,
                                                    const exec::Context& ctx) {
  numeric::SolveBudget budget(opts.continuation.iteration_budget);
  // Two workspaces shared by every continuation stage: the Poisson system
  // on all nodes and the continuity system on the semiconductor sub-mesh.
  numeric::NewtonWorkspace ws_poisson;
  numeric::NewtonWorkspace ws_continuity;
  // Continuation progress: one unit per fixed-bias Gummel solve (direct
  // attempt or continuation stage), shared with the Poisson ladder.
  static obs::ProgressTask& prog = obs::progress("tcad.continuation.stages");
  auto once = [&](const Bias& b, const mesh::DeviceMesh& mb,
                  const DriftDiffusionSolution* warm) {
    prog.add_work(1);
    DriftDiffusionSolution s =
        solve_dd_once(dev, b, mb, opts, warm, budget, ws_poisson, ws_continuity, ctx);
    prog.advance();
    return s;
  };

  DriftDiffusionSolution sol = once(bias, m, nullptr);
  ++sol.stats.attempts;
  if (sol.converged) {
    ++sol.stats.direct_success;
    return sol;
  }
  // Each continuation stage warm-starts from the last converged state
  // (potential + carriers); a cold stage's Poisson initializer counters
  // are merged in.
  numeric::RobustnessStats stats = sol.stats;
  const numeric::SolveStatus direct = sol.status;
  sol = continuation_walk(std::move(sol), direct, opts.continuation, budget, stats,
                          [&](double f, const DriftDiffusionSolution* last) {
                            const Bias b = bias_fraction(bias, f);
                            DriftDiffusionSolution s = once(b, rebias_mesh(m, dev, b), last);
                            stats.merge(s.stats);
                            return s;
                          });
  sol.converged = sol.status.ok();
  sol.stats = stats;
  return sol;
}

}  // namespace

DriftDiffusionSolution solve_drift_diffusion(const TftDevice& dev, const Bias& bias,
                                             const mesh::DeviceMesh& m,
                                             const DriftDiffusionOptions& opts,
                                             const exec::Context& ctx) {
  obs::Span span("tcad.solve_drift_diffusion");
  static obs::Counter& c_solves = obs::counter("tcad.drift_diffusion.solves");
  static obs::Counter& c_failures = obs::counter("tcad.drift_diffusion.failures");
  static obs::Histogram& h_iters = obs::histogram(
      "tcad.drift_diffusion.iterations", {10, 20, 40, 80, 160, 320, 640});
  DriftDiffusionSolution sol = solve_drift_diffusion_ladder(dev, bias, m, opts, ctx);
  c_solves.add(1);
  if (!sol.converged) c_failures.add(1);
  h_iters.observe(static_cast<double>(sol.status.iterations));
  return sol;
}

DriftDiffusionSolution solve_drift_diffusion(const TftDevice& dev, const Bias& bias,
                                             std::size_t nx, std::size_t n_ch,
                                             std::size_t n_ox,
                                             const DriftDiffusionOptions& opts,
                                             const exec::Context& ctx) {
  const auto m = build_mesh(dev, bias, nx, n_ch, n_ox);
  return solve_drift_diffusion(dev, bias, m, opts, ctx);
}

}  // namespace stco::tcad
