#include "src/tcad/transport.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "src/numeric/solve.hpp"
#include "src/numeric/workspace.hpp"
#include "src/obs/obs.hpp"
#include "src/tcad/recovery.hpp"

namespace stco::tcad {

double oxide_capacitance(const TftDevice& dev) {
  return kEps0 * dev.oxide.eps_r / dev.t_ox;
}

namespace {

constexpr std::size_t kSlicePoints = 24;  ///< vertical mesh rows in the film+oxide slice
constexpr double kTolUpdate = 1e-10;      ///< Newton stop [V]
constexpr double kGmin = 1e-12;           ///< numerical floor conductance [S]

struct SliceResult {
  double qs = 0.0;
  numeric::SolveStatus status;
};

/// 1-D vertical Poisson slice through film + oxide.
///
/// Grid: index 0 at the film top surface (Neumann), increasing into the
/// stack; last node is the gate electrode (Dirichlet vg - flatband).
/// Returns the mobile sheet charge integrated over the film. `step_cap`
/// bounds the per-iteration potential update (the recovery ladder tightens
/// it); `phi_io` (when non-null) carries a warm-start potential in and the
/// final potential out. Newton iterations are charged to `budget`. `tws`
/// supplies the tridiagonal system buffers, reused across iterations and
/// across the slices of one integration sweep.
SliceResult solve_slice_once(const TftDevice& dev, double vg, double v_channel,
                             const TransportOptions& opts, double step_cap,
                             std::vector<double>* phi_io,
                             numeric::SolveBudget& budget,
                             numeric::TridiagWorkspace& tws) {
  const double vt = thermal_voltage(kT300);
  const std::size_t n_total = kSlicePoints;
  // Split rows between film and oxide proportionally, at least 3 each.
  std::size_t n_film =
      std::max<std::size_t>(3, static_cast<std::size_t>(std::round(
                                   static_cast<double>(n_total) * dev.t_ch /
                                   (dev.t_ch + dev.t_ox))));
  if (n_film > n_total - 4) n_film = n_total - 4;
  const std::size_t n_ox = n_total - n_film;  // last node = gate
  const double dyf = dev.t_ch / static_cast<double>(n_film);
  const double dyo = dev.t_ox / static_cast<double>(n_ox);

  const std::size_t n = n_film + n_ox + 1;
  const double vgate = vg - dev.semi.flatband;
  const double ni = dev.semi.ni;
  const double clamp = 34.0;

  SliceResult out;
  out.status.reason = numeric::SolveReason::kMaxIterations;

  std::vector<double> phi(n, v_channel);
  if (phi_io && phi_io->size() == n) phi = *phi_io;
  phi[n - 1] = vgate;

  auto spacing_below = [&](std::size_t i) {  // distance to node i+1
    return (i < n_film) ? ((i + 1 <= n_film) ? dyf : dyo) : dyo;
  };
  auto eps_between = [&](std::size_t i) {  // permittivity of segment i..i+1
    return kEps0 * ((i + 1 <= n_film) ? dev.semi.eps_r : dev.oxide.eps_r);
  };
  auto node_dy = [&](std::size_t i) {  // control length of node i
    if (i == 0) return 0.5 * dyf;
    if (i < n_film) return dyf;
    if (i == n_film) return 0.5 * (dyf + dyo);
    if (i < n - 1) return dyo;
    return 0.5 * dyo;
  };

  numeric::Vec dphi;
  for (std::size_t it = 0; it < opts.max_newton; ++it) {
    if (budget.exhausted()) {
      out.status.reason = numeric::SolveReason::kBudgetExceeded;
      break;
    }
    budget.charge(1);
    out.status.iterations = it + 1;
    tws.resize(n);  // zero-fills; no reallocation once sized
    numeric::Vec& lower = tws.lower;
    numeric::Vec& diag = tws.diag;
    numeric::Vec& upper = tws.upper;
    numeric::Vec& rhs = tws.rhs;
    for (std::size_t i = 0; i < n; ++i) {
      if (i == n - 1) {  // gate Dirichlet
        diag[i] = 1.0;
        rhs[i] = vgate - phi[i];
        continue;
      }
      double f = 0.0;
      // Coupling to i+1 (always exists for i < n-1).
      {
        const double c = eps_between(i) / spacing_below(i);
        f += c * (phi[i + 1] - phi[i]);
        diag[i] -= c;
        upper[i] += c;
      }
      // Coupling to i-1 (not for the top surface: Neumann there).
      if (i > 0) {
        const double c = eps_between(i - 1) / spacing_below(i - 1);
        f += c * (phi[i - 1] - phi[i]);
        diag[i] -= c;
        lower[i - 1] += c;
      }
      // Space charge in the film.
      if (i <= n_film) {
        const double nn = ni * clamped_exp((phi[i] - v_channel) / vt, clamp);
        const double pp = ni * clamped_exp((v_channel - phi[i]) / vt, clamp);
        const double dy_i = (i == n_film) ? 0.5 * dyf  // film half of the interface cell
                                          : node_dy(i);
        f += kQ * (pp - nn + dev.doping) * dy_i;
        diag[i] += -(kQ / vt) * (nn + pp) * dy_i;
      }
      rhs[i] = -f;
    }

    try {
      tws.solve(dphi);
    } catch (const std::runtime_error&) {
      out.status.reason = numeric::SolveReason::kSingularJacobian;
      break;
    }
    const double step = numeric::norm_inf(dphi);
    if (!std::isfinite(step)) {
      out.status.reason = numeric::SolveReason::kNanResidual;
      out.status.residual = step;
      break;
    }
    const double damp = std::min(1.0, step_cap / std::max(step, 1e-300));
    for (std::size_t i = 0; i < n; ++i) phi[i] += damp * dphi[i];
    out.status.residual = step * damp;
    if (step * damp < kTolUpdate) {
      out.status.reason = numeric::SolveReason::kOk;
      break;
    }
  }

  // Mobile sheet charge: integrate the dominant carrier over the film.
  double qs = 0.0;
  const bool ntype = dev.semi.carrier == CarrierType::kNType;
  for (std::size_t i = 0; i <= n_film; ++i) {
    const double nn = ni * clamped_exp((phi[i] - v_channel) / vt, clamp);
    const double pp = ni * clamped_exp((v_channel - phi[i]) / vt, clamp);
    const double dy_i = (i == n_film) ? 0.5 * dyf : node_dy(i);
    qs += kQ * (ntype ? nn : pp) * dy_i;
  }
  out.qs = qs;
  if (!std::isfinite(qs) && out.status.ok())
    out.status.reason = numeric::SolveReason::kNanResidual;
  if (phi_io) *phi_io = phi;
  return out;
}

/// Slice solve with the recovery ladder: direct attempt, tightened damping,
/// then gate-bias continuation from the flat (vg = v_channel) slice.
/// `warm` (when non-null) is the direct attempt's `phi_io`: its start
/// potential (cold unless it holds one per node) and its final potential.
/// The damping retries and the walk always start cold.
SliceResult solve_slice_robust(const TftDevice& dev, double vg, double v_channel,
                               const TransportOptions& opts,
                               numeric::SolveBudget& budget,
                               numeric::RobustnessStats& stats,
                               numeric::TridiagWorkspace& tws,
                               std::vector<double>* warm = nullptr) {
  ++stats.attempts;
  SliceResult r = solve_slice_once(dev, vg, v_channel, opts, 1.0, warm, budget, tws);
  if (r.status.ok()) {
    ++stats.direct_success;
    return r;
  }
  numeric::SolveStatus total = r.status;

  // Damping escalation. A disabled policy or an exhausted budget falls
  // through to the walk, which reports it.
  for (double cap : {0.25, 0.0625}) {
    if (!opts.continuation.enabled || budget.exhausted()) break;
    ++stats.damping_retries;
    ++total.retries;
    SliceResult d = solve_slice_once(dev, vg, v_channel, opts, cap, nullptr, budget, tws);
    total.iterations += d.status.iterations;
    total.residual = d.status.residual;
    if (d.status.ok()) {
      ++stats.recovered;
      total.reason = numeric::SolveReason::kOk;
      d.status = total;
      return d;
    }
    r = std::move(d);
  }

  // Gate-bias continuation. `phi` carries each stage's final potential —
  // converged or not — into the next stage as its warm start, so the stage
  // ignores the walk's last converged result.
  std::vector<double> phi;
  return continuation_walk(std::move(r), total, opts.continuation, budget, stats,
                           [&](double f, const SliceResult*) {
                             const double vg_f = v_channel + f * (vg - v_channel);
                             return solve_slice_once(dev, vg_f, v_channel, opts, 0.25,
                                                     &phi, budget, tws);
                           });
}

}  // namespace

double sheet_charge(const TftDevice& dev, double vg, double v_channel,
                    const TransportOptions& opts) {
  numeric::SolveBudget budget(opts.continuation.iteration_budget);
  numeric::RobustnessStats stats;
  numeric::TridiagWorkspace tws;
  return solve_slice_robust(dev, vg, v_channel, opts, budget, stats, tws).qs;
}

double srh_leakage(const TftDevice& dev, double vd) {
  // Generation current of the reverse-biased channel/drain volume plus a
  // numerical floor; gives the gate-independent off-state plateau.
  const auto& sp = dev.semi;
  const double gen = kQ * sp.ni / (sp.tau_srh_n + sp.tau_srh_p);
  return gen * dev.width * dev.length * dev.t_ch * std::tanh(std::fabs(vd) / 0.1);
}

namespace {

/// Warm-start potentials of one I-V sweep, reused across its slices and
/// bias points so that no slice allocates. An empty vector means "none".
struct WarmStarts {
  std::vector<double> slice0;  ///< slice 0 at the sweep's previous bias point
  std::vector<double> p1, p2;  ///< last two converged slices of this integration
  std::vector<double> next;    ///< the next slice's direct-attempt potential
};

TransportResult drain_current_ex_impl(const TftDevice& dev, const Bias& bias,
                                      const TransportOptions& opts, WarmStarts& ws) {
  TransportResult out;
  out.status.reason = numeric::SolveReason::kOk;
  const double vd_mag = std::fabs(bias.vd - bias.vs);
  if (vd_mag == 0.0) return out;
  const double sgn_vd = (bias.vd - bias.vs) >= 0 ? 1.0 : -1.0;

  const double cox = oxide_capacitance(dev);
  const double q_ref = cox * 1.0;  // sheet charge at 1 V overdrive
  const double mu0 = dev.semi.mu0;
  const double gamma = dev.semi.gamma;

  numeric::SolveBudget budget(opts.continuation.iteration_budget);
  // One tridiagonal workspace for every slice of the sweep: all slices
  // share the same grid size, so the buffers never reallocate.
  numeric::TridiagWorkspace tws;

  // Gradual channel integration. The local channel quasi-Fermi potential
  // runs from vs to vd; for N-type forward operation that de-biases the
  // charge toward the drain (pinch-off emerges naturally since Q_s decays
  // exponentially once the local overdrive is gone).
  const double dv = vd_mag / static_cast<double>(kIntegrationSteps);
  double integral = 0.0;
  double q_prev = -1.0, mu_prev = 0.0;
  // Each slice's direct attempt starts from the linear extrapolation of the
  // last two converged slices (v_local steps uniformly), from the last one
  // alone, or — slice 0 — from slice 0 at the previous bias point. Only a
  // direct success extends the chain; any retry restarts it cold.
  ws.p1.clear();
  ws.p2.clear();
  for (std::size_t k = 0; k <= kIntegrationSteps; ++k) {
    const double v_local = bias.vs + sgn_vd * static_cast<double>(k) * dv;
    if (!ws.p2.empty()) {
      ws.next.resize(ws.p1.size());
      for (std::size_t i = 0; i < ws.next.size(); ++i)
        ws.next[i] = 2.0 * ws.p1[i] - ws.p2[i];
    } else if (!ws.p1.empty()) {
      ws.next = ws.p1;
    } else if (k == 0) {
      ws.next = ws.slice0;
    } else {
      ws.next.clear();
    }
    const SliceResult sr = solve_slice_robust(dev, bias.vg, v_local, opts, budget,
                                              out.stats, tws, &ws.next);
    if (sr.status.ok() && sr.status.retries == 0) {
      if (k == 0) ws.slice0 = ws.next;
      std::swap(ws.p2, ws.p1);
      std::swap(ws.p1, ws.next);
    } else {
      ws.p1.clear();
      ws.p2.clear();
    }
    out.status.iterations += sr.status.iterations;
    out.status.retries += sr.status.retries;
    if (!sr.status.ok()) {
      if (sr.status.reason == numeric::SolveReason::kMaxIterations &&
          std::isfinite(sr.qs)) {
        // Finite but unconverged: accept the approximation, count the
        // degradation, keep integrating.
        ++out.stats.fallbacks;
      } else {
        // Hard failure (singular / NaN / budget): the curve cannot be
        // trusted. Report a structured failure instead of partial garbage.
        out.valid = false;
        out.id = 0.0;
        out.status.reason = sr.status.reason;
        out.status.residual = sr.status.residual;
        return out;
      }
    }
    const double qs = sr.qs;
    const double mu = mu0 * std::pow(std::max(qs, 1e-12) / q_ref, gamma);
    if (q_prev >= 0.0) {
      // Trapezoid on mu(Qs)*Qs.
      integral += 0.5 * (mu * qs + mu_prev * q_prev) * dv;
    }
    q_prev = qs;
    mu_prev = mu;
  }
  const double ion = (dev.width / dev.length) * integral;
  out.id = ion + srh_leakage(dev, vd_mag) + kGmin * vd_mag;
  return out;
}

/// drain_current_ex_impl inside the tcad.drain_current span and counters.
TransportResult drain_current_traced(const TftDevice& dev, const Bias& bias,
                                     const TransportOptions& opts, WarmStarts& ws) {
  obs::Span span("tcad.drain_current");
  static obs::Counter& c_solves = obs::counter("tcad.transport.solves");
  static obs::Counter& c_failures = obs::counter("tcad.transport.failures");
  static obs::Histogram& h_iters = obs::histogram(
      "tcad.transport.iterations", {20, 40, 80, 160, 320, 640, 1280});
  TransportResult out = drain_current_ex_impl(dev, bias, opts, ws);
  c_solves.add(1);
  if (!out.valid) c_failures.add(1);
  h_iters.observe(static_cast<double>(out.status.iterations));
  return out;
}

}  // namespace

TransportResult drain_current_ex(const TftDevice& dev, const Bias& bias,
                                 const TransportOptions& opts) {
  WarmStarts ws;
  return drain_current_traced(dev, bias, opts, ws);
}

double drain_current(const TftDevice& dev, const Bias& bias,
                     const TransportOptions& opts) {
  return drain_current_ex(dev, bias, opts).id;
}

// Both curves carry slice 0's potential from one bias point to the next.
// In output_curve slice 0 (v_channel = vs) is the same problem at every vd.

std::vector<IvPoint> transfer_curve(const TftDevice& dev, double vd,
                                    const std::vector<double>& vg_values,
                                    const TransportOptions& opts) {
  std::vector<IvPoint> out;
  out.reserve(vg_values.size());
  WarmStarts ws;
  for (double vg : vg_values) {
    Bias b{vg, vd, 0.0};
    const auto r = drain_current_traced(dev, b, opts, ws);
    out.push_back({vg, vd, r.id, r.valid});
  }
  return out;
}

std::vector<IvPoint> output_curve(const TftDevice& dev, double vg,
                                  const std::vector<double>& vd_values,
                                  const TransportOptions& opts) {
  std::vector<IvPoint> out;
  out.reserve(vd_values.size());
  WarmStarts ws;
  for (double vd : vd_values) {
    Bias b{vg, vd, 0.0};
    const auto r = drain_current_traced(dev, b, opts, ws);
    out.push_back({vg, vd, r.id, r.valid});
  }
  return out;
}

}  // namespace stco::tcad
