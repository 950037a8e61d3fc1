#include "src/spice/engine.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "src/numeric/solve.hpp"
#include "src/obs/obs.hpp"

namespace stco::spice {

namespace {

/// Working capacitor (netlist caps + TFT gate caps expanded).
struct WorkCap {
  NodeId n1, n2;
  double c;
  double i_prev = 0.0;  ///< companion-model history current
  double v_prev = 0.0;  ///< voltage across at previous accepted step
};

inline constexpr std::size_t kNoRow = static_cast<std::size_t>(-1);

/// A TFT resolved against its netlist: the compact model prepared once
/// (validated, constants hoisted), its channel-end memo, and the device's
/// solution rows and flat Jacobian offsets (kNoRow where a terminal is
/// ground).
struct WorkTft {
  compact::TftDevice dev;
  compact::TftMemo memo;
  std::size_t d, g, s;                 ///< drain/gate/source solution rows
  std::size_t dd, dg, ds, sd, sg, ss;  ///< (row, column) offsets, row-major
};

/// The x-independent part of the MNA matrix — gmin, resistors, capacitor
/// companion conductances, voltage-source incidence — stamped once per key
/// (gmin, use_caps, dt, integration method). Each Newton iteration copies
/// it and adds the TFT stamps last, as the full stamp always did, so every
/// entry sums in the same order. For a TFT-free netlist it is the whole
/// Jacobian, and `factored` says System::lu holds its factorization: one
/// LU then serves every Newton iteration and, in a fixed-step transient,
/// every timestep.
struct LinearStamps {
  numeric::Matrix a;
  bool valid = false;
  bool factored = false;
  double gmin = -1.0;
  double dt = -1.0;
  bool use_caps = false;
  bool trap = false;

  bool matches(double g, bool caps, double step, bool trapezoidal) const {
    return valid && gmin == g && use_caps == caps &&
           (!caps || (dt == step && trap == trapezoidal));
  }
};

/// One analysis' circuit and Newton workspace. Owned by one transient or
/// DC call, never shared: newton_once reuses its buffers and allocates
/// nothing per iteration.
struct System {
  const Netlist* nl = nullptr;
  std::size_t nn = 0;   ///< nodes including ground
  std::size_t nv = 0;   ///< voltage sources
  std::size_t dim = 0;  ///< (nn - 1) + nv
  std::vector<WorkCap> caps;
  std::vector<WorkTft> tfts;
  LinearStamps linear;
  numeric::Matrix a;        ///< this iteration's Jacobian (TFT netlists)
  numeric::Vec rhs_linear;  ///< x-independent right-hand side of one solve
  numeric::Vec rhs;
  numeric::Vec x_new;
  numeric::DenseLu lu;

  std::size_t row_of_node(NodeId n) const { return n - 1; }  // n > 0
  std::size_t row_of_src(std::size_t j) const { return nn - 1 + j; }
};

System make_system(const Netlist& nl) {
  System s;
  s.nl = &nl;
  s.nn = nl.num_nodes();
  s.nv = nl.vsources().size();
  s.dim = (s.nn - 1) + s.nv;
  for (const auto& c : nl.capacitors()) s.caps.push_back({c.n1, c.n2, c.c});
  for (const auto& t : nl.tfts()) {
    const double cg = compact::gate_half_capacitance(t.params) + t.c_overlap;
    s.caps.push_back({t.gate, t.source, cg});
    s.caps.push_back({t.gate, t.drain, cg});
  }
  auto row = [&](NodeId n) { return n == kGround ? kNoRow : s.row_of_node(n); };
  auto at = [&](std::size_t r, std::size_t c) {
    return r == kNoRow || c == kNoRow ? kNoRow : r * s.dim + c;
  };
  for (const auto& t : nl.tfts()) {
    WorkTft w;
    w.dev = compact::prepare_tft(t.params);
    w.d = row(t.drain);
    w.g = row(t.gate);
    w.s = row(t.source);
    w.dd = at(w.d, w.d);
    w.dg = at(w.d, w.g);
    w.ds = at(w.d, w.s);
    w.sd = at(w.s, w.d);
    w.sg = at(w.s, w.g);
    w.ss = at(w.s, w.s);
    s.tfts.push_back(w);
  }
  return s;
}

/// Per-attempt solver knobs the recovery ladder varies between attempts.
struct NewtonKnobs {
  double gmin = 1e-12;        ///< node-to-ground floor conductance [S]
  double update_limit = 1.0;  ///< per-iteration voltage update cap [V]
  double source_scale = 1.0;  ///< independent-source homotopy factor [0, 1]
};

/// Companion conductance of one capacitor; shared by the matrix and the
/// right-hand side stamps.
double cap_geq(const WorkCap& c, double dt, bool trapezoidal) {
  return (trapezoidal ? 2.0 : 1.0) * c.c / dt;
}

/// Restamp sys.linear unless it already holds this key.
void stamp_linear(System& sys, double gmin, bool use_caps, double dt,
                  bool trapezoidal) {
  LinearStamps& lin = sys.linear;
  if (lin.matches(gmin, use_caps, dt, trapezoidal)) return;
  lin.a.resize(sys.dim, sys.dim);
  numeric::Matrix& a = lin.a;
  auto stamp_g = [&](NodeId n1, NodeId n2, double g) {
    if (n1 != kGround) a(sys.row_of_node(n1), sys.row_of_node(n1)) += g;
    if (n2 != kGround) a(sys.row_of_node(n2), sys.row_of_node(n2)) += g;
    if (n1 != kGround && n2 != kGround) {
      a(sys.row_of_node(n1), sys.row_of_node(n2)) -= g;
      a(sys.row_of_node(n2), sys.row_of_node(n1)) -= g;
    }
  };
  // gmin to ground on every non-ground node (ladder may elevate it).
  for (NodeId n = 1; n < sys.nn; ++n) a(sys.row_of_node(n), sys.row_of_node(n)) += gmin;
  for (const auto& r : sys.nl->resistors()) stamp_g(r.n1, r.n2, 1.0 / r.r);
  if (use_caps)
    for (const auto& c : sys.caps)
      if (c.c > 0.0) stamp_g(c.n1, c.n2, cap_geq(c, dt, trapezoidal));
  // Voltage-source incidence; the source value is pure right-hand side.
  for (std::size_t j = 0; j < sys.nv; ++j) {
    const auto& src = sys.nl->vsources()[j];
    const std::size_t rs = sys.row_of_src(j);
    if (src.pos != kGround) {
      a(sys.row_of_node(src.pos), rs) += 1.0;
      a(rs, sys.row_of_node(src.pos)) += 1.0;
    }
    if (src.neg != kGround) {
      a(sys.row_of_node(src.neg), rs) -= 1.0;
      a(rs, sys.row_of_node(src.neg)) -= 1.0;
    }
  }
  lin.valid = true;
  lin.factored = false;
  lin.gmin = gmin;
  lin.use_caps = use_caps;
  lin.dt = dt;
  lin.trap = trapezoidal;
}

/// The x-independent right-hand side of one Newton solve: independent
/// sources at time t and the capacitor companion currents.
void stamp_linear_rhs(System& sys, double t, bool use_caps, double dt,
                      bool trapezoidal, double source_scale) {
  numeric::Vec& rhs = sys.rhs_linear;
  rhs.assign(sys.dim, 0.0);
  // Current `amps` flowing out of node n1 into n2 through the element.
  auto stamp_i = [&](NodeId n1, NodeId n2, double amps) {
    if (n1 != kGround) rhs[sys.row_of_node(n1)] -= amps;
    if (n2 != kGround) rhs[sys.row_of_node(n2)] += amps;
  };
  // Independent current sources: i(t) flows from -> to (injects at `to`).
  for (const auto& is : sys.nl->isources())
    stamp_i(is.from, is.to, source_scale * is.wave.at(t));
  if (use_caps) {
    for (const auto& c : sys.caps) {
      if (c.c <= 0.0) continue;
      const double geq = cap_geq(c, dt, trapezoidal);
      const double ieq = trapezoidal ? (geq * c.v_prev + c.i_prev) : (geq * c.v_prev);
      // Companion current source ieq from n2 to n1 (opposes geq*v_prev).
      stamp_i(c.n2, c.n1, ieq);
    }
  }
  for (std::size_t j = 0; j < sys.nv; ++j)
    rhs[sys.row_of_src(j)] = source_scale * sys.nl->vsources()[j].wave.at(t);
}

/// TFTs: Newton linearization around `x`, added to sys.a and sys.rhs.
void stamp_tfts(System& sys, const numeric::Vec& x) {
  double* a = sys.a.data();
  numeric::Vec& rhs = sys.rhs;
  auto v_of = [&](std::size_t row) { return row == kNoRow ? 0.0 : x[row]; };
  for (WorkTft& t : sys.tfts) {
    const double vg = v_of(t.g);
    const double vd = v_of(t.d);
    const double vs = v_of(t.s);
    const auto e = compact::evaluate_tft(t.dev, vg, vd, vs, t.memo);
    // Id flows drain -> source. Linear model:
    //   id = Ieq + gm * vgs + gds * vds
    const double ieq = e.id - e.gm * (vg - vs) - e.gds * (vd - vs);
    // Conductance stamps.
    if (t.d != kNoRow) {
      a[t.dd] += e.gds;
      if (t.dg != kNoRow) a[t.dg] += e.gm;
      if (t.ds != kNoRow) a[t.ds] -= (e.gds + e.gm);
    }
    if (t.s != kNoRow) {
      if (t.sd != kNoRow) a[t.sd] -= e.gds;
      if (t.sg != kNoRow) a[t.sg] -= e.gm;
      a[t.ss] += (e.gds + e.gm);
    }
    if (t.d != kNoRow) rhs[t.d] -= ieq;
    if (t.s != kNoRow) rhs[t.s] += ieq;
  }
}

/// One Newton solve of the (possibly companion-augmented) nonlinear system.
/// `use_caps` enables capacitor companion stamps with time step `dt`.
/// `x` carries the initial guess in/out.
numeric::SolveStatus newton_once(System& sys, double t, numeric::Vec& x,
                                 bool use_caps, double dt, bool trapezoidal,
                                 const EngineOptions& opts, const NewtonKnobs& knobs) {
  const std::size_t dim = sys.dim;

  // TFT-free circuits have an x-independent MNA matrix: sources, companion
  // currents, and the homotopy scale only move the right-hand side.
  const bool linear_only = sys.tfts.empty();
  static obs::Counter& lu_factors = obs::counter("spice.lu.factors");
  static obs::Counter& lu_reuses = obs::counter("spice.lu.reuses");

  stamp_linear(sys, knobs.gmin, use_caps, dt, trapezoidal);
  stamp_linear_rhs(sys, t, use_caps, dt, trapezoidal, knobs.source_scale);

  numeric::SolveStatus st;
  st.reason = numeric::SolveReason::kMaxIterations;

  double limit = knobs.update_limit;
  double prev_max_dv = 1e300;
  int stall_count = 0;

  for (std::size_t it = 0; it < opts.max_newton; ++it) {
    st.iterations = it + 1;
    sys.rhs = sys.rhs_linear;
    if (linear_only && sys.linear.factored) {
      lu_reuses.add(1);
    } else {
      const numeric::Matrix* jac = &sys.linear.a;
      if (!linear_only) {
        sys.a = sys.linear.a;
        stamp_tfts(sys, x);
        jac = &sys.a;
      }
      if (!sys.lu.refactor(*jac)) {
        st.reason = numeric::SolveReason::kSingularJacobian;
        return st;
      }
      lu_factors.add(1);
      sys.linear.factored = linear_only;
    }
    sys.lu.solve(sys.rhs, sys.x_new);
    const numeric::Vec& x_new = sys.x_new;

    // Per-node voltage limiting (SPICE-style): each node moves at most
    // `limit` volts per iteration; branch currents follow freely. If the
    // iteration stops making progress (limit cycle), tighten the limit.
    // Finiteness is checked on every raw update: std::max drops a NaN and
    // the clamp turns an infinity into `limit`, so max_dv alone hides both.
    // v * 0.0 is 0 for a finite v and NaN otherwise, so `poison` turns NaN
    // on any non-finite update without a branch per unknown.
    double max_dv = 0.0;
    double poison = 0.0;
    for (std::size_t k = 0; k < sys.nn - 1; ++k) {
      double dv = x_new[k] - x[k];
      poison += dv * 0.0;
      dv = std::clamp(dv, -limit, limit);
      x[k] += dv;
      max_dv = std::max(max_dv, std::fabs(dv));
    }
    for (std::size_t k = sys.nn - 1; k < dim; ++k) {
      x[k] = x_new[k];
      poison += x[k] * 0.0;
    }
    st.residual = max_dv;

    if (std::isnan(poison)) {
      st.residual = std::numeric_limits<double>::quiet_NaN();
      st.reason = numeric::SolveReason::kNanResidual;
      return st;
    }
    if (max_dv < opts.abstol_v) {
      st.reason = numeric::SolveReason::kOk;
      return st;
    }
    // Limit-cycle backoff: if the update norm stops shrinking *and* the
    // steps are not simply clamp-limited steady progress, tighten the
    // per-node limit to break the oscillation.
    const bool clamp_limited = max_dv > 0.99 * limit;
    if (!clamp_limited && max_dv > 0.75 * prev_max_dv) {
      if (++stall_count >= 3) {
        limit = std::max(limit * 0.5, 1e-3);
        stall_count = 0;
      }
    } else {
      stall_count = 0;
    }
    prev_max_dv = max_dv;
  }
  return st;
}

/// The recovery ladder: direct attempt, then gmin stepping (ramp an
/// elevated gmin back down to the configured floor, warm-starting each
/// stage from the previous one), then source stepping (ramp the independent
/// sources from 0 with the solution carried forward). Each failed stage is
/// re-attempted with a tightened update limit before the ladder advances.
/// All work is charged against `budget`.
numeric::SolveStatus newton_robust(System& sys, double t, numeric::Vec& x,
                                   bool use_caps, double dt, bool trapezoidal,
                                   const EngineOptions& opts,
                                   numeric::SolveBudget& budget,
                                   numeric::RobustnessStats& stats) {
  ++stats.attempts;
  const RetryPolicy& rp = opts.retry;

  numeric::SolveStatus total;
  numeric::SolveStatus last;
  auto run = [&](const NewtonKnobs& knobs) {
    last = newton_once(sys, t, x, use_caps, dt, trapezoidal, opts, knobs);
    budget.charge(last.iterations);
    total.iterations += last.iterations;
    total.residual = last.residual;
    return last.ok();
  };
  auto fail = [&](numeric::SolveReason reason) {
    ++stats.failures;
    total.reason = reason;
    return total;
  };
  auto out_of_budget = [&] {
    if (!budget.exhausted()) return false;
    ++stats.budget_exhausted;
    return true;
  };

  if (out_of_budget()) return fail(numeric::SolveReason::kBudgetExceeded);

  // Direct attempt with the configured knobs.
  const numeric::Vec x0 = x;
  if (run({opts.gmin, opts.max_update, 1.0})) {
    ++stats.direct_success;
    total.reason = numeric::SolveReason::kOk;
    return total;
  }
  if (!rp.enabled) return fail(last.reason);

  // One stage of either ramp: solve at the given knobs, re-attempting with
  // escalating damping while the budget allows.
  auto stage = [&](NewtonKnobs knobs, std::size_t& retry_counter) {
    for (std::size_t attempt = 0; attempt <= rp.damping_attempts; ++attempt) {
      if (out_of_budget()) return false;
      ++(attempt == 0 ? retry_counter : stats.damping_retries);
      ++total.retries;
      if (run(knobs)) return true;
      knobs.update_limit =
          std::max(knobs.update_limit * rp.damping_shrink, rp.min_update_limit);
    }
    return false;
  };

  // gmin stepping: log-ramp from gmin_start down to the floor. The final
  // stage runs at the floor, so a success leaves no artificial conductance
  // beyond it.
  const double gmin_floor = std::max(opts.gmin, 1e-12);
  if (rp.gmin_stages > 0 && rp.gmin_start > gmin_floor) {
    x = x0;
    bool ok = true;
    for (std::size_t s = 0; s <= rp.gmin_stages && ok; ++s) {
      const double f =
          static_cast<double>(s) / static_cast<double>(rp.gmin_stages);
      const double g = rp.gmin_start * std::pow(gmin_floor / rp.gmin_start, f);
      ok = stage({g, opts.max_update, 1.0}, stats.gmin_retries);
    }
    if (ok) {
      ++stats.recovered;
      total.reason = numeric::SolveReason::kOk;
      return total;
    }
    if (budget.exhausted()) return fail(numeric::SolveReason::kBudgetExceeded);
  }

  // Source stepping: homotopy from the trivial all-off circuit.
  if (rp.source_steps > 0) {
    x.assign(x.size(), 0.0);
    bool ok = true;
    for (std::size_t s = 1; s <= rp.source_steps && ok; ++s) {
      const double scale =
          static_cast<double>(s) / static_cast<double>(rp.source_steps);
      ok = stage({gmin_floor, opts.max_update, scale}, stats.source_retries);
    }
    if (ok) {
      ++stats.recovered;
      total.reason = numeric::SolveReason::kOk;
      return total;
    }
    if (budget.exhausted()) return fail(numeric::SolveReason::kBudgetExceeded);
  }

  return fail(last.reason);
}

numeric::SolveBudget budget_of(const RetryPolicy& rp) {
  return numeric::SolveBudget(rp.iteration_budget);
}

void unpack(const System& sys, const numeric::Vec& x, numeric::Vec& node_v,
            numeric::Vec& src_i) {
  node_v.assign(sys.nn, 0.0);
  for (NodeId n = 1; n < sys.nn; ++n) node_v[n] = x[sys.row_of_node(n)];
  src_i.assign(sys.nv, 0.0);
  for (std::size_t j = 0; j < sys.nv; ++j) src_i[j] = x[sys.row_of_src(j)];
}

/// Commit the companion history after an accepted step of size h.
void update_caps(System& sys, const numeric::Vec& x, double h, bool trap) {
  auto v_across = [&](NodeId n1, NodeId n2) {
    const double v1 = n1 == kGround ? 0.0 : x[n1 - 1];
    const double v2 = n2 == kGround ? 0.0 : x[n2 - 1];
    return v1 - v2;
  };
  for (auto& c : sys.caps) {
    const double v_now = v_across(c.n1, c.n2);
    const double geq = (trap ? 2.0 : 1.0) * c.c / h;
    const double ieq = trap ? (geq * c.v_prev + c.i_prev) : (geq * c.v_prev);
    double i_new = geq * v_now - ieq;
    const bool ringing =
        i_new * c.i_prev < 0.0 &&
        std::fabs(i_new + c.i_prev) < 0.25 * std::fabs(i_new - c.i_prev);
    if (ringing) i_new *= 0.5;
    c.i_prev = i_new;
    c.v_prev = v_now;
  }
}

// Records one transient run's telemetry when the enclosing scope exits —
// per run, never per Newton solve or per timestep, so the obs-ON overhead
// stays unmeasurable on the integration hot path.
struct TranRunObs {
  const TranResult& out;
  ~TranRunObs() {
    static obs::Counter& c_runs = obs::counter("spice.transient.runs");
    static obs::Counter& c_aborts = obs::counter("spice.transient.aborts");
    static obs::Histogram& h_retries = obs::histogram(
        "spice.transient.retries", {0.5, 1.5, 3.5, 7.5, 15.5, 31.5, 63.5});
    c_runs.add(1);
    if (!out.converged) c_aborts.add(1);
    h_retries.observe(static_cast<double>(out.stats.total_retries()));
  }
};

}  // namespace

DcResult dc_operating_point(const Netlist& nl, double t, const EngineOptions& opts) {
  obs::Span span("spice.dc_operating_point");
  static obs::Counter& c_solves = obs::counter("spice.dc.solves");
  static obs::Counter& c_failures = obs::counter("spice.dc.failures");
  static obs::Histogram& h_iters = obs::histogram(
      "spice.dc.iterations", {5, 10, 20, 40, 80, 160, 320});
  System sys = make_system(nl);
  numeric::Vec x(sys.dim, 0.0);
  DcResult res;
  numeric::SolveBudget budget = budget_of(opts.retry);
  res.status = newton_robust(sys, t, x, /*use_caps=*/false, 0.0, false, opts,
                             budget, res.stats);
  res.newton_iterations = res.status.iterations;
  res.converged = res.status.ok();
  unpack(sys, x, res.node_voltage, res.source_current);
  c_solves.add(1);
  if (!res.converged) c_failures.add(1);
  h_iters.observe(static_cast<double>(res.status.iterations));
  return res;
}

TranResult transient(const Netlist& nl, double t_stop, double dt,
                     const EngineOptions& opts) {
  if (t_stop <= 0.0 || dt <= 0.0)
    throw std::invalid_argument("transient: nonpositive t_stop or dt");
  obs::Span span("spice.transient");
  System sys = make_system(nl);

  // Time grid: uniform plus source breakpoints.
  std::vector<double> grid;
  for (double t = 0.0; t < t_stop + 0.5 * dt; t += dt) grid.push_back(std::min(t, t_stop));
  std::vector<double> breakpoints;
  for (const auto& src : nl.vsources())
    for (double b : src.wave.breakpoints())
      if (b > 0.0 && b < t_stop) {
        grid.push_back(b);
        breakpoints.push_back(b);
      }
  for (const auto& src : nl.isources())
    for (double b : src.wave.breakpoints())
      if (b > 0.0 && b < t_stop) {
        grid.push_back(b);
        breakpoints.push_back(b);
      }
  std::sort(grid.begin(), grid.end());
  grid.erase(std::unique(grid.begin(), grid.end(),
                         [&](double a, double b) { return std::fabs(a - b) < 1e-18; }),
             grid.end());
  std::sort(breakpoints.begin(), breakpoints.end());
  // Waveform slope discontinuities excite the trapezoidal rule's marginal
  // +-oscillation mode; one backward-Euler step leaving each breakpoint
  // damps it before it starts (standard practice in circuit simulators).
  auto at_breakpoint = [&](double t) {
    const auto it = std::lower_bound(breakpoints.begin(), breakpoints.end(), t - 1e-18);
    return it != breakpoints.end() && std::fabs(*it - t) < 1e-15;
  };

  TranResult out;
  TranRunObs run_obs{out};
  out.converged = true;
  numeric::SolveBudget budget = budget_of(opts.retry);

  // DC at t = 0 (or all-zero initial conditions when opts.uic).
  numeric::Vec x(sys.dim, 0.0);
  if (!opts.uic) {
    out.status = newton_robust(sys, 0.0, x, false, 0.0, false, opts, budget,
                               out.stats);
    if (!out.status.ok()) {
      // No valid starting state: record the single (zero-initialized) t = 0
      // sample and abort before integrating anything.
      out.converged = false;
      out.failure_time = 0.0;
      numeric::Vec nv, si;
      unpack(sys, x, nv, si);
      out.time.push_back(0.0);
      out.v.push_back(nv);
      out.i_src.push_back(si);
      return out;
    }
  }

  auto v_across = [&](const numeric::Vec& xx, NodeId n1, NodeId n2) {
    const double v1 = n1 == kGround ? 0.0 : xx[n1 - 1];
    const double v2 = n2 == kGround ? 0.0 : xx[n2 - 1];
    return v1 - v2;
  };
  for (auto& c : sys.caps) {
    c.v_prev = v_across(x, c.n1, c.n2);
    c.i_prev = 0.0;  // steady state
  }

  numeric::Vec node_v, src_i;
  unpack(sys, x, node_v, src_i);
  out.time.push_back(0.0);
  out.v.push_back(node_v);
  out.i_src.push_back(src_i);

  bool first_step = true;
  for (std::size_t k = 1; k < grid.size(); ++k) {
    const double t = grid[k];
    const double h = t - grid[k - 1];
    if (h <= 0.0) continue;
    // Backward Euler on the first step (no valid i_prev yet) and on the
    // step leaving any source breakpoint; trapezoidal elsewhere.
    const bool trap = opts.trapezoidal && !first_step && !at_breakpoint(grid[k - 1]);
    const numeric::SolveStatus st =
        newton_robust(sys, t, x, true, h, trap, opts, budget, out.stats);
    if (!st.ok()) {
      // Unrecoverable failure: abort the run instead of committing garbage
      // companion-model state and integrating the rest of the grid from it.
      // Samples up to the previous accepted step remain valid.
      out.converged = false;
      out.status = st;
      out.failure_time = t;
      return out;
    }
    first_step = false;

    // Commit companion history (with ringing suppression; see update_caps).
    update_caps(sys, x, h, trap);

    unpack(sys, x, node_v, src_i);
    out.time.push_back(t);
    out.v.push_back(node_v);
    out.i_src.push_back(src_i);
  }
  return out;
}

}  // namespace stco::spice

namespace stco::spice {

TranResult transient_adaptive(const Netlist& nl, double t_stop,
                              const AdaptiveOptions& aopts) {
  if (t_stop <= 0.0) throw std::invalid_argument("transient_adaptive: t_stop");
  obs::Span span("spice.transient_adaptive");
  const EngineOptions& opts = aopts.engine;
  System sys = make_system(nl);

  const double dt_max = aopts.dt_max > 0 ? aopts.dt_max : t_stop / 50.0;
  double dt = aopts.dt_initial > 0 ? aopts.dt_initial : dt_max / 10.0;
  dt = std::clamp(dt, aopts.dt_min, dt_max);

  // Sorted breakpoints the stepper must land on exactly.
  std::vector<double> breakpoints;
  for (const auto& src : nl.vsources())
    for (double b : src.wave.breakpoints())
      if (b > 0.0 && b < t_stop) breakpoints.push_back(b);
  for (const auto& src : nl.isources())
    for (double b : src.wave.breakpoints())
      if (b > 0.0 && b < t_stop) breakpoints.push_back(b);
  breakpoints.push_back(t_stop);
  std::sort(breakpoints.begin(), breakpoints.end());
  breakpoints.erase(std::unique(breakpoints.begin(), breakpoints.end()),
                    breakpoints.end());

  TranResult out;
  TranRunObs run_obs{out};
  out.converged = true;
  numeric::SolveBudget budget = budget_of(opts.retry);

  numeric::Vec x(sys.dim, 0.0);
  if (!opts.uic) {
    out.status = newton_robust(sys, 0.0, x, false, 0.0, false, opts, budget,
                               out.stats);
    if (!out.status.ok()) {
      out.converged = false;
      out.failure_time = 0.0;
      numeric::Vec nv, si;
      unpack(sys, x, nv, si);
      out.time.push_back(0.0);
      out.v.push_back(nv);
      out.i_src.push_back(si);
      return out;
    }
  }
  {
    auto v_across = [&](NodeId n1, NodeId n2) {
      const double v1 = n1 == kGround ? 0.0 : x[n1 - 1];
      const double v2 = n2 == kGround ? 0.0 : x[n2 - 1];
      return v1 - v2;
    };
    for (auto& c : sys.caps) {
      c.v_prev = v_across(c.n1, c.n2);
      c.i_prev = 0.0;
    }
  }
  numeric::Vec node_v, src_i;
  unpack(sys, x, node_v, src_i);
  out.time.push_back(0.0);
  out.v.push_back(node_v);
  out.i_src.push_back(src_i);

  double t = 0.0;
  bool after_discontinuity = true;  // first step and post-breakpoint: BE
  std::size_t next_bp = 0;
  while (t < t_stop - 1e-18) {
    while (next_bp < breakpoints.size() && breakpoints[next_bp] <= t + 1e-18)
      ++next_bp;
    const double t_limit =
        next_bp < breakpoints.size() ? breakpoints[next_bp] : t_stop;
    double h = std::min(dt, t_limit - t);
    // The backward-Euler step leaving a discontinuity has no LTE control;
    // keep it short so a waveform edge is never crossed in one blind jump.
    if (after_discontinuity) h = std::min(h, std::max(aopts.dt_min, 0.1 * dt));
    h = std::max(h, aopts.dt_min);
    const double t_next = t + h;

    const bool trap = opts.trapezoidal && !after_discontinuity;
    numeric::Vec x_main = x;
    const numeric::SolveStatus st =
        newton_robust(sys, t_next, x_main, true, h, trap, opts, budget,
                      out.stats);
    if (!st.ok()) {
      // Try shrinking the step before declaring the run dead: a shorter
      // step tightens the companion conductances and often restores
      // convergence where the whole recovery ladder could not.
      if (h > aopts.dt_min * 1.01 &&
          st.reason != numeric::SolveReason::kBudgetExceeded) {
        dt = std::max(h * aopts.shrink_on_reject, aopts.dt_min);
        continue;
      }
      out.converged = false;
      out.status = st;
      out.failure_time = t_next;
      return out;
    }

    double lte = 0.0;
    if (trap) {
      // BE predictor as the error reference. A predictor failure is not
      // fatal — it only serves the LTE estimate — so fall back to
      // accepting the trapezoidal solution without step control.
      numeric::Vec x_be = x;
      const numeric::SolveStatus st_be =
          newton_robust(sys, t_next, x_be, true, h, false, opts, budget,
                        out.stats);
      if (st_be.ok()) {
        for (std::size_t k = 0; k < sys.nn - 1; ++k)
          lte = std::max(lte, std::fabs(x_main[k] - x_be[k]));
        if (lte > 4.0 * aopts.lte_target && h > aopts.dt_min * 1.01) {
          dt = std::max(h * aopts.shrink_on_reject, aopts.dt_min);
          continue;  // reject the step
        }
      } else {
        ++out.stats.fallbacks;
      }
    }

    // Accept.
    x = std::move(x_main);
    update_caps(sys, x, h, trap);
    unpack(sys, x, node_v, src_i);
    out.time.push_back(t_next);
    out.v.push_back(node_v);
    out.i_src.push_back(src_i);
    t = t_next;
    after_discontinuity =
        next_bp < breakpoints.size() && std::fabs(t - breakpoints[next_bp]) < 1e-18;

    if (trap) {
      const double ratio =
          std::sqrt(aopts.lte_target / std::max(lte, 1e-12 * aopts.lte_target));
      dt = std::clamp(h * std::clamp(ratio, 0.3, aopts.grow_limit), aopts.dt_min,
                      dt_max);
    } else {
      dt = std::clamp(dt, aopts.dt_min, dt_max);
    }
  }
  return out;
}

}  // namespace stco::spice
