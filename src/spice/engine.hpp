#pragma once
// Modified nodal analysis circuit simulator.
//
// DC operating point: damped Newton over the nonlinear TFT stamps.
// Transient: trapezoidal companion models (backward-Euler first step), with
// the time grid aligned to source breakpoints so edges are sharp. Dense LU
// is used for the linear solves — cell-level circuits have tens of nodes.
//
// This engine is the stand-in for the commercial SPICE the paper used to
// generate its cell-characterization datasets (section II.C).

#include <optional>
#include <vector>

#include "src/numeric/matrix.hpp"
#include "src/numeric/status.hpp"
#include "src/spice/netlist.hpp"

namespace stco::spice {

/// Convergence-recovery ladder configuration. When the plain damped Newton
/// fails, the engine first ramps an elevated gmin (gmin_start) back down to
/// the configured floor in `gmin_stages` log steps, then — for stubborn
/// systems — ramps the independent sources from 0 to full value in
/// `source_steps` homotopy stages. Each failed stage is re-attempted with a
/// tightened per-iteration update limit before the ladder moves on. An
/// overall iteration budget bounds the whole ladder (and, for transients,
/// the whole run).
struct RetryPolicy {
  bool enabled = true;
  double gmin_start = 1e-3;        ///< initial elevated gmin [S]
  std::size_t gmin_stages = 4;     ///< log-ramp stages down to the gmin floor
  std::size_t source_steps = 4;    ///< source homotopy stages (0 -> 1)
  double damping_shrink = 0.5;     ///< update-limit multiplier per re-attempt
  std::size_t damping_attempts = 2;///< tightened re-attempts per stage
  double min_update_limit = 0.02;  ///< update-limit floor [V]
  std::size_t iteration_budget = 200000;  ///< total Newton iterations; 0 = unlimited
};

struct EngineOptions {
  std::size_t max_newton = 120;
  double abstol_v = 1e-9;      ///< Newton voltage update tolerance [V]
  double max_update = 1.0;     ///< per-iteration voltage update cap [V]
  double gmin = 1e-12;         ///< node-to-ground floor conductance [S]
  bool trapezoidal = true;     ///< false: backward Euler throughout
  /// Use initial conditions (SPICE "UIC"): transient starts from all-zero
  /// node voltages instead of the DC operating point. Needed when the DC
  /// point is ill-defined (e.g. a current source into a capacitor).
  bool uic = false;
  RetryPolicy retry{};
};

/// DC operating point. `status` is the structured outcome of the (possibly
/// retried) Newton solve; `converged` mirrors `status.ok()`.
struct DcResult {
  numeric::Vec node_voltage;   ///< indexed by NodeId (entry 0 is ground = 0)
  numeric::Vec source_current; ///< branch current per vsource, + flowing
                               ///< from the + terminal through the source
  std::size_t newton_iterations = 0;
  bool converged = false;
  numeric::SolveStatus status;
  numeric::RobustnessStats stats;  ///< recovery-ladder counters for this solve
};

/// Transient waveform record.
struct TranResult {
  std::vector<double> time;
  /// v[k] is the full node-voltage vector at time[k] (indexed by NodeId).
  std::vector<numeric::Vec> v;
  /// i[k][j] is vsource j's branch current at time[k].
  std::vector<numeric::Vec> i_src;
  bool converged = false;
  numeric::SolveStatus status;     ///< first unrecoverable failure, or ok
  numeric::RobustnessStats stats;  ///< recovery counters over the whole run
  /// Time of the unrecoverable Newton failure that aborted the run
  /// (negative when the run completed). Samples at and before this time are
  /// valid; the grid beyond it was never integrated.
  double failure_time = -1.0;

  std::size_t samples() const { return time.size(); }
};

/// Solve the DC operating point at time `t` (sources evaluated at t).
[[nodiscard]] DcResult dc_operating_point(const Netlist& nl, double t = 0.0,
                                          const EngineOptions& opts = {});

/// Transient analysis from t = 0 to `t_stop` with nominal step `dt`.
/// Starts from the DC operating point at t = 0.
[[nodiscard]] TranResult transient(const Netlist& nl, double t_stop, double dt,
                                   const EngineOptions& opts = {});

struct AdaptiveOptions {
  EngineOptions engine{};
  double dt_min = 1e-12;
  double dt_max = 0.0;        ///< 0 = t_stop / 50
  double dt_initial = 0.0;    ///< 0 = dt_max / 10
  /// Target local truncation error per step, as a voltage [V]. The step
  /// size is chosen so the trapezoidal LTE estimate (difference between
  /// the trapezoidal solution and a backward-Euler predictor) stays near
  /// this value.
  double lte_target = 1e-3;
  double grow_limit = 2.0;    ///< max step growth per accepted step
  double shrink_on_reject = 0.4;
};

/// Adaptive-step transient: steps grow through quiescent intervals and
/// shrink around edges, controlled by a trapezoidal-vs-BE local truncation
/// error estimate. Produces far fewer samples than fixed-step for the same
/// waveform accuracy on bursty digital activity.
[[nodiscard]] TranResult transient_adaptive(const Netlist& nl, double t_stop,
                                            const AdaptiveOptions& opts = {});

}  // namespace stco::spice
