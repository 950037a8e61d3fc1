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

/// When the plain damped Newton fails, a convergence-recovery ladder runs
/// (gmin stepping, then source stepping; see engine.cpp). An overall
/// iteration budget bounds the whole ladder (and, for transients, the
/// whole run).
struct EngineOptions {
  double gmin = 1e-12;         ///< node-to-ground floor conductance [S]
  /// Use initial conditions (SPICE "UIC"): transient starts from all-zero
  /// node voltages instead of the DC operating point. Needed when the DC
  /// point is ill-defined (e.g. a current source into a capacitor).
  bool uic = false;
  std::size_t iteration_budget = 200000;  ///< total Newton iterations; 0 = unlimited
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
  /// Target local truncation error per step, as a voltage [V]. The step
  /// size is chosen so the trapezoidal LTE estimate (difference between
  /// the trapezoidal solution and a backward-Euler predictor) stays near
  /// this value.
  double lte_target = 1e-3;
};

/// Adaptive-step transient: steps grow through quiescent intervals and
/// shrink around edges, controlled by a trapezoidal-vs-BE local truncation
/// error estimate. Produces far fewer samples than fixed-step for the same
/// waveform accuracy on bursty digital activity.
[[nodiscard]] TranResult transient_adaptive(const Netlist& nl, double t_stop,
                                            const AdaptiveOptions& opts = {});

}  // namespace stco::spice
