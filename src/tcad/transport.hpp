#pragma once
// Quasi-1D drift transport for the TFT: a gradual-channel integration over
// vertical Poisson slices. Together with poisson.hpp this forms the
// "commercial TCAD" stand-in whose I-V output trains the GNN IV predictor
// (paper Table II, row 2).
//
// Current model (N-type; P-type mirrored):
//   I_D = (W / L) * integral_{0}^{V_D} mu(Q_s(V)) * Q_s(V) dV  +  I_SRH
// where Q_s(V) is the mobile sheet charge from a 1-D vertical nonlinear
// Poisson slice with channel quasi-Fermi potential V, and
//   mu(Q_s) = mu0 * (Q_s / Q_ref)^gamma,  Q_ref = C_ox * 1 V
// is the tail-trap / variable-range-hopping mobility enhancement that the
// unified compact model (Eq. 1) abstracts as mu0 |V_G - V_th|^gamma.

#include <vector>

#include "src/numeric/status.hpp"
#include "src/tcad/device.hpp"
#include "src/tcad/recovery.hpp"

namespace stco::tcad {

/// Gradual-channel integration intervals from source to drain; the sweep
/// solves kIntegrationSteps + 1 vertical slices.
inline constexpr std::size_t kIntegrationSteps = 32;

struct TransportOptions {
  std::size_t max_newton = 60;
  /// Recovery for diverging vertical slices: damping escalation first, then
  /// gate-bias continuation (ramp vg from the local channel potential).
  ContinuationPolicy continuation{};
};

/// Mobile sheet charge [C/m^2] in the film for gate bias `vg` and local
/// channel quasi-Fermi potential `v_channel`. Always >= 0 (magnitude of the
/// dominant mobile carrier charge).
double sheet_charge(const TftDevice& dev, double vg, double v_channel,
                    const TransportOptions& opts = {});

/// Gate oxide capacitance per area [F/m^2].
double oxide_capacitance(const TftDevice& dev);

/// DC drain current [A] at the given bias. Sign convention: returned value
/// is the magnitude of the source-to-drain current (both N and P devices
/// report positive on-current for their natural bias polarity).
double drain_current(const TftDevice& dev, const Bias& bias,
                     const TransportOptions& opts = {});

/// Diagnosed drain-current evaluation. `valid` is false when a vertical
/// slice failed hard (singular system, NaN, budget) even after the recovery
/// ladder — `id` is then 0 rather than garbage. A slice that merely ran out
/// of Newton iterations with a finite residual is accepted as an
/// approximation and counted in `stats.fallbacks`.
struct TransportResult {
  double id = 0.0;
  bool valid = true;
  numeric::SolveStatus status;
  numeric::RobustnessStats stats;
};

[[nodiscard]] TransportResult drain_current_ex(const TftDevice& dev, const Bias& bias,
                                               const TransportOptions& opts = {});

/// One simulated I-V sample.
struct IvPoint {
  double vg = 0.0;
  double vd = 0.0;
  double id = 0.0;
  bool valid = true;  ///< false: solver failed after retries; id is 0
};

/// Transfer characteristic: sweep vg at fixed vd.
std::vector<IvPoint> transfer_curve(const TftDevice& dev, double vd,
                                    const std::vector<double>& vg_values,
                                    const TransportOptions& opts = {});

/// Output characteristic: sweep vd at fixed vg.
std::vector<IvPoint> output_curve(const TftDevice& dev, double vg,
                                  const std::vector<double>& vd_values,
                                  const TransportOptions& opts = {});

/// SRH generation-limited leakage floor [A] (gate-independent).
double srh_leakage(const TftDevice& dev, double vd);

}  // namespace stco::tcad
