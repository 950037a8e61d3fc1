#pragma once
// Unified compact model for emerging thin-film transistors (paper Eq. 1).
//
// Mobility law (tail-distributed traps + variable-range hopping):
//     mu = mu0 * (V_G - V_th)^gamma     (N-type)
//     mu = mu0 * (V_th - V_G)^gamma     (P-type)
// Integrating the charge-drift current dI = W mu Cox (V_ov - V) dV along the
// channel yields the intrinsic current model
//     I_D = (W/L) mu0 Cox [ F(V_ov,s)^(gamma+1) - F(V_ov,d)^(gamma+1) ] / (gamma+1)
// where V_ov,s = V_GS - V_th, V_ov,d = V_GS - V_th - V_DS, and F is a
// softplus smoothing that extends the model continuously through the
// subthreshold region (slope factor `ss`). Saturation emerges naturally as
// F(V_ov,d) -> 0. All derivatives are analytic so the SPICE engine's Newton
// iterations converge quadratically.

#include <cstdint>
#include <limits>

namespace stco::compact {

enum class TftType : std::uint8_t { kNType = 0, kPType = 1 };

/// Fit / design parameters of one transistor instance.
struct TftParams {
  TftType type = TftType::kNType;
  double mu0 = 1e-3;    ///< effective mobility at |Vg - Vth| = 1 V [m^2/Vs]
  double vth = 1.0;     ///< threshold voltage magnitude-signed: N-type vth>0 typical
  double gamma = 0.3;   ///< field enhancement factor (>= 0)
  double cox = 3.45e-4; ///< gate capacitance per area [F/m^2]
  double width = 10e-6; ///< W [m]
  double length = 2e-6; ///< L [m]
  double ss_factor = 1.6;  ///< subthreshold slope ideality (dimensionless)
  double lambda = 0.0;     ///< channel-length modulation [1/V] (0 = ideal)
  double temperature_k = 300.0;
};

/// Current and small-signal conductances at one bias point.
struct TftEval {
  double id = 0.0;   ///< drain current, positive flowing drain->source for
                     ///< N-type forward bias (sign follows terminal maths)
  double gm = 0.0;   ///< dId/dVgs
  double gds = 0.0;  ///< dId/dVds
};

/// One device's parameters, validated once, with the bias-independent
/// constants of the current model hoisted out. A P-type device is stored as
/// its mirrored N-type twin (vth negated); evaluation mirrors the terminal
/// voltages and the current. Netlists prepare each device once and evaluate
/// it at every Newton iteration.
struct TftDevice {
  TftType type = TftType::kNType;
  double vth = 1.0;     ///< N-type-equivalent threshold (-vth for P-type)
  double gamma = 0.3;
  double g1 = 1.3;      ///< gamma + 1
  double vt_eff = 0.0;  ///< softplus scale ss_factor * kT/q [V]
  double k = 0.0;       ///< (W/L) mu0 Cox
  double lambda = 0.0;
};

/// Validate `p` and hoist its constants. Throws std::invalid_argument for
/// gamma < 0 or nonpositive geometry.
[[nodiscard]] TftDevice prepare_tft(const TftParams& p);

/// One channel end's bias terms: the softplus overdrive f at argument
/// `arg`, its slope df, f^(gamma+1) and f^gamma.
struct ChannelEnd {
  double arg = std::numeric_limits<double>::quiet_NaN();  ///< NaN: nothing held
  double f = 0.0;
  double df = 0.0;
  double f_g1 = 0.0;
  double f_gamma = 0.0;
};

/// The last terms one device instance computed at each channel end. A
/// Newton loop often meets bitwise the same overdrive again at one end —
/// a gate and source held on fixed rails — and the terms are a pure
/// function of it, so reusing them changes no bit of the result.
struct TftMemo {
  ChannelEnd source;
  ChannelEnd drain;
};

/// Evaluate the compact model. Terminal voltages are absolute node voltages
/// (vg, vd, vs); source/drain are swapped internally when vds < 0 so the
/// model is symmetric, like a physical TFT. Reuses and updates the device
/// instance's `memo`.
TftEval evaluate_tft(const TftDevice& d, double vg, double vd, double vs, TftMemo& memo);

/// prepare_tft, then evaluate with a fresh memo (validates on every call).
TftEval evaluate_tft(const TftParams& p, double vg, double vd, double vs);

/// Drain current only (convenience).
double tft_current(const TftParams& p, double vg, double vd, double vs);

/// Effective mobility from Eq. 1 at a gate overdrive; clamps at 0 overdrive
/// via the same softplus smoothing used in the current model.
double effective_mobility(const TftParams& p, double vgs);

/// Gate capacitances (Meyer-style constant partition of the channel charge
/// plus overlap): returns Cgs = Cgd = 0.5 * cox * W * L.
double gate_half_capacitance(const TftParams& p);

}  // namespace stco::compact
