#include "src/compact/tft_model.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace stco::compact {

namespace {

constexpr double kKbOverQ = 8.617333262e-5;  // V/K

struct Smooth {
  double f = 0.0;   ///< softplus overdrive [V]
  double df = 0.0;  ///< d f / d v (sigmoid)
};

Smooth softplus_overdrive(double v, double vt_eff) {
  Smooth s;
  const double x = v / vt_eff;
  if (x > 30.0) {
    s.f = v;
    s.df = 1.0;
  } else if (x < -30.0) {
    const double ex = std::exp(x);
    s.f = vt_eff * ex;
    s.df = ex;
  } else {
    s.f = vt_eff * std::log1p(std::exp(x));
    s.df = 1.0 / (1.0 + std::exp(-x));
  }
  return s;
}

/// Softplus of one channel end at overdrive argument `v`, into `end`
/// unless it already holds `v`. Returns true when it recomputed, so the
/// end's powers are stale. The terms are a pure function of `v` (+0 and -0
/// compare equal and give the same terms), so a kept copy is the same bits.
bool refresh_softplus(const TftDevice& d, double v, ChannelEnd& end) {
  if (v == end.arg) return false;  // never true for the NaN key of a fresh end
  const Smooth s = softplus_overdrive(v, d.vt_eff);
  end.arg = v;
  end.f = s.f;
  end.df = s.df;
  return true;
}

/// Forward-mode N-type evaluation with vds >= 0. Both ends' softplus run
/// before the powers, as independent libm calls the CPU can overlap.
TftEval eval_ntype_forward(const TftDevice& d, double vgs, double vds, TftMemo& memo) {
  const double g1 = d.g1;
  const double k = d.k;

  ChannelEnd& fs = memo.source;
  ChannelEnd& fd = memo.drain;
  const bool new_s = refresh_softplus(d, vgs - d.vth, fs);
  const bool new_d = refresh_softplus(d, vgs - d.vth - vds, fd);
  if (new_s) fs.f_g1 = std::pow(fs.f, g1);
  if (new_d) fd.f_g1 = std::pow(fd.f, g1);
  if (new_s) fs.f_gamma = std::pow(fs.f, d.gamma);
  if (new_d) fd.f_gamma = std::pow(fd.f, d.gamma);

  const double core = k * (fs.f_g1 - fd.f_g1) / g1;
  const double clm = 1.0 + d.lambda * vds;

  TftEval e;
  e.id = core * clm;
  e.gm = k * (fs.f_gamma * fs.df - fd.f_gamma * fd.df) * clm;
  e.gds = k * fd.f_gamma * fd.df * clm + core * d.lambda;
  return e;
}

/// N-type evaluation at absolute terminal voltages.
TftEval eval_ntype(const TftDevice& d, double vg, double vd, double vs, TftMemo& memo) {
  const double vgs = vg - vs;
  const double vds = vd - vs;
  if (vds >= 0.0) return eval_ntype_forward(d, vgs, vds, memo);

  // Reverse operation: swap source/drain (device is symmetric).
  const double vgs2 = vg - vd;
  const double vds2 = -vds;
  const TftEval f = eval_ntype_forward(d, vgs2, vds2, memo);
  TftEval e;
  e.id = -f.id;
  e.gm = -f.gm;
  e.gds = f.gm + f.gds;
  return e;
}

}  // namespace

TftDevice prepare_tft(const TftParams& p) {
  if (p.gamma < 0.0) throw std::invalid_argument("evaluate_tft: gamma must be >= 0");
  if (p.length <= 0.0 || p.width <= 0.0)
    throw std::invalid_argument("evaluate_tft: nonpositive geometry");
  TftDevice d;
  d.type = p.type;
  d.vth = p.type == TftType::kPType ? -p.vth : p.vth;
  d.gamma = p.gamma;
  d.g1 = p.gamma + 1.0;
  d.vt_eff = p.ss_factor * kKbOverQ * p.temperature_k;
  d.k = (p.width / p.length) * p.mu0 * p.cox;
  d.lambda = p.lambda;
  return d;
}

TftEval evaluate_tft(const TftDevice& d, double vg, double vd, double vs, TftMemo& memo) {
  if (d.type == TftType::kNType) return eval_ntype(d, vg, vd, vs, memo);
  // Map P-type onto N-type via sign mirroring (I -> -I, conductances keep
  // their sign).
  TftEval e = eval_ntype(d, -vg, -vd, -vs, memo);
  e.id = -e.id;
  return e;
}

TftEval evaluate_tft(const TftParams& p, double vg, double vd, double vs) {
  TftMemo memo;
  return evaluate_tft(prepare_tft(p), vg, vd, vs, memo);
}

double tft_current(const TftParams& p, double vg, double vd, double vs) {
  return evaluate_tft(p, vg, vd, vs).id;
}

double effective_mobility(const TftParams& p, double vgs) {
  const double vt_eff = p.ss_factor * kKbOverQ * p.temperature_k;
  const double ov = p.type == TftType::kNType ? (vgs - p.vth) : (p.vth - vgs);
  const Smooth s = softplus_overdrive(ov, vt_eff);
  return p.mu0 * std::pow(s.f, p.gamma);
}

double gate_half_capacitance(const TftParams& p) {
  return 0.5 * p.cox * p.width * p.length;
}

}  // namespace stco::compact
