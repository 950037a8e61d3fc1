// The prepared-device evaluation (prepare_tft + evaluate_tft, with a fresh
// and with a kept channel-end memo) against the per-call evaluation it replaced,
// compared bit for bit over a bias grid: N and P devices, forward and
// reverse vds, both softplus clamps (x > 30 and x < -30), lambda != 0 and
// gamma = 0.

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "src/compact/tft_model.hpp"

namespace stco::compact {
namespace {

namespace reference {

// The evaluation as it was: every call validates, recomputes vt_eff, k and
// gamma + 1, and a P-type device copies its parameters and recurses.
constexpr double kKbOverQ = 8.617333262e-5;

struct Smooth {
  double f = 0.0;
  double df = 0.0;
};

Smooth softplus_overdrive(double v, double vt_eff) {
  Smooth s;
  const double x = v / vt_eff;
  if (x > 30.0) {
    s.f = v;
    s.df = 1.0;
  } else if (x < -30.0) {
    s.f = vt_eff * std::exp(x);
    s.df = std::exp(x);
  } else {
    s.f = vt_eff * std::log1p(std::exp(x));
    s.df = 1.0 / (1.0 + std::exp(-x));
  }
  return s;
}

TftEval eval_ntype_forward(const TftParams& p, double vgs, double vds) {
  const double vt_eff = p.ss_factor * kKbOverQ * p.temperature_k;
  const double g1 = p.gamma + 1.0;
  const double k = (p.width / p.length) * p.mu0 * p.cox;

  const Smooth fs = softplus_overdrive(vgs - p.vth, vt_eff);
  const Smooth fd = softplus_overdrive(vgs - p.vth - vds, vt_eff);

  const double fs_p = std::pow(fs.f, g1);
  const double fd_p = std::pow(fd.f, g1);
  const double fs_g = std::pow(fs.f, p.gamma);
  const double fd_g = std::pow(fd.f, p.gamma);

  const double core = k * (fs_p - fd_p) / g1;
  const double clm = 1.0 + p.lambda * vds;

  TftEval e;
  e.id = core * clm;
  e.gm = k * (fs_g * fs.df - fd_g * fd.df) * clm;
  e.gds = k * fd_g * fd.df * clm + core * p.lambda;
  return e;
}

TftEval evaluate_tft(const TftParams& p, double vg, double vd, double vs) {
  if (p.gamma < 0.0) throw std::invalid_argument("evaluate_tft: gamma must be >= 0");
  if (p.length <= 0.0 || p.width <= 0.0)
    throw std::invalid_argument("evaluate_tft: nonpositive geometry");
  if (p.type == TftType::kPType) {
    TftParams q = p;
    q.type = TftType::kNType;
    q.vth = -p.vth;
    TftEval e = reference::evaluate_tft(q, -vg, -vd, -vs);
    e.id = -e.id;
    return e;
  }
  const double vgs = vg - vs;
  const double vds = vd - vs;
  if (vds >= 0.0) return eval_ntype_forward(p, vgs, vds);
  const double vgs2 = vg - vd;
  const double vds2 = -vds;
  const TftEval f = eval_ntype_forward(p, vgs2, vds2);
  TftEval e;
  e.id = -f.id;
  e.gm = -f.gm;
  e.gds = f.gm + f.gds;
  return e;
}

}  // namespace reference

bool same_bits(const TftEval& a, const TftEval& b) {
  auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
  return bits(a.id) == bits(b.id) && bits(a.gm) == bits(b.gm) && bits(a.gds) == bits(b.gds);
}

std::vector<TftParams> devices() {
  TftParams n;
  n.mu0 = 5e-3;
  n.vth = 0.8;
  n.gamma = 0.3;
  n.cox = 1.2e-4;
  n.width = 7.3e-6;
  n.length = 1.9e-6;
  TftParams n_clm = n;
  n_clm.lambda = 0.05;
  TftParams n_flat = n;
  n_flat.gamma = 0.0;
  n_flat.ss_factor = 2.3;
  n_flat.temperature_k = 350.0;
  std::vector<TftParams> out{n, n_clm, n_flat};
  for (std::size_t i = 0; i < 3; ++i) {
    TftParams p = out[i];
    p.type = TftType::kPType;
    p.vth = -p.vth;
    p.mu0 *= 0.45;
    out.push_back(p);
  }
  return out;
}

/// Terminal voltages from -4 V to 4 V: with vt_eff near 41 mV the
/// overdrive crosses both clamps (|x| > 30 beyond about 1.24 V), and vd
/// below vs exercises the reverse mode.
std::vector<double> bias_axis() {
  std::vector<double> v;
  for (double x = -4.0; x <= 4.0; x += 0.37) v.push_back(x);
  v.push_back(0.0);
  v.push_back(-0.0);
  v.push_back(0.8);  // overdrive exactly 0 at vs = 0
  return v;
}

TEST(TftDevice, PreparedEvaluationMatchesReferenceBitwise) {
  const std::vector<double> axis = bias_axis();
  for (const TftParams& p : devices()) {
    const TftDevice d = prepare_tft(p);
    TftMemo memo;  // kept across the grid: consecutive biases share ends
    std::size_t points = 0;
    for (double vs : axis)
      for (double vg : axis)
        for (double vd : axis) {
          const TftEval want = reference::evaluate_tft(p, vg, vd, vs);
          ASSERT_TRUE(same_bits(evaluate_tft(p, vg, vd, vs), want))
              << "params overload at vg=" << vg << " vd=" << vd << " vs=" << vs;
          TftMemo fresh;
          ASSERT_TRUE(same_bits(evaluate_tft(d, vg, vd, vs, fresh), want))
              << "fresh memo at vg=" << vg << " vd=" << vd << " vs=" << vs;
          ASSERT_TRUE(same_bits(evaluate_tft(d, vg, vd, vs, memo), want))
              << "kept memo at vg=" << vg << " vd=" << vd << " vs=" << vs;
          ++points;
        }
    EXPECT_GT(points, 10000u);
  }
}

TEST(TftDevice, MemoReusesOnlyIdenticalArguments) {
  // Alternate between two biases that share the source end but not the
  // drain end, and back: every call must still match a fresh evaluation.
  const TftDevice d = prepare_tft(devices()[1]);
  TftMemo memo;
  for (int i = 0; i < 6; ++i) {
    const double vd = (i % 2 == 0) ? 0.3 : 2.9;
    TftMemo fresh;
    EXPECT_TRUE(
        same_bits(evaluate_tft(d, 2.5, vd, 0.0, memo), evaluate_tft(d, 2.5, vd, 0.0, fresh)));
    EXPECT_EQ(memo.source.arg, 2.5 - 0.8);
  }
}

TEST(TftDevice, InvalidParametersStillThrow) {
  TftParams p = devices()[0];
  p.gamma = -0.1;
  EXPECT_THROW((void)prepare_tft(p), std::invalid_argument);
  EXPECT_THROW(evaluate_tft(p, 1, 1, 0), std::invalid_argument);
  p = devices()[3];
  p.width = 0.0;
  EXPECT_THROW((void)prepare_tft(p), std::invalid_argument);
  EXPECT_THROW(evaluate_tft(p, 1, 1, 0), std::invalid_argument);
  p = devices()[0];
  p.length = -1e-6;
  EXPECT_THROW(evaluate_tft(p, 1, 1, 0), std::invalid_argument);
}

}  // namespace
}  // namespace stco::compact
