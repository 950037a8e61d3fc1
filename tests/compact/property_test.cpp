// Property-based sweeps over the compact-model parameter space: every
// combination must satisfy the model's structural invariants (derivative
// consistency, terminal symmetry, monotonicity, geometric scaling).

#include <gtest/gtest.h>

#include <cmath>

#include "src/compact/tft_model.hpp"

namespace stco::compact {
namespace {

struct ModelCase {
  TftType type;
  double vth;
  double gamma;
  double vdd;
};

class CompactModelProperty : public ::testing::TestWithParam<ModelCase> {
 protected:
  TftParams params() const {
    const auto& c = GetParam();
    TftParams p;
    p.type = c.type;
    p.vth = c.type == TftType::kNType ? c.vth : -c.vth;
    p.gamma = c.gamma;
    p.mu0 = 3e-3;
    p.cox = 1.5e-4;
    p.width = 12e-6;
    p.length = 3e-6;
    return p;
  }
  double sign() const {
    return GetParam().type == TftType::kNType ? 1.0 : -1.0;
  }
};

TEST_P(CompactModelProperty, DerivativesMatchFiniteDifference) {
  const auto p = params();
  const double s = sign();
  for (double vg_frac : {0.3, 0.6, 1.0})
    for (double vd_frac : {0.2, 0.8}) {
      const double vg = s * vg_frac * GetParam().vdd;
      const double vd = s * vd_frac * GetParam().vdd;
      const auto e = evaluate_tft(p, vg, vd, 0.0);
      const double h = 1e-6;
      const double fd_gm =
          (tft_current(p, vg + h, vd, 0.0) - tft_current(p, vg - h, vd, 0.0)) / (2 * h);
      const double fd_gds =
          (tft_current(p, vg, vd + h, 0.0) - tft_current(p, vg, vd - h, 0.0)) / (2 * h);
      EXPECT_NEAR(e.gm, fd_gm, 1e-4 * std::max(1e-9, std::fabs(fd_gm)));
      EXPECT_NEAR(e.gds, fd_gds, 1e-4 * std::max(1e-9, std::fabs(fd_gds)));
    }
}

TEST_P(CompactModelProperty, TerminalSymmetry) {
  // Swapping source and drain negates the current.
  const auto p = params();
  const double s = sign();
  const double vg = s * 0.8 * GetParam().vdd, vd = s * 0.5 * GetParam().vdd;
  const double fwd = tft_current(p, vg, vd, 0.0);
  const double rev = tft_current(p, vg - vd, -vd, 0.0);
  EXPECT_NEAR(rev, -fwd, 1e-12 + 1e-9 * std::fabs(fwd));
}

TEST_P(CompactModelProperty, MonotoneInGateDrive) {
  const auto p = params();
  const double s = sign();
  const double vd = s * 0.5 * GetParam().vdd;
  double prev = -1.0;
  for (double f = 0.0; f <= 1.2; f += 0.1) {
    const double i = std::fabs(tft_current(p, s * f * GetParam().vdd, vd, 0.0));
    if (prev >= 0.0) {
      EXPECT_GE(i, prev * (1.0 - 1e-12));
    }
    prev = i;
  }
}

TEST_P(CompactModelProperty, MonotoneInDrainBias) {
  const auto p = params();
  const double s = sign();
  const double vg = s * GetParam().vdd;
  double prev = -1.0;
  for (double f = 0.05; f <= 1.5; f += 0.15) {
    const double i = std::fabs(tft_current(p, vg, s * f * GetParam().vdd, 0.0));
    if (prev >= 0.0) {
      EXPECT_GE(i, prev * (1.0 - 1e-12));
    }
    prev = i;
  }
}

TEST_P(CompactModelProperty, ScalesWithGeometry) {
  auto p = params();
  const double s = sign();
  const double vg = s * GetParam().vdd, vd = s * 0.6 * GetParam().vdd;
  const double base = tft_current(p, vg, vd, 0.0);
  auto p2 = p;
  p2.width *= 3.0;
  EXPECT_NEAR(tft_current(p2, vg, vd, 0.0) / base, 3.0, 1e-9);
  auto p3 = p;
  p3.length *= 2.0;
  EXPECT_NEAR(tft_current(p3, vg, vd, 0.0) / base, 0.5, 1e-9);
}

TEST_P(CompactModelProperty, ZeroVdsZeroCurrent) {
  const auto p = params();
  EXPECT_DOUBLE_EQ(tft_current(p, sign() * GetParam().vdd, 0.0, 0.0), 0.0);
}

TEST_P(CompactModelProperty, EffectiveMobilityFollowsEq1) {
  const auto p = params();
  const double s = sign();
  for (double ov : {0.5, 1.5, 3.0}) {
    const double vgs = p.type == TftType::kNType ? p.vth + ov : p.vth - ov;
    const double mu = effective_mobility(p, vgs);
    EXPECT_NEAR(mu / (p.mu0 * std::pow(ov, p.gamma)), 1.0, 0.1) << "ov=" << ov << s;
  }
}

// gtest prints a ModelCase (it has no operator<<) as its raw bytes, padding
// included, and that text is part of the registered test name. Static
// storage zero-fills the padding, so the names are the same on every run;
// temporaries built on the stack would carry whatever bytes were there.
constexpr ModelCase kModelCases[] = {
    {TftType::kNType, 0.5, 0.0, 3.0},  {TftType::kNType, 0.8, 0.25, 3.0},
    {TftType::kNType, 1.2, 0.45, 5.0}, {TftType::kNType, 1.6, 0.14, 5.0},
    {TftType::kNType, 0.4, 0.9, 2.0},  {TftType::kPType, 0.5, 0.0, 3.0},
    {TftType::kPType, 0.8, 0.28, 3.0}, {TftType::kPType, 1.1, 0.45, 5.0},
    {TftType::kPType, 1.9, 0.42, 6.0}};

INSTANTIATE_TEST_SUITE_P(
    ParameterSweep, CompactModelProperty, ::testing::ValuesIn(kModelCases),
    [](const ::testing::TestParamInfo<ModelCase>& info) {
      const auto& c = info.param;
      return std::string(c.type == TftType::kNType ? "N" : "P") + "_vth" +
             std::to_string(static_cast<int>(c.vth * 10)) + "_g" +
             std::to_string(static_cast<int>(c.gamma * 100)) + "_vdd" +
             std::to_string(static_cast<int>(c.vdd));
    });


TEST(Temperature, SubthresholdCurrentRisesWithT) {
  TftParams p;
  p.type = TftType::kNType;
  p.vth = 1.0;
  p.mu0 = 3e-3;
  p.cox = 1.5e-4;
  p.width = 12e-6;
  p.length = 3e-6;
  TftParams hot = p;
  hot.temperature_k = 400.0;
  // Below threshold the softplus tail widens with temperature.
  const double cold_i = tft_current(p, 0.3, 2.0, 0.0);
  const double hot_i = tft_current(hot, 0.3, 2.0, 0.0);
  EXPECT_GT(hot_i, 3.0 * cold_i);
  // Far above threshold the temperature dependence is weak.
  const double cold_on = tft_current(p, 4.0, 2.0, 0.0);
  const double hot_on = tft_current(hot, 4.0, 2.0, 0.0);
  EXPECT_NEAR(hot_on / cold_on, 1.0, 0.1);
}

}  // namespace
}  // namespace stco::compact
