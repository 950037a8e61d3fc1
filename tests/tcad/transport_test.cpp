#include "src/tcad/transport.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

namespace stco::tcad {
namespace {

TftDevice ntype_device() {
  TftDevice dev;
  dev.semi = igzo_params();
  dev.length = 2e-6;
  dev.width = 10e-6;
  dev.t_ox = 100e-9;
  dev.t_ch = 40e-9;
  dev.contact_len = 0.4e-6;
  return dev;
}

TftDevice ptype_device() {
  TftDevice dev = ntype_device();
  dev.semi = cnt_params();
  return dev;
}

/// Drain current rebuilt from cold per-slice `sheet_charge` solves with the
/// transport model's trapezoid, mobility law and leakage terms.
double cold_reference_current(const TftDevice& dev, const Bias& b) {
  const double vd_mag = std::fabs(b.vd - b.vs);
  const double sgn = (b.vd - b.vs) >= 0 ? 1.0 : -1.0;
  const double q_ref = oxide_capacitance(dev) * 1.0;
  const double dv = vd_mag / static_cast<double>(kIntegrationSteps);
  double integral = 0.0, q_prev = -1.0, mu_prev = 0.0;
  for (std::size_t k = 0; k <= kIntegrationSteps; ++k) {
    const double qs =
        sheet_charge(dev, b.vg, b.vs + sgn * static_cast<double>(k) * dv);
    const double mu =
        dev.semi.mu0 * std::pow(std::max(qs, 1e-12) / q_ref, dev.semi.gamma);
    if (q_prev >= 0.0) integral += 0.5 * (mu * qs + mu_prev * q_prev) * dv;
    q_prev = qs;
    mu_prev = mu;
  }
  return (dev.width / dev.length) * integral + srh_leakage(dev, vd_mag) +
         1e-12 * vd_mag;
}

/// The device benchmark's bias grid in the film's natural polarity.
std::vector<double> transfer_vgs(double sgn) {
  std::vector<double> v;
  for (int i = -2; i <= 12; ++i) v.push_back(sgn * 0.5 * i);
  return v;
}

std::vector<double> output_vds(double sgn) {
  std::vector<double> v;
  for (double x : {0.5, 1.0, 2.0, 3.0, 4.0, 5.0}) v.push_back(sgn * x);
  return v;
}

TEST(Transport, OxideCapacitance) {
  TftDevice dev;
  dev.t_ox = 100e-9;
  dev.oxide.eps_r = 3.9;
  EXPECT_NEAR(oxide_capacitance(dev), 3.9 * 8.854e-12 / 100e-9, 1e-7);
}

TEST(Transport, SheetChargeIncreasesWithGateBias) {
  const auto dev = ntype_device();
  const double q1 = sheet_charge(dev, 1.0, 0.0);
  const double q3 = sheet_charge(dev, 3.0, 0.0);
  const double q5 = sheet_charge(dev, 5.0, 0.0);
  EXPECT_GT(q3, q1);
  EXPECT_GT(q5, q3);
}

TEST(Transport, SheetChargeApproachesCoxLaw) {
  // Deep in accumulation, dQ/dVg ~ Cox.
  const auto dev = ntype_device();
  const double cox = oxide_capacitance(dev);
  const double q4 = sheet_charge(dev, 4.0, 0.0);
  const double q5 = sheet_charge(dev, 5.0, 0.0);
  EXPECT_NEAR((q5 - q4) / cox, 1.0, 0.25);
}

TEST(Transport, SheetChargeDecreasesWithChannelPotential) {
  const auto dev = ntype_device();
  EXPECT_GT(sheet_charge(dev, 3.0, 0.0), sheet_charge(dev, 3.0, 1.0));
  EXPECT_GT(sheet_charge(dev, 3.0, 1.0), sheet_charge(dev, 3.0, 2.5));
}

TEST(Transport, TransferCurveMonotonicAndSpansDecades) {
  const auto dev = ntype_device();
  const auto curve = transfer_curve(dev, 2.0, {-2, -1, 0, 1, 2, 3, 4, 5});
  for (std::size_t i = 1; i < curve.size(); ++i)
    EXPECT_GE(curve[i].id, curve[i - 1].id * 0.999);
  EXPECT_GT(curve.back().id / std::max(curve.front().id, 1e-30), 1e3);
}

TEST(Transport, OutputCurveSaturates) {
  const auto dev = ntype_device();
  const auto curve = output_curve(dev, 4.0, {0.5, 1, 2, 4, 6, 8});
  // Monotone nondecreasing.
  for (std::size_t i = 1; i < curve.size(); ++i)
    EXPECT_GE(curve[i].id, curve[i - 1].id * 0.999);
  // Saturation: growth from 6 V -> 8 V much smaller than from 0.5 V -> 2 V.
  const double early_slope = (curve[2].id - curve[0].id) / 1.5;
  const double late_slope = (curve[5].id - curve[4].id) / 2.0;
  EXPECT_LT(late_slope, 0.25 * early_slope);
}

TEST(Transport, OffCurrentFloorsAtSrhLeakage) {
  const auto dev = ntype_device();
  const double vd = 2.0;
  const double ioff = drain_current(dev, Bias{-5.0, vd, 0.0});
  EXPECT_GE(ioff, srh_leakage(dev, vd));
  EXPECT_LT(ioff, 100.0 * (srh_leakage(dev, vd) + 1e-12 * vd));
}

TEST(Transport, CurrentScalesWithWidthOverLength) {
  auto dev = ntype_device();
  const Bias on{4.0, 2.0, 0.0};
  const double i1 = drain_current(dev, on);
  dev.width *= 2.0;
  const double i2 = drain_current(dev, on);
  EXPECT_NEAR(i2 / i1, 2.0, 0.05);
}

TEST(Transport, ZeroVdsGivesZeroCurrent) {
  const auto dev = ntype_device();
  EXPECT_DOUBLE_EQ(drain_current(dev, Bias{3.0, 0.0, 0.0}), 0.0);
}

TEST(Transport, PTypeConductsUnderNegativeBias) {
  TftDevice dev = ntype_device();
  dev.semi = cnt_params();
  const double on = drain_current(dev, Bias{-5.0, -2.0, 0.0});
  const double off = drain_current(dev, Bias{2.0, -2.0, 0.0});
  EXPECT_GT(on, 100.0 * off);
}

// The warm-started slice chain converges to the same currents as cold
// per-slice solves, on and below threshold, for both carrier types.
TEST(Transport, WarmStartedCurrentMatchesColdSlices) {
  for (const auto& [dev, sgn] : {std::pair{ntype_device(), 1.0},
                                 std::pair{ptype_device(), -1.0}}) {
    for (double vg : {4.0, -0.5}) {
      const Bias b{sgn * vg, sgn * 2.0, 0.0};
      const auto r = drain_current_ex(dev, b);
      ASSERT_TRUE(r.valid);
      const double ref = cold_reference_current(dev, b);
      EXPECT_NEAR(r.id, ref, 1e-12 * ref) << "sgn " << sgn << " vg " << b.vg;
    }
  }
}

// Cold-starting all 33 slices takes ~900 Newton iterations at this bias;
// the warm-started chain needs a fraction of that.
TEST(Transport, WarmStartBoundsSliceIterations) {
  const auto r = drain_current_ex(ntype_device(), Bias{4.0, 2.0, 0.0});
  ASSERT_TRUE(r.valid);
  EXPECT_EQ(r.stats.direct_success, kIntegrationSteps + 1);
  EXPECT_LE(r.status.iterations, 300u);
}

// Carrying slice 0 across bias points leaves every curve point equal to a
// pointwise solve at the same bias.
TEST(Transport, CurvesMatchPointwiseSolves) {
  for (const auto& [dev, sgn] : {std::pair{ntype_device(), 1.0},
                                 std::pair{ptype_device(), -1.0}}) {
    for (const auto& p : transfer_curve(dev, sgn * 2.0, transfer_vgs(sgn))) {
      const auto r = drain_current_ex(dev, Bias{p.vg, p.vd, 0.0});
      EXPECT_EQ(p.valid, r.valid);
      EXPECT_NEAR(p.id, r.id, 1e-12 * r.id) << "transfer vg " << p.vg;
    }
    for (const auto& p : output_curve(dev, sgn * 5.0, output_vds(sgn))) {
      const auto r = drain_current_ex(dev, Bias{p.vg, p.vd, 0.0});
      EXPECT_EQ(p.valid, r.valid);
      EXPECT_NEAR(p.id, r.id, 1e-12 * r.id) << "output vd " << p.vd;
    }
  }
}

}  // namespace
}  // namespace stco::tcad
