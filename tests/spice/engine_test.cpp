#include "src/spice/engine.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "src/compact/technology.hpp"
#include "src/obs/metrics.hpp"
#include "src/spice/measure.hpp"

namespace stco::spice {
namespace {

TEST(Waveform, DcPwlPulse) {
  EXPECT_DOUBLE_EQ(Waveform::dc(2.5).at(1e-3), 2.5);
  const auto w = Waveform::pwl({{0, 0}, {1, 2}, {3, 2}});
  EXPECT_DOUBLE_EQ(w.at(0.5), 1.0);
  EXPECT_DOUBLE_EQ(w.at(2.0), 2.0);
  EXPECT_DOUBLE_EQ(w.at(99.0), 2.0);
  const auto p = Waveform::pulse(0, 5, 1, 1, 2, 1);
  EXPECT_DOUBLE_EQ(p.at(0.5), 0.0);
  EXPECT_DOUBLE_EQ(p.at(1.5), 2.5);
  EXPECT_DOUBLE_EQ(p.at(3.0), 5.0);
  EXPECT_DOUBLE_EQ(p.at(10.0), 0.0);
  EXPECT_THROW(Waveform::pwl({{1, 0}, {0, 1}}), std::invalid_argument);
}

TEST(Netlist, NodeNamingAndGroundAliases) {
  Netlist nl;
  EXPECT_EQ(nl.node("0"), kGround);
  EXPECT_EQ(nl.node("gnd"), kGround);
  const NodeId a = nl.node("a");
  EXPECT_EQ(nl.node("a"), a);
  EXPECT_NE(nl.node("b"), a);
  EXPECT_EQ(nl.num_nodes(), 3u);
}

TEST(Netlist, ValidationErrors) {
  Netlist nl;
  const NodeId a = nl.node("a");
  EXPECT_THROW(nl.add_resistor("r", a, 99, 100.0), std::out_of_range);
  EXPECT_THROW(nl.add_resistor("r", a, kGround, -5.0), std::invalid_argument);
  EXPECT_THROW(nl.add_capacitor("c", a, kGround, -1e-12), std::invalid_argument);
}

TEST(DcOp, ResistorDivider) {
  Netlist nl;
  const NodeId in = nl.node("in"), mid = nl.node("mid");
  nl.add_vsource("V1", in, kGround, Waveform::dc(10.0));
  nl.add_resistor("R1", in, mid, 1e3);
  nl.add_resistor("R2", mid, kGround, 3e3);
  const auto dc = dc_operating_point(nl);
  ASSERT_TRUE(dc.converged);
  EXPECT_NEAR(dc.node_voltage[mid], 7.5, 1e-6);
  // Source current: 10 V across 4k -> 2.5 mA drawn; MNA convention gives
  // a negative branch current for a delivering supply.
  EXPECT_NEAR(dc.source_current[0], -2.5e-3, 1e-8);
}

compact::TechnologyPoint tech() { return compact::cnt_tech(); }

/// Resistively-loaded N-type common-source stage.
TEST(DcOp, TftPullsDownWithGateDrive) {
  const auto tp = tech();
  Netlist nl;
  const NodeId vdd = nl.node("vdd"), out = nl.node("out"), g = nl.node("g");
  nl.add_vsource("VDD", vdd, kGround, Waveform::dc(tp.vdd));
  nl.add_vsource("VG", g, kGround, Waveform::dc(0.0));
  nl.add_resistor("RL", vdd, out, 2e6);
  nl.add_tft("MN", out, g, kGround, compact::make_nfet(tp, 20e-6, 2e-6));
  // Gate off: out ~ vdd.
  auto dc_off = dc_operating_point(nl);
  ASSERT_TRUE(dc_off.converged);
  EXPECT_NEAR(dc_off.node_voltage[out], tp.vdd, 0.1);

  // Gate on: need a new netlist with the on-voltage.
  Netlist nl2;
  const NodeId vdd2 = nl2.node("vdd"), out2 = nl2.node("out"), g2 = nl2.node("g");
  nl2.add_vsource("VDD", vdd2, kGround, Waveform::dc(tp.vdd));
  nl2.add_vsource("VG", g2, kGround, Waveform::dc(tp.vdd));
  nl2.add_resistor("RL", vdd2, out2, 2e6);
  nl2.add_tft("MN", out2, g2, kGround, compact::make_nfet(tp, 20e-6, 2e-6));
  auto dc_on = dc_operating_point(nl2);
  ASSERT_TRUE(dc_on.converged);
  EXPECT_LT(dc_on.node_voltage[out2], 0.5 * tp.vdd);
}

/// CMOS-style inverter from complementary TFTs.
Netlist make_inverter(double vin, const compact::TechnologyPoint& tp) {
  Netlist nl;
  const NodeId vdd = nl.node("vdd"), in = nl.node("in"), out = nl.node("out");
  nl.add_vsource("VDD", vdd, kGround, Waveform::dc(tp.vdd));
  nl.add_vsource("VIN", in, kGround, Waveform::dc(vin));
  const auto sz = compact::default_sizing();
  nl.add_tft("MP", out, in, vdd, compact::make_pfet(tp, sz.pfet_width, sz.length));
  nl.add_tft("MN", out, in, kGround, compact::make_nfet(tp, sz.nfet_width, sz.length));
  return nl;
}

TEST(DcOp, InverterTransferCurve) {
  const auto tp = tech();
  const auto lo = dc_operating_point(make_inverter(0.0, tp));
  const auto hi = dc_operating_point(make_inverter(tp.vdd, tp));
  ASSERT_TRUE(lo.converged);
  ASSERT_TRUE(hi.converged);
  const NodeId out = 3;  // nodes: gnd=0, vdd=1, in=2, out=3
  EXPECT_GT(lo.node_voltage[out], 0.9 * tp.vdd);
  EXPECT_LT(hi.node_voltage[out], 0.1 * tp.vdd);
  // Monotone falling transfer curve.
  double prev = 1e9;
  for (double vin = 0.0; vin <= tp.vdd + 1e-9; vin += tp.vdd / 8) {
    const auto dc = dc_operating_point(make_inverter(vin, tp));
    EXPECT_LE(dc.node_voltage[out], prev + 1e-6);
    prev = dc.node_voltage[out];
  }
}

TEST(Transient, RcChargingMatchesAnalytic) {
  // R = 1k, C = 1n, step 0 -> 1 V: v(t) = 1 - exp(-t/RC).
  Netlist nl;
  const NodeId in = nl.node("in"), out = nl.node("out");
  nl.add_vsource("V1", in, kGround, Waveform::pwl({{0, 0}, {1e-12, 1.0}}));
  nl.add_resistor("R", in, out, 1e3);
  nl.add_capacitor("C", out, kGround, 1e-9);
  const double tau = 1e-6;
  const auto tr = transient(nl, 10 * tau, tau / 200);
  ASSERT_TRUE(tr.converged);
  for (std::size_t k = 0; k < tr.samples(); k += 100) {
    const double t = tr.time[k];
    const double expected = 1.0 - std::exp(-std::max(0.0, t - 1e-12) / tau);
    EXPECT_NEAR(tr.v[k][out], expected, 0.01);
  }
  EXPECT_NEAR(final_voltage(tr, out).value(), 1.0, 1e-3);
}

TEST(Transient, CapacitorChargeConservation) {
  // Total charge delivered by the source equals C * dV on the cap.
  Netlist nl;
  const NodeId in = nl.node("in"), out = nl.node("out");
  nl.add_vsource("V1", in, kGround, Waveform::pwl({{0, 0}, {1e-9, 2.0}}));
  nl.add_resistor("R", in, out, 1e4);
  nl.add_capacitor("C", out, kGround, 2e-12);
  const auto tr = transient(nl, 1e-6, 2e-9);
  const double q = integrate_source_charge(tr, 0, 0.0, 1e-6);
  // Source delivers -q in MNA convention.
  EXPECT_NEAR(-q, 2e-12 * 2.0, 0.05 * 4e-12);
}

TEST(Transient, InverterSwitchesAndDissipates) {
  const auto tp = tech();
  Netlist nl;
  const NodeId vdd = nl.node("vdd"), in = nl.node("in"), out = nl.node("out");
  nl.add_vsource("VDD", vdd, kGround, Waveform::dc(tp.vdd));
  nl.add_vsource("VIN", in, kGround, Waveform::ramp(0.0, tp.vdd, 1e-6, 0.2e-6));
  const auto sz = compact::default_sizing();
  nl.add_tft("MP", out, in, vdd, compact::make_pfet(tp, sz.pfet_width, sz.length));
  nl.add_tft("MN", out, in, kGround, compact::make_nfet(tp, sz.nfet_width, sz.length));
  nl.add_capacitor("CL", out, kGround, 50e-15);
  const auto tr = transient(nl, 6e-6, 10e-9);
  ASSERT_TRUE(tr.converged);
  // Output starts high, ends low.
  EXPECT_GT(tr.v.front()[out], 0.9 * tp.vdd);
  EXPECT_LT(final_voltage(tr, out).value(), 0.1 * tp.vdd);
  // The falling output crosses 50%.
  const auto t50 = cross_time(tr, out, 0.5 * tp.vdd, EdgeDir::kFalling);
  ASSERT_TRUE(t50.has_value());
  EXPECT_GT(*t50, 1e-6);
  // Supply delivered positive energy during the transition.
  const double e = supply_energy(tr, 0, tp.vdd, 0.5e-6, 6e-6).value();
  EXPECT_GT(e, 0.0);
}

TEST(Measure, TransitionTimeOnRamp) {
  Netlist nl;
  const NodeId in = nl.node("in");
  nl.add_vsource("V1", in, kGround, Waveform::ramp(0.0, 1.0, 1e-6, 1e-6));
  nl.add_resistor("R", in, kGround, 1e6);
  const auto tr = transient(nl, 4e-6, 1e-8);
  const auto tt = transition_time(tr, in, 0.0, 1.0, EdgeDir::kRising);
  ASSERT_TRUE(tt.has_value());
  EXPECT_NEAR(*tt, 0.8e-6, 0.05e-6);  // 10% -> 90% of a 1 us ramp
}


TEST(DcOp, CurrentSourceIntoResistor) {
  // 1 mA into a 1 kOhm to ground: node rises to 1 V.
  Netlist nl;
  const NodeId n = nl.node("n");
  nl.add_isource("I1", kGround, n, Waveform::dc(1e-3));
  nl.add_resistor("R", n, kGround, 1e3);
  const auto dc = dc_operating_point(nl);
  ASSERT_TRUE(dc.converged);
  EXPECT_NEAR(dc.node_voltage[n], 1.0, 1e-6);
  EXPECT_THROW(nl.add_isource("I2", 99, n, Waveform::dc(0.0)), std::out_of_range);
}

TEST(Transient, CurrentSourceChargesCapLinearly) {
  // Constant 1 uA into 1 nF: dV/dt = 1 V/ms.
  Netlist nl;
  const NodeId n = nl.node("n");
  nl.add_isource("I1", kGround, n, Waveform::dc(1e-6));
  nl.add_capacitor("C", n, kGround, 1e-9);
  nl.add_resistor("Rleak", n, kGround, 1e12);
  // The DC point of a current source into a capacitor is ill-defined;
  // start from initial conditions instead (SPICE "UIC").
  EngineOptions opts;
  opts.uic = true;
  const auto tr = transient(nl, 1e-3, 1e-5, opts);
  ASSERT_TRUE(tr.converged);
  EXPECT_NEAR(final_voltage(tr, n).value(), 1.0, 0.01);
  // Linearity: half time, half voltage.
  const auto mid = cross_time(tr, n, 0.5, EdgeDir::kRising);
  ASSERT_TRUE(mid.has_value());
  EXPECT_NEAR(*mid, 0.5e-3, 0.01e-3);
}

TEST(LuCache, LinearCircuitReusesFactorization) {
  // TFT-free RC network: after the DC point settles the step size, every
  // fixed-dt transient Newton solve reuses one dense LU factorization.
  Netlist nl;
  const NodeId in = nl.node("in"), mid = nl.node("mid");
  nl.add_vsource("V1", in, kGround, Waveform::pulse(0, 1.0, 1e-6, 1e-7, 1e-7, 5e-6));
  nl.add_resistor("R1", in, mid, 1e3);
  nl.add_capacitor("C1", mid, kGround, 1e-9);

  auto& factors = obs::counter("spice.lu.factors");
  auto& reuses = obs::counter("spice.lu.reuses");
  const auto f0 = factors.value();
  const auto r0 = reuses.value();
  const auto res = transient(nl, 10e-6, 1e-7);
  ASSERT_TRUE(res.status.ok());
  const auto new_factors = factors.value() - f0;
  const auto new_reuses = reuses.value() - r0;
  // ~100 timesteps: far more solves reuse the factorization than build one
  // (fresh factors only at the DC point and on dt/integration changes).
  EXPECT_GT(new_reuses, new_factors * 4);
}

TEST(LuCache, ReusedFactorizationMatchesAnalyticRc) {
  // The cached-LU path must not change the physics: RC discharge curve.
  // DC point charges the cap to 1 V; the source then collapses to 0 almost
  // immediately and v_mid decays with tau = RC = 1 us.
  Netlist nl;
  const NodeId in = nl.node("in"), mid = nl.node("mid");
  nl.add_vsource("V1", in, kGround, Waveform::pwl({{0.0, 1.0}, {1e-9, 0.0}}));
  nl.add_resistor("R1", in, mid, 1e3);
  nl.add_capacitor("C1", mid, kGround, 1e-9);  // tau = 1 us
  const auto res = transient(nl, 3e-6, 1e-8);
  ASSERT_TRUE(res.status.ok());
  for (std::size_t s = 0; s < res.time.size(); ++s) {
    const double t = res.time[s];
    if (t < 1e-8) continue;  // source still ramping down
    const double expect = std::exp(-(t - 1e-9) / 1e-6);
    EXPECT_NEAR(res.v[s][mid], expect, 5e-3);
  }
}

}  // namespace
}  // namespace stco::spice
