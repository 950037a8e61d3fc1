#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "src/spice/engine.hpp"
#include "src/spice/measure.hpp"

namespace stco::spice {
namespace {

bool all_finite(const numeric::Vec& v) {
  for (double x : v)
    if (!std::isfinite(x)) return false;
  return true;
}

// A healthy circuit records one ladder entry that succeeded directly.
TEST(Robustness, CleanSolveCountsDirectSuccess) {
  Netlist nl;
  const NodeId in = nl.node("in"), mid = nl.node("mid");
  nl.add_vsource("V1", in, kGround, Waveform::dc(10.0));
  nl.add_resistor("R1", in, mid, 1e3);
  nl.add_resistor("R2", mid, kGround, 3e3);
  const auto dc = dc_operating_point(nl);
  ASSERT_TRUE(dc.converged);
  EXPECT_EQ(dc.status.reason, numeric::SolveReason::kOk);
  EXPECT_EQ(dc.stats.attempts, 1u);
  EXPECT_EQ(dc.stats.direct_success, 1u);
  EXPECT_EQ(dc.stats.total_retries(), 0u);
  EXPECT_TRUE(dc.stats.clean());
}

// A node reachable only through a capacitor floats in DC. With the gmin
// floor disabled the direct Newton sees a singular matrix; the gmin ladder
// restores rank at an elevated conductance and ramps back down to the floor.
TEST(Robustness, GminSteppingRecoversFloatingNode) {
  Netlist nl;
  const NodeId a = nl.node("a"), b = nl.node("b");
  nl.add_vsource("V1", a, kGround, Waveform::dc(5.0));
  nl.add_resistor("R1", a, kGround, 1e4);
  nl.add_capacitor("C1", a, b, 1e-12);  // b floats in DC
  EngineOptions opts;
  opts.gmin = 0.0;
  const auto dc = dc_operating_point(nl, 0.0, opts);
  ASSERT_TRUE(dc.converged);
  EXPECT_EQ(dc.status.reason, numeric::SolveReason::kOk);
  EXPECT_EQ(dc.stats.attempts, 1u);
  EXPECT_EQ(dc.stats.direct_success, 0u);
  EXPECT_EQ(dc.stats.recovered, 1u);
  EXPECT_GE(dc.stats.gmin_retries, 1u);
  EXPECT_GT(dc.status.retries, 0u);
  EXPECT_TRUE(all_finite(dc.node_voltage));
  EXPECT_NEAR(dc.node_voltage[a], 5.0, 1e-6);
}

Netlist conflicting_sources() {
  // Two ideal sources fighting across the same node: structurally singular
  // (identical branch rows), and neither gmin nor source stepping can
  // restore rank.
  Netlist nl;
  const NodeId a = nl.node("a");
  nl.add_vsource("V1", a, kGround, Waveform::dc(1.0));
  nl.add_vsource("V2", a, kGround, Waveform::dc(2.0));
  nl.add_resistor("R1", a, kGround, 1e3);
  return nl;
}

// An unrecoverable system must fail with a structured reason after the
// full ladder — and never leak NaNs into the result vectors.
TEST(Robustness, ConflictingSourcesFailCleanly) {
  const auto dc = dc_operating_point(conflicting_sources());
  EXPECT_FALSE(dc.converged);
  EXPECT_EQ(dc.status.reason, numeric::SolveReason::kSingularJacobian);
  EXPECT_EQ(dc.stats.failures, 1u);
  EXPECT_EQ(dc.stats.recovered, 0u);
  EXPECT_GT(dc.stats.total_retries(), 0u);
  EXPECT_TRUE(all_finite(dc.node_voltage));
  EXPECT_TRUE(all_finite(dc.source_current));
}

// A NaN source voltage makes the divider's updates NaN. The solve must fail
// with kNanResidual, not report convergence with v(mid) = NaN.
TEST(Robustness, NanSourceFailsWithNanResidual) {
  Netlist nl;
  const NodeId in = nl.node("in"), mid = nl.node("mid");
  nl.add_vsource("V1", in, kGround,
                 Waveform::dc(std::numeric_limits<double>::quiet_NaN()));
  nl.add_resistor("R1", in, mid, 1e3);
  nl.add_resistor("R2", mid, kGround, 3e3);
  const auto dc = dc_operating_point(nl);
  EXPECT_FALSE(dc.converged);
  EXPECT_EQ(dc.status.reason, numeric::SolveReason::kNanResidual);
  EXPECT_EQ(dc.stats.failures, 1u);
  EXPECT_EQ(dc.stats.recovered, 0u);
  EXPECT_EQ(dc.stats.direct_success, 0u);
}

// A transient whose t = 0 operating point is infeasible aborts before
// integrating anything, with the failure time pinned at zero.
TEST(Robustness, TransientDcFailureRecordsTimeZero) {
  auto nl = conflicting_sources();
  nl.add_capacitor("CL", nl.node("a"), kGround, 1e-12);
  const auto tr = transient(nl, 1e-6, 1e-7);
  EXPECT_FALSE(tr.converged);
  EXPECT_FALSE(tr.status.ok());
  EXPECT_EQ(tr.failure_time, 0.0);
  ASSERT_EQ(tr.samples(), 1u);
  EXPECT_TRUE(all_finite(tr.v[0]));
}

TranResult budget_limited_transient() {
  // RC low-pass driven by an abrupt step. The shared iteration budget is
  // sized to survive DC plus a few flat steps but not the edge.
  Netlist nl;
  const NodeId in = nl.node("in"), out = nl.node("out");
  nl.add_vsource("V1", in, kGround,
                 Waveform::pulse(0.0, 5.0, 1e-6, 1e-7, 2e-6, 1e-7));
  nl.add_resistor("R1", in, out, 1e3);
  nl.add_capacitor("C1", out, kGround, 1e-9);
  EngineOptions opts;
  opts.retry.iteration_budget = 8;
  return transient(nl, 10e-6, 0.5e-6, opts);
}

// Budget exhaustion mid-run yields a clean structured abort: the status
// names the budget, the failure time marks where integration stopped, and
// every sample that was emitted is finite.
TEST(Robustness, TransientBudgetExhaustionAbortsCleanly) {
  const auto tr = budget_limited_transient();
  EXPECT_FALSE(tr.converged);
  EXPECT_EQ(tr.status.reason, numeric::SolveReason::kBudgetExceeded);
  EXPECT_GE(tr.stats.budget_exhausted, 1u);
  EXPECT_GT(tr.failure_time, 0.0);
  EXPECT_LT(tr.failure_time, 10e-6);
  ASSERT_GT(tr.samples(), 0u);
  EXPECT_LT(tr.time.back(), tr.failure_time);
  for (const auto& v : tr.v) EXPECT_TRUE(all_finite(v));
  for (const auto& i : tr.i_src) EXPECT_TRUE(all_finite(i));
}

// Measurement helpers refuse to read a truncated record: a crossing or
// "final" voltage taken from an aborted run would be silently wrong.
TEST(Robustness, MeasureHelpersRejectFailedTransient) {
  const auto tr = budget_limited_transient();
  ASSERT_FALSE(tr.converged);
  const NodeId out = 2;  // gnd=0, in=1, out=2
  EXPECT_FALSE(cross_time(tr, out, 2.5, EdgeDir::kRising).has_value());
  EXPECT_FALSE(final_voltage(tr, out).has_value());
  EXPECT_FALSE(supply_energy(tr, 0, 5.0, 0.0, 10e-6).has_value());
}

}  // namespace
}  // namespace stco::spice
