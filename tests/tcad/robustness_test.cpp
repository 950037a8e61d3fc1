#include <gtest/gtest.h>

#include <cmath>

#include "src/tcad/drift_diffusion.hpp"
#include "src/tcad/poisson.hpp"
#include "src/tcad/transport.hpp"

namespace stco::tcad {
namespace {

TftDevice small_device() {
  TftDevice dev;
  dev.semi = igzo_params();  // n-type, well behaved
  dev.length = 2e-6;
  dev.contact_len = 0.4e-6;
  dev.t_ox = 100e-9;
  dev.t_ch = 40e-9;
  return dev;
}

bool all_finite(const numeric::Vec& v) {
  for (double x : v)
    if (!std::isfinite(x)) return false;
  return true;
}

// A well-behaved solve records one ladder entry that succeeded directly.
TEST(Robustness, PoissonCleanSolveCountsDirectSuccess) {
  const auto dev = small_device();
  const auto sol = solve_poisson(dev, Bias{0.0, 0.0, 0.0}, 12, 4, 3);
  ASSERT_TRUE(sol.converged);
  EXPECT_EQ(sol.status.reason, numeric::SolveReason::kOk);
  EXPECT_EQ(sol.stats.attempts, 1u);
  EXPECT_EQ(sol.stats.direct_success, 1u);
  EXPECT_EQ(sol.stats.continuation_retries, 0u);
  EXPECT_TRUE(sol.stats.clean());
}

// With the Newton iteration cap squeezed below what an abrupt full-bias
// solve needs, the direct attempt fails and the bias-continuation ladder
// must recover by walking the contacts up in warm-started fractions.
TEST(Robustness, PoissonContinuationRecoversSteepBias) {
  const auto dev = small_device();
  const Bias steep{3.0, 3.0, 0.0};
  const auto mesh = build_mesh(dev, steep, 12, 4, 3);
  PoissonOptions opts;
  // A cold full-bias solve needs ~24 Newton iterations on this mesh while
  // warm-started fractional stages need at most ~10, so 12 fails the direct
  // attempt and only the continuation ladder can reach convergence.
  opts.max_newton = 12;
  const auto sol = solve_poisson(dev, steep, mesh, opts);
  ASSERT_TRUE(sol.converged);
  EXPECT_EQ(sol.status.reason, numeric::SolveReason::kOk);
  EXPECT_EQ(sol.stats.direct_success, 0u);
  EXPECT_EQ(sol.stats.recovered, 1u);
  EXPECT_GE(sol.stats.continuation_retries, 2u);
  EXPECT_GT(sol.status.retries, 0u);
  EXPECT_TRUE(all_finite(sol.potential));
  // The final continuation stage solved the *target* boundary conditions.
  for (std::size_t i = 0; i < mesh.num_nodes(); ++i) {
    if (mesh.node(i).dirichlet) {
      EXPECT_NEAR(sol.potential[i], mesh.node(i).dirichlet_value, 1e-6);
    }
  }
}

// When the bias step halves below 2^-max_subdivisions the walk gives up and
// returns the last converged stage, carrying the failed stage's reason.
// Here the f = 1/2 stage fails, f = 1/4 converges, and f = 3/4 and then
// f = 1/2 fail again, so the step underflows with the 1/4 stage in hand.
TEST(Robustness, PoissonStepUnderflowReturnsLastConvergedStage) {
  const auto dev = small_device();
  const Bias steep{3.0, 3.0, 0.0};
  const auto mesh = build_mesh(dev, steep, 12, 4, 3);
  PoissonOptions opts;
  opts.max_newton = 10;
  opts.continuation.max_subdivisions = 2;
  const auto sol = solve_poisson(dev, steep, mesh, opts);
  EXPECT_FALSE(sol.converged);
  EXPECT_EQ(sol.status.reason, numeric::SolveReason::kMaxIterations);
  EXPECT_EQ(sol.stats.continuation_retries, 4u);
  EXPECT_EQ(sol.stats.failures, 1u);
  EXPECT_EQ(sol.stats.recovered, 0u);
  EXPECT_EQ(sol.stats.budget_exhausted, 0u);
  EXPECT_TRUE(all_finite(sol.potential));
  EXPECT_TRUE(all_finite(sol.electron_density));
  // The fields are the converged quarter-bias stage: its own Newton solve
  // finished early and its contacts sit on the quarter-bias values.
  EXPECT_LT(sol.newton_iterations, opts.max_newton);
  const auto quarter = rebias_mesh(mesh, dev, bias_fraction(steep, 0.25));
  for (std::size_t i = 0; i < quarter.num_nodes(); ++i) {
    if (quarter.node(i).dirichlet) {
      EXPECT_NEAR(sol.potential[i], quarter.node(i).dirichlet_value, 1e-6);
    }
  }
}

// Continuation respects the shared iteration budget: exhausting it yields
// a clean structured failure (no NaNs, reason names the budget) instead of
// ramping forever.
TEST(Robustness, PoissonBudgetExhaustionFailsCleanly) {
  const auto dev = small_device();
  const Bias steep{6.0, 6.0, 0.0};
  const auto mesh = build_mesh(dev, steep, 12, 4, 3);
  PoissonOptions opts;
  opts.max_newton = 5;
  opts.continuation.iteration_budget = 8;
  const auto sol = solve_poisson(dev, steep, mesh, opts);
  EXPECT_FALSE(sol.converged);
  EXPECT_EQ(sol.status.reason, numeric::SolveReason::kBudgetExceeded);
  EXPECT_GE(sol.stats.budget_exhausted, 1u);
  EXPECT_GE(sol.stats.failures, 1u);
  EXPECT_EQ(sol.stats.recovered, 0u);
  EXPECT_TRUE(all_finite(sol.potential));
  EXPECT_TRUE(all_finite(sol.electron_density));
}

// Disabling continuation turns the same squeezed solve into a plain
// structured failure — the ladder never fires.
TEST(Robustness, PoissonContinuationCanBeDisabled) {
  const auto dev = small_device();
  const Bias steep{6.0, 6.0, 0.0};
  PoissonOptions opts;
  opts.max_newton = 5;
  opts.continuation.enabled = false;
  const auto sol = solve_poisson(dev, steep, build_mesh(dev, steep, 12, 4, 3), opts);
  EXPECT_FALSE(sol.converged);
  EXPECT_EQ(sol.status.reason, numeric::SolveReason::kMaxIterations);
  EXPECT_EQ(sol.stats.continuation_retries, 0u);
  EXPECT_EQ(sol.stats.failures, 1u);
  EXPECT_TRUE(all_finite(sol.potential));
}

// Transport: a healthy bias point produces a valid structured result that
// agrees with the legacy scalar entry point.
TEST(Robustness, TransportResultMatchesLegacyEntryPoint) {
  const auto dev = small_device();
  const Bias bias{4.0, 2.0, 0.0};
  const auto r = drain_current_ex(dev, bias);
  EXPECT_TRUE(r.valid);
  EXPECT_TRUE(std::isfinite(r.id));
  EXPECT_GT(r.id, 0.0);
  EXPECT_DOUBLE_EQ(drain_current(dev, bias), r.id);
}

// Transport: starving the whole gradual-channel integration of budget
// fails closed — id is zeroed, never a partially-integrated garbage value.
TEST(Robustness, TransportBudgetExhaustionFailsClosed) {
  const auto dev = small_device();
  const Bias bias{4.0, 2.0, 0.0};
  TransportOptions opts;
  opts.continuation.iteration_budget = 1;
  const auto r = drain_current_ex(dev, bias, opts);
  EXPECT_FALSE(r.valid);
  EXPECT_EQ(r.id, 0.0);
  EXPECT_EQ(r.status.reason, numeric::SolveReason::kBudgetExceeded);
  EXPECT_GE(r.stats.budget_exhausted, 1u);
}

// Transport: with the slice Newton cap squeezed, every slice fails its
// direct attempt and both tightened-damping retries, and only the gate-bias
// continuation walk recovers it. The recovered current matches the
// unsqueezed one.
TEST(Robustness, TransportSlicesRecoverThroughContinuation) {
  const auto dev = small_device();
  const Bias bias{5.0, 2.0, 0.0};
  TransportOptions opts;
  opts.max_newton = 8;
  const auto r = drain_current_ex(dev, bias, opts);
  const std::size_t slices = opts.integration_steps + 1;
  ASSERT_TRUE(r.valid);
  EXPECT_EQ(r.status.reason, numeric::SolveReason::kOk);
  EXPECT_EQ(r.stats.attempts, slices);
  EXPECT_EQ(r.stats.direct_success, 0u);
  EXPECT_EQ(r.stats.damping_retries, 2 * slices);
  EXPECT_EQ(r.stats.recovered, slices);
  EXPECT_EQ(r.stats.continuation_retries, 233u);
  EXPECT_EQ(r.stats.failures, 0u);
  EXPECT_EQ(r.stats.fallbacks, 0u);
  const auto ref = drain_current_ex(dev, bias);
  ASSERT_TRUE(ref.valid);
  EXPECT_EQ(ref.stats.direct_success, slices);
  EXPECT_NEAR(r.id, ref.id, 1e-6 * ref.id);
}

// Drift-diffusion: with the Gummel cycle cap squeezed, the direct solve
// fails and the continuation walk recovers it at the target bias.
TEST(Robustness, DriftDiffusionContinuationRecoversSteepBias) {
  const auto dev = small_device();
  const Bias bias{5.0, 1.0, 0.0};
  const auto mesh = build_mesh(dev, bias, 10, 4, 3);
  DriftDiffusionOptions opts;
  opts.max_gummel = 40;
  const auto sol = solve_drift_diffusion(dev, bias, mesh, opts);
  ASSERT_TRUE(sol.converged);
  EXPECT_EQ(sol.status.reason, numeric::SolveReason::kOk);
  // Three ladder entries: the Gummel ladder itself plus the Poisson
  // initializers of its two cold starts (the direct attempt and the first
  // stage), which are the two direct successes.
  EXPECT_EQ(sol.stats.attempts, 3u);
  EXPECT_EQ(sol.stats.direct_success, 2u);
  EXPECT_EQ(sol.stats.recovered, 1u);
  EXPECT_EQ(sol.stats.continuation_retries, 4u);
  EXPECT_EQ(sol.status.retries, 4u);
  EXPECT_EQ(sol.stats.failures, 0u);
  EXPECT_TRUE(all_finite(sol.potential));
  EXPECT_TRUE(std::isfinite(sol.drain_current));
  for (std::size_t i = 0; i < mesh.num_nodes(); ++i) {
    if (mesh.node(i).dirichlet) {
      EXPECT_NEAR(sol.potential[i], mesh.node(i).dirichlet_value, 1e-6);
    }
  }
}

// Drift-diffusion: budget exhaustion surfaces as a structured failure with
// finite fields, and the counters record what the ladder consumed.
TEST(Robustness, DriftDiffusionBudgetExhaustionFailsCleanly) {
  const auto dev = small_device();
  const Bias bias{3.0, 1.0, 0.0};
  const auto mesh = build_mesh(dev, bias, 10, 4, 3);
  DriftDiffusionOptions opts;
  opts.continuation.iteration_budget = 2;
  const auto sol = solve_drift_diffusion(dev, bias, mesh, opts);
  EXPECT_FALSE(sol.converged);
  EXPECT_EQ(sol.status.reason, numeric::SolveReason::kBudgetExceeded);
  EXPECT_GE(sol.stats.budget_exhausted, 1u);
  EXPECT_TRUE(all_finite(sol.potential));
  EXPECT_TRUE(std::isfinite(sol.drain_current));
}

}  // namespace
}  // namespace stco::tcad
