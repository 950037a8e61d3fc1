// STCO_CHECKS contract-layer tests: macro semantics, NaN poisoning, the FP
// environment guard, and the death paths (injected non-finite Jacobian,
// out-of-bounds tensor index, canonical-key validation). Death tests run
// only when the tree was configured with -DSTCO_CHECKS=ON; with checks off
// the same binary verifies the no-op semantics instead.

#include <gtest/gtest.h>

#include <cfenv>
#include <cmath>
#include <limits>
#include <vector>

#include "src/numeric/contract.hpp"
#include "src/numeric/fpguard.hpp"
#include "src/numeric/sparse.hpp"
#include "src/numeric/workspace.hpp"
#include "src/obs/obs.hpp"
#include "src/tensor/tensor.hpp"

namespace {

using stco::numeric::FpGuard;
using stco::numeric::NewtonWorkspace;
using stco::numeric::TripletBuilder;
namespace contract = stco::numeric::contract;

constexpr bool kOn = contract::kChecksEnabled;

TEST(Contract, RequirePassesOnTrueCondition) {
  STCO_REQUIRE(1 + 1 == 2, "arithmetic holds");
  STCO_ENSURE(true, "trivially");
  SUCCEED();
}

TEST(Contract, MacrosDoNotEvaluateConditionWhenDisabled) {
  if (kOn) GTEST_SKIP() << "condition is (and must be) evaluated with checks on";
  int calls = 0;
  auto costly = [&]() {
    ++calls;
    return true;
  };
  STCO_REQUIRE(costly(), "must not run with STCO_CHECKS=OFF");
  EXPECT_EQ(calls, 0);
}

TEST(Contract, PoisonFillsQuietNanOnlyWhenEnabled) {
  std::vector<double> v(8, 1.25);
  contract::poison(v);
  for (const double x : v) {
    if (kOn)
      EXPECT_TRUE(std::isnan(x));
    else
      EXPECT_EQ(x, 1.25);
  }
}

TEST(Contract, AllFiniteDetectsNanAndInf) {
  std::vector<double> good = {0.0, -1.5, 1e300};
  EXPECT_TRUE(contract::all_finite(good));
  std::vector<double> with_nan = {0.0, std::nan("")};
  EXPECT_FALSE(contract::all_finite(with_nan));
  std::vector<double> with_inf = {std::numeric_limits<double>::infinity()};
  EXPECT_FALSE(contract::all_finite(with_inf));
  EXPECT_TRUE(contract::all_finite(nullptr, 0));
}

TEST(ContractDeath, RequireFailureAbortsWithLocation) {
  if (!kOn) GTEST_SKIP() << "STCO_CHECKS=OFF: macros compile to nothing";
  EXPECT_DEATH({ STCO_REQUIRE(false, "seeded failure"); },
               "STCO_REQUIRE.*seeded failure");
}

TEST(ContractDeath, NewtonAssembleRejectsNonFiniteJacobianEntry) {
  if (!kOn) GTEST_SKIP() << "STCO_CHECKS=OFF: assemble does not validate";
  EXPECT_DEATH(
      {
        TripletBuilder b(2, 2);
        b.add(0, 0, 1.0);
        b.add(1, 1, std::numeric_limits<double>::infinity());
        NewtonWorkspace ws;
        ws.assemble(b);
      },
      "non-finite Jacobian");
}

TEST(ContractDeath, TensorIndexOutOfBoundsAborts) {
  if (!kOn) GTEST_SKIP() << "STCO_CHECKS=OFF: unchecked indexing";
  EXPECT_DEATH(
      {
        auto t = stco::tensor::Tensor::zeros(2, 3);
        (void)t(2, 0);  // row == rows: one past the end
      },
      "Tensor index out of bounds");
}

TEST(FpEnv, GuardRecordPolicySurvivesDivByZero) {
  FpGuard guard("test.fpenv.record", FpGuard::Policy::kRecord);
  volatile double zero = 0.0;
  volatile double r = 1.0 / zero;  // raises FE_DIVBYZERO
  EXPECT_TRUE(std::isinf(r));
  const int raised = guard.sweep();
  if (kOn)
    EXPECT_NE(raised & FE_DIVBYZERO, 0);
  else
    EXPECT_EQ(raised, 0);
  // After the sweep the flag is cleared; a second sweep sees nothing.
  EXPECT_EQ(guard.sweep(), 0);
}

TEST(FpEnv, GuardRestoresEntryFlagsForEnclosingScope) {
  if (!kOn) GTEST_SKIP() << "STCO_CHECKS=OFF: guard is a no-op";
  std::feclearexcept(FE_ALL_EXCEPT);
  volatile double zero = 0.0;
  volatile double r = 1.0 / zero;
  EXPECT_TRUE(std::isinf(r));
  {
    FpGuard inner("test.fpenv.nested", FpGuard::Policy::kRecord);
    // The inner guard cleared the flags for its own region...
    EXPECT_EQ(std::fetestexcept(FE_DIVBYZERO), 0);
  }
  // ...and re-raised the entry flags on exit for an enclosing observer.
  EXPECT_NE(std::fetestexcept(FE_DIVBYZERO), 0);
  std::feclearexcept(FE_ALL_EXCEPT);
}

TEST(FpEnvDeath, AbortPolicyDiesOnInvalidOperation) {
  if (!kOn) GTEST_SKIP() << "STCO_CHECKS=OFF: guard is a no-op";
  EXPECT_DEATH(
      {
        FpGuard guard("test.fpenv.abort", FpGuard::Policy::kAbort);
        volatile double zero = 0.0;
        volatile double nan = zero / zero;  // raises FE_INVALID
        (void)nan;
        guard.sweep();
      },
      "fp_environment_clean");
}

TEST(ContractDeath, UnregisteredMetricKeyAborts) {
  if (!kOn) GTEST_SKIP() << "STCO_CHECKS=OFF: registry accepts any key";
  EXPECT_DEATH({ (void)stco::obs::counter("rogue.metric"); },
               "not in the canonical registry");
}

TEST(ContractDeath, UnregisteredSpanNameAborts) {
  if (!kOn) GTEST_SKIP() << "STCO_CHECKS=OFF: any span name accepted";
  // Span names are validated on the recording path, which only runs while
  // tracing is live — so arm tracing inside the death statement (the child
  // process inherits the parent's tracing-off state).
  EXPECT_DEATH(
      {
        stco::obs::start_tracing();
        stco::obs::Span s("rogue.span");
      },
      "not in the canonical registry");
}

TEST(Contract, ViolationCountStartsAtZeroInHealthyProcess) {
  // Any recorded violation would have aborted the process, so the counter
  // can only legitimately read zero here.
  EXPECT_EQ(contract::violation_count(), 0u);
}

}  // namespace
