#include "src/numeric/precond.hpp"

#include <gtest/gtest.h>

#include "src/numeric/rng.hpp"
#include "src/numeric/solve.hpp"

namespace stco::numeric {
namespace {

SparseMatrix tridiag(std::size_t n, double lo, double di, double up) {
  TripletBuilder b(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    b.add(i, i, di);
    if (i > 0) b.add(i, i - 1, lo);
    if (i + 1 < n) b.add(i, i + 1, up);
  }
  return SparseMatrix::from_triplets(b);
}

TEST(Jacobi, AppliesInverseDiagonal) {
  TripletBuilder b(2, 2);
  b.add(0, 0, 4.0); b.add(0, 1, 1.0);
  b.add(1, 1, 0.5);
  JacobiPreconditioner jac(SparseMatrix::from_triplets(b));
  Vec z;
  jac.apply({8.0, 3.0}, z);
  EXPECT_NEAR(z[0], 2.0, 1e-15);
  EXPECT_NEAR(z[1], 6.0, 1e-15);
}

TEST(Ilu0, ExactOnTridiagonalPattern) {
  // ILU(0) generates no fill on a tridiagonal pattern, so it IS the exact
  // LU: one apply() solves the system.
  const auto a = tridiag(40, -1.0, 2.5, -1.0);
  Ilu0 ilu;
  ASSERT_TRUE(ilu.factor(a));
  ASSERT_TRUE(ilu.valid());
  Rng rng(5);
  Vec x_true(40);
  for (auto& v : x_true) v = rng.uniform(-2, 2);
  Vec rhs;
  a.apply(x_true, rhs);
  Vec z;
  ilu.apply(rhs, z);
  for (std::size_t i = 0; i < 40; ++i) EXPECT_NEAR(z[i], x_true[i], 1e-10);
}

TEST(Ilu0, FactorFailsWithoutStructuralDiagonal) {
  TripletBuilder b(2, 2);
  b.add(0, 1, 1.0);
  b.add(1, 0, 1.0);
  b.add(1, 1, 1.0);  // row 0 has no diagonal entry
  Ilu0 ilu;
  EXPECT_FALSE(ilu.factor(SparseMatrix::from_triplets(b)));
  EXPECT_FALSE(ilu.valid());
}

TEST(Ilu0, InvalidateDropsFactors) {
  Ilu0 ilu;
  ASSERT_TRUE(ilu.factor(tridiag(5, -1, 3, -1)));
  ilu.invalidate();
  EXPECT_FALSE(ilu.valid());
}

TEST(Ilu0, AcceleratesBicgstabOnBadlyScaledSystem) {
  // 2-D 5-point stencil with wildly varying row scales (mimics the mixed
  // Dirichlet/stencil rows of the TCAD Jacobians). ILU(0) must solve it in
  // fewer iterations than Jacobi and agree with the dense solve.
  const std::size_t nx = 12, n = nx * nx;
  TripletBuilder b(n, n);
  Rng rng(17);
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t r = i / nx, c = i % nx;
    const double s = (r + c) % 7 == 0 ? 1.0 : 1e-8;  // mixed row scales
    b.add(i, i, 4.0 * s);
    if (c > 0) b.add(i, i - 1, -s);
    if (c + 1 < nx) b.add(i, i + 1, -s);
    if (r > 0) b.add(i, i - nx, -s);
    if (r + 1 < nx) b.add(i, i + nx, -s);
  }
  const auto a = SparseMatrix::from_triplets(b);
  Vec x_true(n);
  for (auto& v : x_true) v = rng.uniform(-1, 1);
  Vec rhs;
  a.apply(x_true, rhs);

  Ilu0 ilu;
  ASSERT_TRUE(ilu.factor(a));
  const auto with_ilu = solve_bicgstab(a, rhs, 1e-12, 0, &ilu);
  const auto with_jacobi = solve_bicgstab(a, rhs, 1e-12, 0, nullptr);
  ASSERT_TRUE(with_ilu.converged);
  for (std::size_t i = 0; i < n; ++i) EXPECT_NEAR(with_ilu.x[i], x_true[i], 1e-7);
  if (with_jacobi.converged) {
    EXPECT_LE(with_ilu.iterations, with_jacobi.iterations);
  }
}

TEST(Ilu0, AcceleratesBicgstabOnSpdSystem) {
  // A near-singular SPD tridiagonal: ILU(0) is its exact LU, so the
  // preconditioned solve needs fewer iterations than Jacobi's.
  const auto a = tridiag(64, -1.0, 2.0 + 1e-3, -1.0);
  Rng rng(23);
  Vec x_true(64);
  for (auto& v : x_true) v = rng.uniform(-1, 1);
  Vec rhs;
  a.apply(x_true, rhs);
  Ilu0 ilu;
  ASSERT_TRUE(ilu.factor(a));
  const auto with_ilu = solve_bicgstab(a, rhs, 1e-13, 0, &ilu);
  const auto with_jacobi = solve_bicgstab(a, rhs, 1e-13, 0, nullptr);
  ASSERT_TRUE(with_ilu.converged);
  for (std::size_t i = 0; i < 64; ++i) EXPECT_NEAR(with_ilu.x[i], x_true[i], 1e-8);
  ASSERT_TRUE(with_jacobi.converged);
  EXPECT_LT(with_ilu.iterations, with_jacobi.iterations);
}

}  // namespace
}  // namespace stco::numeric
