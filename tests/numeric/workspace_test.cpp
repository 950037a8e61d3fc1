#include "src/numeric/workspace.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

#include "src/numeric/rng.hpp"
#include "src/numeric/solve.hpp"

namespace stco::numeric {
namespace {

/// 2-D 5-point stencil (n = nx*nx) with values scaled by `scale`, built the
/// way the TCAD Newton loops build their Jacobians: same pattern each call,
/// different values.
void fill_stencil(TripletBuilder& b, std::size_t nx, double scale) {
  b.clear();
  for (std::size_t i = 0; i < nx * nx; ++i) {
    const std::size_t r = i / nx, c = i % nx;
    b.add(i, i, scale * (4.0 + 0.01 * static_cast<double>(r)));
    if (c > 0) b.add(i, i - 1, -scale);
    if (c + 1 < nx) b.add(i, i + 1, -scale);
    if (r > 0) b.add(i, i - nx, -scale);
    if (r + 1 < nx) b.add(i, i + nx, -scale);
  }
}

Vec random_vec(std::size_t n, Rng& rng) {
  Vec v(n);
  for (auto& x : v) x = rng.uniform(-1, 1);
  return v;
}

TEST(NewtonWorkspace, SolvesAndMatchesDense) {
  const std::size_t nx = 8, n = nx * nx;
  TripletBuilder b(n, n);
  fill_stencil(b, nx, 1.0);
  NewtonWorkspace ws;
  ws.assemble(b);
  Rng rng(11);
  const Vec rhs = random_vec(n, rng);
  const auto res = ws.solve(rhs);
  ASSERT_TRUE(res.converged);
  const Vec x_dense = solve_dense(ws.matrix().to_dense(), rhs);
  for (std::size_t i = 0; i < n; ++i) EXPECT_NEAR(res.x[i], x_dense[i], 1e-8);
  EXPECT_EQ(ws.stats().pattern_builds, 1u);
  EXPECT_EQ(ws.stats().dense_solves, 0u);
}

TEST(NewtonWorkspace, RefillsInsteadOfRebuildingPattern) {
  const std::size_t nx = 6, n = nx * nx;
  TripletBuilder b(n, n);
  NewtonWorkspace ws;
  Rng rng(3);
  for (int pass = 0; pass < 4; ++pass) {
    fill_stencil(b, nx, 1.0 + 0.05 * pass);
    ws.assemble(b);
    const Vec rhs = random_vec(n, rng);
    const auto res = ws.solve(rhs);
    ASSERT_TRUE(res.converged);
    const Vec x_dense = solve_dense(ws.matrix().to_dense(), rhs);
    for (std::size_t i = 0; i < n; ++i) EXPECT_NEAR(res.x[i], x_dense[i], 1e-8);
  }
  EXPECT_EQ(ws.stats().pattern_builds, 1u);
  EXPECT_EQ(ws.stats().refills, 3u);
}

TEST(NewtonWorkspace, SmallDriftKeepsIluFactors) {
  const std::size_t nx = 6, n = nx * nx;
  TripletBuilder b(n, n);
  NewtonWorkspace ws;
  Rng rng(9);
  fill_stencil(b, nx, 1.0);
  ws.assemble(b);
  ASSERT_TRUE(ws.solve(random_vec(n, rng)).converged);
  const std::size_t factors_after_first = ws.stats().ilu_factors;
  // 1% value drift: below the 25% staleness threshold, the factors stay.
  fill_stencil(b, nx, 1.01);
  ws.assemble(b);
  ASSERT_TRUE(ws.solve(random_vec(n, rng)).converged);
  EXPECT_EQ(ws.stats().ilu_factors, factors_after_first);
}

TEST(NewtonWorkspace, LargeDriftRefactorsIlu) {
  const std::size_t nx = 6, n = nx * nx;
  TripletBuilder b(n, n);
  NewtonWorkspace ws;
  Rng rng(13);
  fill_stencil(b, nx, 1.0);
  ws.assemble(b);
  ASSERT_TRUE(ws.solve(random_vec(n, rng)).converged);
  const std::size_t factors_after_first = ws.stats().ilu_factors;
  // 10x value change: any per-entry drift check must trip.
  fill_stencil(b, nx, 10.0);
  ws.assemble(b);
  const auto res = ws.solve(random_vec(n, rng));
  ASSERT_TRUE(res.converged);
  EXPECT_GT(ws.stats().ilu_factors, factors_after_first);
}

TEST(NewtonWorkspace, PatternChangeRebuilds) {
  NewtonWorkspace ws;
  TripletBuilder b(4, 4);
  for (std::size_t i = 0; i < 4; ++i) b.add(i, i, 2.0);
  ws.assemble(b);
  b.add(0, 3, 0.5);  // new structural entry
  ws.assemble(b);
  EXPECT_EQ(ws.stats().pattern_builds, 2u);
  const auto res = ws.solve({1, 2, 3, 4});
  ASSERT_TRUE(res.converged);
  const Vec x_dense = solve_dense(ws.matrix().to_dense(), {1, 2, 3, 4});
  for (std::size_t i = 0; i < 4; ++i) EXPECT_NEAR(res.x[i], x_dense[i], 1e-10);
}

TEST(NewtonWorkspace, SolveWithoutAssembleThrows) {
  NewtonWorkspace ws;
  EXPECT_THROW(ws.solve({1.0}), std::logic_error);
}

TEST(TridiagWorkspace, MatchesSolveTridiagonal) {
  TridiagWorkspace tws;
  tws.resize(3);
  tws.lower = {1, 1};
  tws.diag = {2, 2, 2};
  tws.upper = {1, 1};
  tws.rhs = {4, 8, 8};
  Vec x;
  tws.solve(x);
  const Vec ref = solve_tridiagonal({1, 1}, {2, 2, 2}, {1, 1}, {4, 8, 8});
  for (std::size_t i = 0; i < 3; ++i) EXPECT_EQ(x[i], ref[i]);
}

TEST(TridiagWorkspace, ResizeZeroFillsAndReuses) {
  TridiagWorkspace tws;
  tws.resize(4);
  tws.diag.assign(4, 3.0);
  tws.rhs.assign(4, 6.0);
  Vec x;
  tws.solve(x);
  for (double v : x) EXPECT_NEAR(v, 2.0, 1e-12);
  tws.resize(4);  // must zero lower/diag/upper/rhs again
  for (double v : tws.diag) EXPECT_EQ(v, 0.0);
  for (double v : tws.rhs) EXPECT_EQ(v, 0.0);
}

TEST(TridiagWorkspace, SingularPivotThrows) {
  TridiagWorkspace tws;
  tws.resize(2);
  tws.diag = {0.0, 1.0};
  tws.rhs = {1.0, 1.0};
  Vec x;
  EXPECT_THROW(tws.solve(x), std::runtime_error);
}

}  // namespace
}  // namespace stco::numeric
