#include "src/numeric/solve.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <optional>
#include <vector>

#include "src/numeric/rng.hpp"

namespace stco::numeric {
namespace {

TEST(DenseLu, SolvesKnownSystem) {
  Matrix a{{2, 1}, {1, 3}};
  const Vec x = solve_dense(a, {5.0, 10.0});
  EXPECT_NEAR(x[0], 1.0, 1e-12);
  EXPECT_NEAR(x[1], 3.0, 1e-12);
}

TEST(DenseLu, SingularReturnsNullopt) {
  Matrix a{{1, 2}, {2, 4}};
  EXPECT_FALSE(DenseLu::factor(a).has_value());
  EXPECT_THROW(solve_dense(a, {1.0, 2.0}), std::runtime_error);
}

TEST(DenseLu, PivotingHandlesZeroDiagonal) {
  Matrix a{{0, 1}, {1, 0}};
  const Vec x = solve_dense(a, {2.0, 3.0});
  EXPECT_NEAR(x[0], 3.0, 1e-12);
  EXPECT_NEAR(x[1], 2.0, 1e-12);
}

TEST(DenseLu, RandomRoundTrip) {
  Rng rng(11);
  const std::size_t n = 20;
  Matrix a(n, n);
  Vec x_true(n);
  for (std::size_t i = 0; i < n; ++i) {
    x_true[i] = rng.uniform(-2, 2);
    for (std::size_t j = 0; j < n; ++j) a(i, j) = rng.uniform(-1, 1);
    a(i, i) += 5.0;  // diagonally dominant
  }
  const Vec b = a.apply(x_true);
  const Vec x = solve_dense(a, b);
  for (std::size_t i = 0; i < n; ++i) EXPECT_NEAR(x[i], x_true[i], 1e-9);
}

TEST(Tridiagonal, SolvesKnownSystem) {
  // [2 1 0; 1 2 1; 0 1 2] x = [4; 8; 8] -> x = [1; 2; 3]
  const Vec x = solve_tridiagonal({1, 1}, {2, 2, 2}, {1, 1}, {4, 8, 8});
  EXPECT_NEAR(x[0], 1.0, 1e-12);
  EXPECT_NEAR(x[1], 2.0, 1e-12);
  EXPECT_NEAR(x[2], 3.0, 1e-12);
}

TEST(Tridiagonal, SizeMismatchThrows) {
  EXPECT_THROW(solve_tridiagonal({1}, {2, 2, 2}, {1, 1}, {1, 2, 3}),
               std::invalid_argument);
}

SparseMatrix laplacian_1d(std::size_t n) {
  TripletBuilder b(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    b.add(i, i, 2.0);
    if (i > 0) b.add(i, i - 1, -1.0);
    if (i + 1 < n) b.add(i, i + 1, -1.0);
  }
  return SparseMatrix::from_triplets(b);
}

TEST(Cg, SolvesSpdLaplacian) {
  const std::size_t n = 50;
  const auto a = laplacian_1d(n);
  Vec x_true(n);
  for (std::size_t i = 0; i < n; ++i) x_true[i] = std::sin(0.3 * static_cast<double>(i));
  const Vec b = a.apply(x_true);
  const auto res = solve_cg(a, b, 1e-12);
  ASSERT_TRUE(res.converged);
  for (std::size_t i = 0; i < n; ++i) EXPECT_NEAR(res.x[i], x_true[i], 1e-8);
}

TEST(Cg, ZeroRhsConvergesImmediately) {
  const auto a = laplacian_1d(5);
  const auto res = solve_cg(a, Vec(5, 0.0));
  EXPECT_TRUE(res.converged);
  EXPECT_EQ(res.iterations, 0u);
}

TEST(BiCgStab, SolvesNonsymmetricSystem) {
  const std::size_t n = 40;
  TripletBuilder b(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    b.add(i, i, 4.0);
    if (i > 0) b.add(i, i - 1, -1.0);
    if (i + 1 < n) b.add(i, i + 1, -2.0);  // nonsymmetric
  }
  const auto a = SparseMatrix::from_triplets(b);
  Vec x_true(n, 1.0);
  const Vec rhs = a.apply(x_true);
  const auto res = solve_bicgstab(a, rhs, 1e-12);
  ASSERT_TRUE(res.converged);
  for (std::size_t i = 0; i < n; ++i) EXPECT_NEAR(res.x[i], 1.0, 1e-8);
}

// DenseLu's zero-skipping and plan-replaying elimination against the plain
// dense partial-pivot LU it replaced, compared bit for bit: factors,
// permutation and solutions, on MNA-like sparse matrices (exact zeros,
// zero diagonals that force row swaps, right-hand sides with zeros), on
// repeated refactors of one object (plan replay, pivot-order changes,
// patterns that grow) and on dense LM-like normal equations.

/// The dense LU as it was before zero skipping: swaps whole rows, updates
/// every column right of the pivot for every non-zero multiplier.
struct ReferenceLu {
  Matrix lu;
  std::vector<std::size_t> perm;

  static std::optional<ReferenceLu> factor(const Matrix& a) {
    const std::size_t n = a.rows();
    ReferenceLu f;
    f.lu = a;
    f.perm.resize(n);
    for (std::size_t i = 0; i < n; ++i) f.perm[i] = i;
    for (std::size_t k = 0; k < n; ++k) {
      std::size_t piv = k;
      double best = std::fabs(f.lu(k, k));
      for (std::size_t i = k + 1; i < n; ++i) {
        const double v = std::fabs(f.lu(i, k));
        if (v > best) {
          best = v;
          piv = i;
        }
      }
      if (best < 1e-300) return std::nullopt;
      if (piv != k) {
        for (std::size_t j = 0; j < n; ++j) std::swap(f.lu(k, j), f.lu(piv, j));
        std::swap(f.perm[k], f.perm[piv]);
      }
      const double pivot = f.lu(k, k);
      for (std::size_t i = k + 1; i < n; ++i) {
        const double m = f.lu(i, k) / pivot;
        f.lu(i, k) = m;
        if (m == 0.0) continue;
        for (std::size_t j = k + 1; j < n; ++j) f.lu(i, j) -= m * f.lu(k, j);
      }
    }
    return f;
  }

  Vec solve(const Vec& b) const {
    const std::size_t n = lu.rows();
    Vec x(n);
    for (std::size_t i = 0; i < n; ++i) x[i] = b[perm[i]];
    for (std::size_t i = 1; i < n; ++i) {
      double s = x[i];
      for (std::size_t j = 0; j < i; ++j) s -= lu(i, j) * x[j];
      x[i] = s;
    }
    for (std::size_t ii = n; ii-- > 0;) {
      double s = x[ii];
      for (std::size_t j = ii + 1; j < n; ++j) s -= lu(ii, j) * x[j];
      x[ii] = s / lu(ii, ii);
    }
    return x;
  }
};

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

::testing::AssertionResult same_bits(const Vec& a, const Vec& b) {
  if (a.size() != b.size()) return ::testing::AssertionFailure() << "size differs";
  for (std::size_t i = 0; i < a.size(); ++i)
    if (!same_bits(a[i], b[i]))
      return ::testing::AssertionFailure() << "entry " << i << ": " << a[i] << " vs " << b[i];
  return ::testing::AssertionSuccess();
}

/// Factor `a` with `lu` and with the reference; expect the same outcome,
/// factors, permutation and solution of `b`, bit for bit.
void expect_matches_reference(DenseLu& lu, const Matrix& a, const Vec& b) {
  const auto ref = ReferenceLu::factor(a);
  ASSERT_EQ(lu.refactor(a), ref.has_value());
  if (!ref) return;
  const Matrix f = lu.factors();
  for (std::size_t i = 0; i < a.rows(); ++i)
    for (std::size_t j = 0; j < a.cols(); ++j)
      ASSERT_TRUE(same_bits(f(i, j), ref->lu(i, j)))
          << "factor (" << i << ", " << j << "): " << f(i, j) << " vs " << ref->lu(i, j);
  EXPECT_EQ(lu.perm(), ref->perm);
  Vec x;
  lu.solve(b, x);
  EXPECT_TRUE(same_bits(x, ref->solve(b)));
  EXPECT_TRUE(same_bits(lu.solve(b), x));
}

/// A random circuit's MNA structure: `nodes` node rows, then one row per
/// voltage source with +-1 incidence and a zero diagonal.
struct MnaShape {
  std::size_t nodes = 0;
  std::vector<std::pair<std::size_t, std::size_t>> branches;  ///< conductances
  std::vector<std::pair<std::size_t, int>> sources;            ///< node, sign
  std::size_t dim() const { return nodes + sources.size(); }
};

MnaShape random_shape(Rng& rng) {
  MnaShape s;
  s.nodes = 2 + rng.uniform_index(9);
  const std::size_t nb = 1 + rng.uniform_index(2 * s.nodes);
  for (std::size_t e = 0; e < nb; ++e)
    s.branches.emplace_back(rng.uniform_index(s.nodes), rng.uniform_index(s.nodes));
  const std::size_t ns = rng.uniform_index(4);
  for (std::size_t v = 0; v < ns; ++v)
    s.sources.emplace_back(rng.uniform_index(s.nodes), rng.uniform() < 0.5 ? 1 : -1);
  return s;
}

/// Stamp `shape` with fresh conductances. Values span decades like a TFT
/// netlist's; a branch is sometimes exactly 0 (a device in cut-off).
Matrix stamp(const MnaShape& s, Rng& rng) {
  Matrix a(s.dim(), s.dim());
  for (std::size_t n = 0; n < s.nodes; ++n) a(n, n) += 1e-12;
  for (const auto& [p, q] : s.branches) {
    const double g = rng.uniform() < 0.15 ? 0.0 : std::pow(10.0, rng.uniform(-9, -2));
    a(p, p) += g;
    a(q, q) += g;
    if (p != q) {
      a(p, q) -= g;
      a(q, p) -= g;
    }
  }
  for (std::size_t v = 0; v < s.sources.size(); ++v) {
    const auto [node, sign] = s.sources[v];
    a(node, s.nodes + v) += sign;
    a(s.nodes + v, node) += sign;
  }
  return a;
}

Vec random_rhs(std::size_t n, Rng& rng) {
  Vec b(n, 0.0);
  for (auto& v : b)
    if (rng.uniform() < 0.6) v = rng.uniform(-3, 3);
  return b;
}

TEST(DenseLuBitwise, OneShotFactorsMatchReferenceOnMnaMatrices) {
  Rng rng(24);
  for (int trial = 0; trial < 400; ++trial) {
    const MnaShape s = random_shape(rng);
    const Matrix a = stamp(s, rng);
    DenseLu lu;
    expect_matches_reference(lu, a, random_rhs(s.dim(), rng));
    auto one_shot = DenseLu::factor(a);
    ASSERT_EQ(one_shot.has_value(), ReferenceLu::factor(a).has_value());
  }
}

TEST(DenseLuBitwise, RepeatedRefactorsMatchReference) {
  // One object per shape, refactored like a Newton loop: the plan replays
  // on the same pattern and rebuilds when values move the pivot order or a
  // new non-zero appears.
  Rng rng(7);
  for (int shape = 0; shape < 60; ++shape) {
    const MnaShape s = random_shape(rng);
    DenseLu lu;
    for (int it = 0; it < 25; ++it) {
      SCOPED_TRACE(::testing::Message() << "shape " << shape << " iteration " << it);
      expect_matches_reference(lu, stamp(s, rng), random_rhs(s.dim(), rng));
    }
  }
}

TEST(DenseLuBitwise, ForcedRowSwapsAndZeroDiagonals) {
  // Every row's diagonal is zero, so each step swaps; the multipliers
  // change sign with the pivot.
  Rng rng(3);
  for (int trial = 0; trial < 50; ++trial) {
    const std::size_t n = 3 + rng.uniform_index(8);
    DenseLu lu;
    for (int it = 0; it < 6; ++it) {
      Matrix a(n, n);
      for (std::size_t i = 0; i < n; ++i) {
        a(i, (i + 1) % n) = rng.uniform(-2, 2);
        if (rng.uniform() < 0.5) a(i, (i + 3) % n) = rng.uniform(-2, 2);
      }
      expect_matches_reference(lu, a, random_rhs(n, rng));
    }
  }
}

TEST(DenseLuBitwise, DenseLmNormalEquations) {
  // LM-like 5 x 5 systems: J^T J + lambda diag(J^T J).
  Rng rng(5);
  for (int trial = 0; trial < 200; ++trial) {
    Matrix j(12, 5);
    for (std::size_t r = 0; r < 12; ++r)
      for (std::size_t c = 0; c < 5; ++c) j(r, c) = rng.uniform(-1, 1);
    Matrix a = j.transposed() * j;
    const double lambda = std::pow(10.0, rng.uniform(-6, 2));
    for (std::size_t d = 0; d < 5; ++d) a(d, d) += lambda * a(d, d);
    DenseLu lu;
    expect_matches_reference(lu, a, random_rhs(5, rng));
    expect_matches_reference(lu, a, random_rhs(5, rng));
  }
}

TEST(DenseLuBitwise, NegativeZerosAndNonFiniteValuesTakeTheDenseUpdate) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  Matrix a{{2, 1, 0, 0}, {-0.0, 3, 1, 0}, {1, -0.0, 4, 1}, {0, 1, -0.0, -5}};
  DenseLu lu;
  expect_matches_reference(lu, a, {1, -0.0, 2, 0});
  expect_matches_reference(lu, a, {1, 2, 3, 4});
  // The dense update turns row 1's -0 into +0 (-0 - (-0.5 * 0)); skipping
  // the pivot row's zero column would keep -0 and flip the sign of L(2, 1).
  Matrix z{{2, 0, 0}, {-1, -0.0, 3}, {0, 1, 1}};
  expect_matches_reference(lu, z, {1, 2, 3});
  expect_matches_reference(lu, z, {1, 2, 3});
  // An Inf entry makes a non-finite multiplier; a NaN entry a NaN solve.
  Matrix b{{1, 2, 0}, {inf, 1, 3}, {0, 4, 1}};
  expect_matches_reference(lu, b, {1, 0, 2});
  Matrix c{{4, 1, 0}, {1, 3, nan}, {0, 1, 2}};
  expect_matches_reference(lu, c, {1, 2, 3});
  // A NaN multiplier: the dense update spreads it over the whole row,
  // pivot-row zeros included — first unplanned, then on a planned object.
  Matrix finite{{4, 0, 1}, {2, 3, 0}, {0, 1, 2}};
  Matrix nan_multiplier{{4, 0, 1}, {nan, 3, 0}, {0, 1, 2}};
  DenseLu fresh;
  expect_matches_reference(fresh, nan_multiplier, {1, 2, 3});
  DenseLu planned;
  for (int i = 0; i < 3; ++i) expect_matches_reference(planned, finite, {1, 2, 3});
  expect_matches_reference(planned, nan_multiplier, {1, 2, 3});
  expect_matches_reference(planned, finite, {1, 2, 3});
  // A right-hand side with an Inf: 0 * Inf is NaN in the dense solve.
  Matrix d{{4, 0, 1}, {0, 3, 0}, {1, 0, 2}};
  expect_matches_reference(lu, d, {inf, 1, 0});
  expect_matches_reference(lu, d, {inf, 1, 0});
  expect_matches_reference(lu, d, {1, inf, 0});
}

TEST(DenseLuBitwise, SingularIsRejectedBeforeAndAfterAPlan) {
  Matrix ok{{2, 1, 0}, {1, 3, 1}, {0, 1, 4}};
  Matrix singular{{2, 1, 0}, {4, 2, 0}, {0, 1, 4}};
  DenseLu lu;
  EXPECT_FALSE(lu.refactor(singular));
  ASSERT_TRUE(lu.refactor(ok));
  ASSERT_TRUE(lu.refactor(ok));  // builds the plan
  ASSERT_TRUE(lu.refactor(ok));  // replays it
  EXPECT_FALSE(lu.refactor(singular));
  EXPECT_FALSE(DenseLu::factor(singular).has_value());
  expect_matches_reference(lu, ok, {1, 2, 3});
}

}  // namespace
}  // namespace stco::numeric
