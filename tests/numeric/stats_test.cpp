#include "src/numeric/stats.hpp"

#include <gtest/gtest.h>

#include <cmath>

namespace stco::numeric {
namespace {

TEST(Stats, MeanVarianceStddev) {
  const Vec v{1, 2, 3, 4};
  EXPECT_DOUBLE_EQ(mean(v), 2.5);
  EXPECT_DOUBLE_EQ(variance(v), 1.25);
  EXPECT_DOUBLE_EQ(stddev(v), std::sqrt(1.25));
  EXPECT_THROW(mean({}), std::invalid_argument);
}

TEST(Stats, MseRmse) {
  const Vec p{1, 2, 3}, a{1, 2, 5};
  EXPECT_NEAR(mse(p, a), 4.0 / 3.0, 1e-12);
  EXPECT_NEAR(rmse(p, a), std::sqrt(4.0 / 3.0), 1e-12);
  EXPECT_THROW(mse(p, {1.0}), std::invalid_argument);
}

TEST(Stats, MapeBasic) {
  const Vec p{110, 90}, a{100, 100};
  EXPECT_NEAR(mape(p, a), 10.0, 1e-12);
}

TEST(Stats, MapeSkipsNearZeroReferences) {
  const Vec p{110, 123456}, a{100, 1e-40};
  EXPECT_NEAR(mape(p, a), 10.0, 1e-12);  // second entry skipped
  EXPECT_THROW(mape({1.0}, {0.0}), std::invalid_argument);
}

TEST(Stats, RSquared) {
  const Vec a{1, 2, 3, 4};
  EXPECT_DOUBLE_EQ(r_squared(a, a), 1.0);
  const Vec p{2.5, 2.5, 2.5, 2.5};  // predicting the mean -> R^2 = 0
  EXPECT_NEAR(r_squared(p, a), 0.0, 1e-12);
}

TEST(Interp, Interp2Bilinear) {
  const Vec xs{0, 1}, ys{0, 1};
  Matrix t{{0, 1}, {2, 3}};
  EXPECT_DOUBLE_EQ(interp2(xs, ys, t, 0.0, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(interp2(xs, ys, t, 1.0, 1.0), 3.0);
  EXPECT_DOUBLE_EQ(interp2(xs, ys, t, 0.5, 0.5), 1.5);
  EXPECT_DOUBLE_EQ(interp2(xs, ys, t, 2.0, 2.0), 3.0);  // clamp corner
}

TEST(Interp, Interp2SizeMismatchThrows) {
  EXPECT_THROW(interp2({0, 1}, {0}, Matrix(2, 2), 0, 0), std::invalid_argument);
}

}  // namespace
}  // namespace stco::numeric
