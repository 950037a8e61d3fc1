#include "src/tensor/tensor.hpp"

#include <gtest/gtest.h>

#include "src/tensor/ops.hpp"

namespace stco::tensor {
namespace {

TEST(Tensor, Construction) {
  const Tensor t = Tensor::full(2, 3, 1.5);
  EXPECT_EQ(t.rows(), 2u);
  EXPECT_EQ(t.cols(), 3u);
  EXPECT_DOUBLE_EQ(t(1, 2), 1.5);
  EXPECT_FALSE(t.requires_grad());
}

TEST(Tensor, FromDataSizeChecked) {
  EXPECT_THROW(Tensor::from_data({1, 2, 3}, 2, 2), std::invalid_argument);
  // 2^63 x 2 wraps to 0 elements: an empty buffer must not pass as that shape.
  EXPECT_THROW(Tensor::from_data({}, std::size_t{1} << 63, 2), std::invalid_argument);
  const Tensor t = Tensor::from_data({1, 2, 3, 4}, 2, 2);
  EXPECT_DOUBLE_EQ(t(1, 0), 3.0);
}

TEST(Tensor, ItemRequiresScalar) {
  EXPECT_THROW(Tensor::zeros(2, 2).item(), std::invalid_argument);
  EXPECT_DOUBLE_EQ(Tensor::scalar(3.5).item(), 3.5);
}

TEST(Tensor, BackwardRequiresScalar) {
  const Tensor t = Tensor::zeros(2, 2, true);
  EXPECT_THROW(t.backward(), std::invalid_argument);
}

TEST(Tensor, SimpleChainGradient) {
  // y = sum(3 * x); dy/dx = 3.
  Tensor x = Tensor::full(2, 2, 1.0, true);
  const Tensor y = sum_all(scale(x, 3.0));
  y.backward();
  for (double g : x.grad()) EXPECT_DOUBLE_EQ(g, 3.0);
}

TEST(Tensor, GradAccumulatesAcrossUses) {
  // y = sum(x + x) -> dy/dx = 2.
  Tensor x = Tensor::full(1, 3, 1.0, true);
  const Tensor y = sum_all(add(x, x));
  y.backward();
  for (double g : x.grad()) EXPECT_DOUBLE_EQ(g, 2.0);
}

TEST(Tensor, ZeroGradClears) {
  Tensor x = Tensor::full(1, 1, 2.0, true);
  sum_all(x).backward();
  EXPECT_DOUBLE_EQ(x.grad()[0], 1.0);
  x.zero_grad();
  EXPECT_DOUBLE_EQ(x.grad()[0], 0.0);
}

TEST(Tensor, NoGradLeafStaysUntouched) {
  Tensor x = Tensor::full(1, 1, 2.0, false);
  Tensor w = Tensor::full(1, 1, 3.0, true);
  const Tensor y = sum_all(mul(x, w));
  y.backward();
  EXPECT_DOUBLE_EQ(w.grad()[0], 2.0);
  EXPECT_DOUBLE_EQ(x.grad()[0], 0.0);
}

TEST(Tensor, DeepChainDoesNotOverflowStack) {
  // 2000-deep chain exercises the iterative DFS.
  Tensor x = Tensor::full(1, 4, 0.01, true);
  Tensor h = x;
  for (int i = 0; i < 2000; ++i) h = scale(h, 1.0005);
  sum_all(h).backward();
  EXPECT_GT(x.grad()[0], 1.0);  // (1.0005)^2000 ~ e
  EXPECT_LT(x.grad()[0], 4.0);
}

}  // namespace
}  // namespace stco::tensor
