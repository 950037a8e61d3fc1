#include "src/tensor/ops.hpp"

#include <gtest/gtest.h>

namespace stco::tensor {
namespace {

TEST(Ops, MatmulForward) {
  const Tensor a = Tensor::from_data({1, 2, 3, 4}, 2, 2);
  const Tensor b = Tensor::from_data({5, 6, 7, 8}, 2, 2);
  const Tensor c = matmul(a, b);
  EXPECT_DOUBLE_EQ(c(0, 0), 19.0);
  EXPECT_DOUBLE_EQ(c(1, 1), 50.0);
  EXPECT_THROW(matmul(a, Tensor::zeros(3, 2)), std::invalid_argument);
}

TEST(Ops, AddBroadcastRow) {
  const Tensor a = Tensor::from_data({1, 2, 3, 4}, 2, 2);
  const Tensor bias = Tensor::from_data({10, 20}, 1, 2);
  const Tensor y = add(a, bias);
  EXPECT_DOUBLE_EQ(y(0, 0), 11.0);
  EXPECT_DOUBLE_EQ(y(1, 1), 24.0);
}

TEST(Ops, AddBroadcastScalar) {
  const Tensor a = Tensor::from_data({1, 2}, 1, 2);
  const Tensor y = add(a, Tensor::scalar(5.0));
  EXPECT_DOUBLE_EQ(y(0, 1), 7.0);
}

TEST(Ops, IncompatibleShapesThrow) {
  EXPECT_THROW(add(Tensor::zeros(2, 2), Tensor::zeros(3, 3)), std::invalid_argument);
  EXPECT_THROW(mul(Tensor::zeros(2, 2), Tensor::zeros(2, 3)), std::invalid_argument);
}

TEST(Ops, ActivationsForward) {
  const Tensor x = Tensor::from_data({-1.0, 0.0, 2.0}, 1, 3);
  const Tensor r = relu(x);
  EXPECT_DOUBLE_EQ(r(0, 0), 0.0);
  EXPECT_DOUBLE_EQ(r(0, 2), 2.0);
  const Tensor lr = leaky_relu(x, 0.1);
  EXPECT_DOUBLE_EQ(lr(0, 0), -0.1);
  const Tensor s = sigmoid(Tensor::scalar(0.0));
  EXPECT_DOUBLE_EQ(s.item(), 0.5);
  const Tensor e = elu(Tensor::scalar(-100.0));
  EXPECT_NEAR(e.item(), -1.0, 1e-9);
}

TEST(Ops, Reductions) {
  const Tensor x = Tensor::from_data({1, 2, 3, 4}, 2, 2);
  EXPECT_DOUBLE_EQ(sum_all(x).item(), 10.0);
  const Tensor mr = mean_rows(x);
  EXPECT_EQ(mr.rows(), 1u);
  EXPECT_DOUBLE_EQ(mr(0, 0), 2.0);
  EXPECT_DOUBLE_EQ(mr(0, 1), 3.0);
}

TEST(Ops, SegmentMeanHandlesEmptySegments) {
  const Tensor x = Tensor::from_data({1, 2, 5, 6}, 2, 2);
  const Tensor m = segment_mean(x, {2, 2}, 3);
  EXPECT_DOUBLE_EQ(m(0, 0), 0.0);  // empty segment
  EXPECT_DOUBLE_EQ(m(2, 0), 3.0);
  EXPECT_DOUBLE_EQ(m(2, 1), 4.0);
  EXPECT_THROW(segment_mean(x, {0, 5}, 3), std::out_of_range);
}

TEST(Ops, ConcatColsForward) {
  const Tensor a = Tensor::from_data({1, 2}, 2, 1);
  const Tensor b = Tensor::from_data({3, 4, 5, 6}, 2, 2);
  const Tensor c = concat_cols({a, b});
  EXPECT_EQ(c.cols(), 3u);
  EXPECT_DOUBLE_EQ(c(1, 0), 2.0);
  EXPECT_DOUBLE_EQ(c(1, 2), 6.0);
  EXPECT_THROW(concat_cols({a, Tensor::zeros(3, 1)}), std::invalid_argument);
}

TEST(Ops, GatherScatterForward) {
  const Tensor x = Tensor::from_data({1, 2, 3}, 3, 1);
  const Tensor g = gather_rows(x, {2, 0, 2});
  EXPECT_DOUBLE_EQ(g(0, 0), 3.0);
  EXPECT_DOUBLE_EQ(g(2, 0), 3.0);
  const Tensor s = scatter_add_rows(g, {0, 0, 1}, 2);
  EXPECT_DOUBLE_EQ(s(0, 0), 4.0);  // 3 + 1
  EXPECT_DOUBLE_EQ(s(1, 0), 3.0);
  EXPECT_THROW(gather_rows(x, {5}), std::out_of_range);
}

TEST(Ops, SegmentSoftmaxNormalizesPerSegment) {
  const Tensor logits = Tensor::from_data({0.0, 0.0, 1.0, 3.0}, 4, 1);
  const Tensor y = segment_softmax(logits, {0, 0, 1, 1}, 2);
  EXPECT_NEAR(y(0, 0) + y(1, 0), 1.0, 1e-12);
  EXPECT_NEAR(y(2, 0) + y(3, 0), 1.0, 1e-12);
  EXPECT_NEAR(y(0, 0), 0.5, 1e-12);
  EXPECT_GT(y(3, 0), y(2, 0));
}

TEST(Ops, SegmentSoftmaxStableForLargeLogits) {
  const Tensor logits = Tensor::from_data({1000.0, 999.0}, 2, 1);
  const Tensor y = segment_softmax(logits, {0, 0}, 1);
  EXPECT_NEAR(y(0, 0) + y(1, 0), 1.0, 1e-12);
  EXPECT_GT(y(0, 0), y(1, 0));
}

TEST(Ops, LayerNormNormalizesRows) {
  const Tensor x = Tensor::from_data({1, 2, 3, 10, 20, 30}, 2, 3);
  const Tensor y = layer_norm(x, Tensor::full(1, 3, 1.0), Tensor::zeros(1, 3));
  for (std::size_t r = 0; r < 2; ++r) {
    double m = 0;
    for (std::size_t c = 0; c < 3; ++c) m += y(r, c);
    EXPECT_NEAR(m / 3.0, 0.0, 1e-9);
  }
  // Equal relative spacing -> identical normalized rows (up to the eps
  // regularizer, which matters more for the small-variance row).
  EXPECT_NEAR(y(0, 0), y(1, 0), 1e-4);
}

TEST(Ops, MseLossValue) {
  const Tensor p = Tensor::from_data({1, 2}, 1, 2);
  const Tensor t = Tensor::from_data({0, 4}, 1, 2);
  EXPECT_DOUBLE_EQ(mse_loss(p, t).item(), (1.0 + 4.0) / 2.0);
}

TEST(Ops, ScaleRowsForward) {
  const Tensor a = Tensor::from_data({1, 2, 3, 4}, 2, 2);
  const Tensor s = Tensor::from_data({2, -1}, 2, 1);
  const Tensor y = scale_rows(a, s);
  EXPECT_DOUBLE_EQ(y(0, 1), 4.0);
  EXPECT_DOUBLE_EQ(y(1, 0), -3.0);
  EXPECT_THROW(scale_rows(a, Tensor::zeros(2, 2)), std::invalid_argument);
}

}  // namespace
}  // namespace stco::tensor
