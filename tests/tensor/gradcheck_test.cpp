// Finite-difference gradient verification for every differentiable op.
// Each case builds a scalar loss from the op, backprops, and compares each
// leaf gradient against a central finite difference.

#include <gtest/gtest.h>

#include <cmath>
#include <functional>

#include "src/numeric/rng.hpp"
#include "src/tensor/ops.hpp"

namespace stco::tensor {
namespace {

using LossFn = std::function<Tensor(const std::vector<Tensor>&)>;

/// Checks d loss / d leaves against central differences.
void gradcheck(const LossFn& loss, std::vector<Tensor> leaves, double tol = 1e-6,
               double h = 1e-6) {
  for (auto& leaf : leaves) leaf.zero_grad();  // leaves may be reused across checks
  const Tensor l = loss(leaves);
  l.backward();
  for (auto& leaf : leaves) {
    const auto analytic = leaf.grad();
    for (std::size_t i = 0; i < leaf.size(); ++i) {
      const double orig = leaf.value()[i];
      leaf.value()[i] = orig + h;
      const double lp = loss(leaves).item();
      leaf.value()[i] = orig - h;
      const double lm = loss(leaves).item();
      leaf.value()[i] = orig;
      const double fd = (lp - lm) / (2 * h);
      EXPECT_NEAR(analytic[i], fd, tol * std::max(1.0, std::fabs(fd)))
          << "leaf element " << i;
    }
  }
}

Tensor random_tensor(std::size_t r, std::size_t c, numeric::Rng& rng, double lo = -1,
                     double hi = 1) {
  std::vector<double> d(r * c);
  for (auto& v : d) v = rng.uniform(lo, hi);
  return Tensor::from_data(std::move(d), r, c, true);
}

TEST(GradCheck, Matmul) {
  numeric::Rng rng(1);
  auto a = random_tensor(3, 4, rng);
  auto b = random_tensor(4, 2, rng);
  gradcheck([](const std::vector<Tensor>& l) { return sum_all(matmul(l[0], l[1])); },
            {a, b});
}

TEST(GradCheck, AddSameShapeAndRowBroadcastAndScalar) {
  numeric::Rng rng(2);
  auto a = random_tensor(3, 3, rng);
  auto b = random_tensor(3, 3, rng);
  gradcheck([](const std::vector<Tensor>& l) {
    return sum_all(mul(add(l[0], l[1]), l[0]));
  }, {a, b});
  auto bias = random_tensor(1, 3, rng);
  gradcheck([](const std::vector<Tensor>& l) {
    return sum_all(mul(add(l[0], l[1]), l[0]));
  }, {a, bias});
  auto s = random_tensor(1, 1, rng);
  gradcheck([](const std::vector<Tensor>& l) {
    return sum_all(mul(add(l[0], l[1]), l[0]));
  }, {a, s});
}

TEST(GradCheck, SubAndMulBroadcasts) {
  numeric::Rng rng(3);
  auto a = random_tensor(2, 4, rng);
  auto row = random_tensor(1, 4, rng);
  gradcheck([](const std::vector<Tensor>& l) {
    return sum_all(mul(sub(l[0], l[1]), sub(l[0], l[1])));
  }, {a, row});
}

TEST(GradCheck, Activations) {
  numeric::Rng rng(4);
  auto x = random_tensor(3, 3, rng, -2, 2);
  for (auto f : {relu, tanh_t, sigmoid, softplus}) {
    gradcheck([f](const std::vector<Tensor>& l) { return sum_all(f(l[0])); }, {x},
              1e-4, 1e-5);
  }
  gradcheck([](const std::vector<Tensor>& l) { return sum_all(leaky_relu(l[0], 0.1)); },
            {x}, 1e-4, 1e-5);
  gradcheck([](const std::vector<Tensor>& l) { return sum_all(elu(l[0], 1.0)); }, {x},
            1e-4, 1e-5);
}

TEST(GradCheck, Reductions) {
  numeric::Rng rng(5);
  auto x = random_tensor(4, 3, rng);
  gradcheck([](const std::vector<Tensor>& l) {
    return sum_all(mul(mean_rows(l[0]), mean_rows(l[0])));
  }, {x});
}

TEST(GradCheck, SegmentMean) {
  numeric::Rng rng(6);
  auto x = random_tensor(5, 2, rng);
  const IndexVec seg{0, 0, 1, 2, 2};
  gradcheck([&](const std::vector<Tensor>& l) {
    const Tensor m = segment_mean(l[0], seg, 3);
    return sum_all(mul(m, m));
  }, {x});
}

TEST(GradCheck, ConcatCols) {
  numeric::Rng rng(7);
  auto a = random_tensor(3, 2, rng);
  auto b = random_tensor(3, 3, rng);
  // A weight per output column, so each part's gradient lands in its own
  // columns or the check fails.
  const Tensor w = random_tensor(3, 5, rng);
  gradcheck([&](const std::vector<Tensor>& l) {
    const Tensor c = concat_cols({l[0], l[1]});
    return sum_all(mul(mul(c, c), w));
  }, {a, b});
}

TEST(GradCheck, GatherScatter) {
  numeric::Rng rng(8);
  auto x = random_tensor(4, 3, rng);
  const IndexVec idx{3, 1, 1, 0, 2};
  gradcheck([&](const std::vector<Tensor>& l) {
    const Tensor g = gather_rows(l[0], idx);
    const Tensor s = scatter_add_rows(g, idx, 4);
    return sum_all(mul(s, s));
  }, {x});
}

TEST(GradCheck, ScaleRows) {
  numeric::Rng rng(9);
  auto x = random_tensor(4, 3, rng);
  auto s = random_tensor(4, 1, rng);
  gradcheck([](const std::vector<Tensor>& l) {
    return sum_all(mul(scale_rows(l[0], l[1]), l[0]));
  }, {x, s});
}

TEST(GradCheck, SegmentSoftmax) {
  numeric::Rng rng(10);
  auto logits = random_tensor(6, 1, rng, -2, 2);
  auto w = random_tensor(6, 1, rng);
  const IndexVec seg{0, 0, 0, 1, 1, 2};
  gradcheck([&](const std::vector<Tensor>& l) {
    return sum_all(mul(segment_softmax(l[0], seg, 3), l[1]));
  }, {logits, w}, 1e-5, 1e-6);
}

TEST(GradCheck, LayerNorm) {
  numeric::Rng rng(11);
  auto x = random_tensor(3, 5, rng);
  auto gain = random_tensor(1, 5, rng, 0.5, 1.5);
  auto bias = random_tensor(1, 5, rng);
  gradcheck([](const std::vector<Tensor>& l) {
    const Tensor y = layer_norm(l[0], l[1], l[2]);
    return sum_all(mul(y, y));
  }, {x, gain, bias}, 1e-4, 1e-6);
}

TEST(GradCheck, Losses) {
  numeric::Rng rng(12);
  auto pred = random_tensor(3, 2, rng);
  const Tensor target = Tensor::from_data({0.1, 0.2, 0.3, 0.4, 0.5, 0.6}, 3, 2);
  gradcheck([&](const std::vector<Tensor>& l) { return mse_loss(l[0], target); }, {pred});
}

}  // namespace
}  // namespace stco::tensor
