#pragma once
// Weight initialization schemes.

#include "src/numeric/rng.hpp"
#include "src/tensor/tensor.hpp"

#include <cmath>

namespace stco::tensor {

/// Xavier/Glorot uniform init for a fan_in x fan_out weight.
inline Tensor xavier_uniform(std::size_t fan_in, std::size_t fan_out,
                             numeric::Rng& rng) {
  const double limit = std::sqrt(6.0 / static_cast<double>(fan_in + fan_out));
  std::vector<double> data(fan_in * fan_out);
  for (auto& v : data) v = rng.uniform(-limit, limit);
  return Tensor::from_data(std::move(data), fan_in, fan_out, /*requires_grad=*/true);
}

/// Trainable zero bias row (1 x n).
inline Tensor zero_bias(std::size_t n) { return Tensor::zeros(1, n, /*requires_grad=*/true); }

/// Trainable ones row (1 x n), e.g. layer-norm gain.
inline Tensor ones_row(std::size_t n) { return Tensor::full(1, n, 1.0, /*requires_grad=*/true); }

}  // namespace stco::tensor
