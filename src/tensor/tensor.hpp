#pragma once
// Minimal reverse-mode automatic differentiation over dense 2-D tensors.
//
// Every value in the GNN stack is a row-major (rows x cols) matrix of double:
// node feature blocks are N x F, edge blocks E x F, weights F_in x F_out,
// scalars 1 x 1. A Tensor is a cheap shared handle to a graph node; calling
// backward() on a scalar runs reverse topological accumulation into .grad().

#include <cstddef>
#include <functional>
#include <memory>
#include <vector>

#include "src/numeric/contract.hpp"

namespace stco::tensor {

/// True when a buffer of `size` elements holds exactly rows x cols. Checks
/// by division, so a rows*cols product that wraps never matches.
inline bool holds_shape(std::size_t size, std::size_t rows, std::size_t cols) noexcept {
  return cols == 0 ? size == 0 : size % cols == 0 && size / cols == rows;
}

class Tensor;

/// Autograd graph node. Not used directly by clients; see Tensor.
struct Node {
  std::size_t rows = 0, cols = 0;
  std::vector<double> value;
  std::vector<double> grad;    ///< allocated lazily on first backward touch
  bool requires_grad = false;  ///< true for leaves marked trainable and any op output
  std::vector<std::shared_ptr<Node>> parents;
  /// Accumulates this node's grad into its parents' grads.
  std::function<void(Node&)> backward_fn;
  std::uint64_t seq = 0;  ///< creation order; backward visits descending seq

  std::size_t size() const { return rows * cols; }
  void ensure_grad() {
    if (grad.size() != size()) grad.assign(size(), 0.0);
  }
};

/// Shared handle to an autograd node.
class Tensor {
 public:
  Tensor() = default;

  /// Fresh tensor with the given fill value.
  static Tensor full(std::size_t rows, std::size_t cols, double fill,
                     bool requires_grad = false);
  static Tensor zeros(std::size_t rows, std::size_t cols, bool requires_grad = false) {
    return full(rows, cols, 0.0, requires_grad);
  }
  /// Takes ownership of `data` (size must equal rows*cols).
  static Tensor from_data(std::vector<double> data, std::size_t rows, std::size_t cols,
                          bool requires_grad = false);
  /// 1x1 constant.
  static Tensor scalar(double v, bool requires_grad = false) {
    return full(1, 1, v, requires_grad);
  }

  bool defined() const { return node_ != nullptr; }
  std::size_t rows() const { return node_->rows; }
  std::size_t cols() const { return node_->cols; }
  std::size_t size() const { return node_->size(); }
  bool requires_grad() const { return node_->requires_grad; }

  const std::vector<double>& value() const { return node_->value; }
  std::vector<double>& value() { return node_->value; }
  const std::vector<double>& grad() const;

  double operator()(std::size_t r, std::size_t c) const {
    STCO_REQUIRE(r < node_->rows && c < node_->cols, "Tensor index out of bounds");
    return node_->value[r * node_->cols + c];
  }
  double& operator()(std::size_t r, std::size_t c) {
    STCO_REQUIRE(r < node_->rows && c < node_->cols, "Tensor index out of bounds");
    return node_->value[r * node_->cols + c];
  }

  /// Value of a 1x1 tensor.
  double item() const;

  /// Run reverse-mode accumulation from this (must be 1x1) tensor.
  void backward() const;

  /// Clear this node's gradient (leaves keep their buffers allocated).
  void zero_grad();

  /// Internal: make an op output node wired to parents.
  static Tensor make_op(std::size_t rows, std::size_t cols,
                        std::vector<Tensor> parents,
                        std::function<void(Node&)> backward_fn);

  std::shared_ptr<Node> raw() const { return node_; }

 private:
  explicit Tensor(std::shared_ptr<Node> n) : node_(std::move(n)) {}
  std::shared_ptr<Node> node_;
};

}  // namespace stco::tensor
