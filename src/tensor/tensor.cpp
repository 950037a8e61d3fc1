#include "src/tensor/tensor.hpp"

#include <algorithm>
#include <atomic>
#include <stdexcept>
#include <unordered_set>

namespace stco::tensor {

namespace {
std::atomic<std::uint64_t> g_seq{0};

std::shared_ptr<Node> new_node(std::size_t rows, std::size_t cols) {
  auto n = std::make_shared<Node>();
  n->rows = rows;
  n->cols = cols;
  n->seq = ++g_seq;
  return n;
}
}  // namespace

Tensor Tensor::full(std::size_t rows, std::size_t cols, double fill, bool requires_grad) {
  auto n = new_node(rows, cols);
  n->value.assign(rows * cols, fill);
  n->requires_grad = requires_grad;
  return Tensor(n);
}

Tensor Tensor::from_data(std::vector<double> data, std::size_t rows, std::size_t cols,
                         bool requires_grad) {
  if (!holds_shape(data.size(), rows, cols)) throw std::invalid_argument("Tensor::from_data: size");
  auto n = new_node(rows, cols);
  n->value = std::move(data);
  n->requires_grad = requires_grad;
  return Tensor(n);
}

const std::vector<double>& Tensor::grad() const {
  node_->ensure_grad();
  return node_->grad;
}

double Tensor::item() const {
  if (size() != 1) throw std::invalid_argument("Tensor::item: not scalar");
  return node_->value[0];
}

void Tensor::zero_grad() {
  if (node_) std::fill(node_->grad.begin(), node_->grad.end(), 0.0);
}

Tensor Tensor::make_op(std::size_t rows, std::size_t cols, std::vector<Tensor> parents,
                       std::function<void(Node&)> backward_fn) {
  auto n = new_node(rows, cols);
  n->value.assign(rows * cols, 0.0);
  n->requires_grad = false;
  for (const auto& p : parents) {
    if (p.defined() && p.requires_grad()) n->requires_grad = true;
    n->parents.push_back(p.raw());
  }
  if (n->requires_grad) n->backward_fn = std::move(backward_fn);
  return Tensor(n);
}

void Tensor::backward() const {
  if (!defined()) throw std::invalid_argument("backward: undefined tensor");
  if (size() != 1) throw std::invalid_argument("backward: loss must be scalar");

  // Collect the reachable subgraph (iterative DFS to avoid recursion depth
  // limits on deep GNNs), then process in descending creation order.
  std::vector<Node*> order;
  std::unordered_set<Node*> seen;
  std::vector<Node*> stack{node_.get()};
  while (!stack.empty()) {
    Node* n = stack.back();
    stack.pop_back();
    if (!n || !n->requires_grad || !seen.insert(n).second) continue;
    order.push_back(n);
    for (const auto& p : n->parents) stack.push_back(p.get());
  }
  std::sort(order.begin(), order.end(),
            [](const Node* a, const Node* b) { return a->seq > b->seq; });

  node_->ensure_grad();
  node_->grad[0] += 1.0;
  for (Node* n : order) {
    if (!n->backward_fn) continue;
    n->ensure_grad();
    for (const auto& p : n->parents)
      if (p && p->requires_grad) p->ensure_grad();
    n->backward_fn(*n);
  }
}

}  // namespace stco::tensor
