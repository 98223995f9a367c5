#include "tensor/var.hpp"

#include <algorithm>
#include <unordered_set>

#include "common/check.hpp"

namespace rt3 {

namespace detail {

struct Node {
  Tensor value;
  Tensor grad;  // allocated lazily on first accumulation
  bool grad_allocated = false;
  bool requires_grad = false;
  std::vector<Var> parents;
  std::function<void(const Tensor& grad, std::vector<Var>& parents)>
      backward_fn;
};

}  // namespace detail

Var::Var(Tensor value, bool requires_grad) {
  node_ = std::make_shared<detail::Node>();
  node_->value = std::move(value);
  node_->requires_grad = requires_grad;
}

const Tensor& Var::value() const {
  check(defined(), "Var: use of null handle");
  return node_->value;
}

Tensor& Var::mutable_value() {
  check(defined(), "Var: use of null handle");
  return node_->value;
}

const Tensor& Var::grad() const {
  check(defined(), "Var: use of null handle");
  check(node_->grad_allocated, "Var::grad: no gradient accumulated yet");
  return node_->grad;
}

bool Var::requires_grad() const {
  check(defined(), "Var: use of null handle");
  return node_->requires_grad;
}

void Var::zero_grad() {
  check(defined(), "Var: use of null handle");
  if (node_->grad_allocated) {
    node_->grad.fill(0.0F);
  }
}

float Var::item() const {
  check(value().numel() == 1, "Var::item: not a scalar");
  return value()[0];
}

void Var::accumulate_grad(const Tensor& g) {
  check(defined(), "Var: use of null handle");
  check(g.shape() == node_->value.shape(),
        "accumulate_grad: gradient shape mismatch");
  if (!node_->grad_allocated) {
    node_->grad = Tensor(node_->value.shape());
    node_->grad_allocated = true;
  }
  node_->grad.add_(g);
}

Var Var::make_op(Tensor value, std::vector<Var> parents,
                 std::function<void(const Tensor& grad,
                                    std::vector<Var>& parents)>
                     backward_fn) {
  Var out(std::move(value), false);
  bool any_grad = false;
  for (const auto& p : parents) {
    check(p.defined(), "make_op: null parent");
    any_grad =
        any_grad || p.node()->requires_grad || !p.node()->parents.empty();
  }
  if (any_grad) {
    out.node_->parents = std::move(parents);
    out.node_->backward_fn = std::move(backward_fn);
  }
  return out;
}

void Var::backward() {
  check(defined(), "Var::backward: null handle");
  check(value().numel() == 1, "Var::backward: root must be scalar");

  // Topological order via iterative post-order DFS over parents.  The
  // visit ORDER comes from the deterministic parents vectors; the hash
  // set only answers membership, so hash/pointer order never reaches
  // `order`.
  std::vector<detail::Node*> order;
  // rt3-lint: allow(hash-order) membership-only set, never iterated
  std::unordered_set<detail::Node*> visited;
  std::vector<std::pair<detail::Node*, std::size_t>> stack;
  stack.emplace_back(node_.get(), 0);
  visited.insert(node_.get());
  while (!stack.empty()) {
    auto& [node, next_child] = stack.back();
    if (next_child < node->parents.size()) {
      detail::Node* child = node->parents[next_child].node();
      ++next_child;
      if (visited.insert(child).second) {
        stack.emplace_back(child, 0);
      }
    } else {
      order.push_back(node);
      stack.pop_back();
    }
  }
  // order is post-order: parents before children; reverse for root-first.
  std::reverse(order.begin(), order.end());

  accumulate_grad(Tensor::scalar(1.0F));
  for (detail::Node* node : order) {
    if (!node->backward_fn || !node->grad_allocated) {
      continue;
    }
    node->backward_fn(node->grad, node->parents);
  }
}

}  // namespace rt3
