#include "nn/linear.hpp"

#include <algorithm>
#include <cmath>

#include "common/check.hpp"
#include "tensor/tensor.hpp"

namespace rt3 {

Linear::Linear(std::int64_t in_features, std::int64_t out_features, Rng& rng,
               bool bias)
    : in_features_(in_features),
      out_features_(out_features),
      has_bias_(bias) {
  check(in_features > 0 && out_features > 0, "Linear: bad dimensions");
  // Xavier/Glorot init.
  const float bound =
      std::sqrt(6.0F / static_cast<float>(in_features + out_features));
  weight_ = Var(
      Tensor::rand_uniform({in_features, out_features}, rng, -bound, bound),
      /*requires_grad=*/true);
  bias_ = Var(Tensor::zeros({out_features}), /*requires_grad=*/true);
}

Var Linear::forward(const Var& x) const {
  const Shape in_shape = x.shape();
  check(!in_shape.empty() && in_shape.back() == in_features_,
        "Linear: input feature dimension mismatch");

  Var w = weight_;
  if (mask_.has_value()) {
    w = mul_const(weight_, *mask_);
  }

  Var x2 = x;
  const bool need_flatten = in_shape.size() != 2;
  std::int64_t rows = 1;
  for (std::size_t d = 0; d + 1 < in_shape.size(); ++d) {
    rows *= in_shape[d];
  }
  if (need_flatten) {
    x2 = reshape(x, {rows, in_features_});
  }
  Var y = matmul(x2, w);
  if (has_bias_) {
    y = add(y, bias_);
  }
  if (need_flatten) {
    Shape out_shape = in_shape;
    out_shape.back() = out_features_;
    y = reshape(y, std::move(out_shape));
  }
  return y;
}

void Linear::forward_row(const float* x, float* y) const {
  if (mask_.has_value()) {
    throw CheckError("Linear::forward_row: masked layer, use forward()");
  }
  const std::int64_t n = out_features_;
  std::fill(y, y + n, 0.0F);
  matmul_row_acc(x, weight_.value().data(), y, in_features_, n);
  if (has_bias_) {
    const float* b = bias_.value().data();
    for (std::int64_t j = 0; j < n; ++j) {
      y[j] += b[j];
    }
  }
}

void Linear::collect_params(const std::string& prefix,
                            std::vector<NamedParam>& out) const {
  out.push_back({prefix + "weight", weight_});
  if (has_bias_) {
    out.push_back({prefix + "bias", bias_});
  }
}

// Forward-time masking only: the underlying weight values stay resident so
// a different pattern set can re-expose them (RT3's lightweight switch).
// Call apply_mask_to_weights() explicitly to hard-zero, e.g. when exporting
// a backbone.
void Linear::set_mask(const Tensor& mask) {
  check(mask.shape() == weight_.shape(), "Linear::set_mask: shape mismatch");
  // A branch-free count, so the scan vectorizes: it runs on every
  // ReconfigEngine switch.
  std::int64_t non_binary = 0;
  for (const float m : mask.vec()) {
    non_binary += static_cast<std::int64_t>((m != 0.0F) & (m != 1.0F));
  }
  check(non_binary == 0, "Linear::set_mask: mask must be binary");
  // An engaged optional copy-assigns its Tensor, whose vectors keep their
  // buffers: every installed mask has the weight's shape.
  mask_ = mask;
}

void Linear::clear_mask() { mask_.reset(); }

const Tensor& Linear::mask() const {
  check(mask_.has_value(), "Linear::mask: no mask installed");
  return *mask_;
}

double Linear::mask_sparsity() const {
  if (!mask_.has_value()) {
    return 0.0;
  }
  return mask_->sparsity();
}

void Linear::apply_mask_to_weights() {
  if (!mask_.has_value()) {
    return;
  }
  Tensor& w = weight_.mutable_value();
  for (std::int64_t i = 0; i < w.numel(); ++i) {
    w[i] *= (*mask_)[i];
  }
}

}  // namespace rt3
