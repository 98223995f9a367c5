#include "tensor/tensor.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "common/check.hpp"

namespace rt3 {

std::int64_t Tensor::volume(const Shape& shape) {
  std::int64_t v = 1;
  for (std::int64_t d : shape) {
    check(d >= 0, "Tensor: negative dimension");
    v *= d;
  }
  return shape.empty() ? 0 : v;
}

Tensor::Tensor(Shape shape)
    : shape_(std::move(shape)),
      data_(static_cast<std::size_t>(volume(shape_)), 0.0F) {}

Tensor::Tensor(Shape shape, std::vector<float> data)
    : shape_(std::move(shape)), data_(std::move(data)) {
  check(volume(shape_) == static_cast<std::int64_t>(data_.size()),
        "Tensor: data size does not match shape volume");
}

Tensor Tensor::zeros(Shape shape) { return Tensor(std::move(shape)); }

Tensor Tensor::ones(Shape shape) { return full(std::move(shape), 1.0F); }

Tensor Tensor::full(Shape shape, float value) {
  Tensor t(std::move(shape));
  t.fill(value);
  return t;
}

Tensor Tensor::randn(Shape shape, Rng& rng, float stddev) {
  Tensor t(std::move(shape));
  for (auto& x : t.data_) {
    x = static_cast<float>(rng.normal(0.0, stddev));
  }
  return t;
}

Tensor Tensor::rand_uniform(Shape shape, Rng& rng, float lo, float hi) {
  Tensor t(std::move(shape));
  for (auto& x : t.data_) {
    x = static_cast<float>(rng.uniform(lo, hi));
  }
  return t;
}

Tensor Tensor::from_vector(const std::vector<float>& values) {
  return Tensor({static_cast<std::int64_t>(values.size())}, values);
}

Tensor Tensor::scalar(float value) { return Tensor({1}, {value}); }

std::int64_t Tensor::size(std::int64_t axis) const {
  if (axis < 0) {
    axis += dim();
  }
  check(axis >= 0 && axis < dim(), "Tensor::size: axis out of range");
  return shape_[static_cast<std::size_t>(axis)];
}

Tensor Tensor::reshaped(Shape new_shape) const {
  check(volume(new_shape) == numel(),
        "Tensor::reshaped: volume mismatch");
  return Tensor(std::move(new_shape), data_);
}

float& Tensor::operator[](std::int64_t flat) {
  check(flat >= 0 && flat < numel(), "Tensor: flat index out of range");
  return data_[static_cast<std::size_t>(flat)];
}

float Tensor::operator[](std::int64_t flat) const {
  check(flat >= 0 && flat < numel(), "Tensor: flat index out of range");
  return data_[static_cast<std::size_t>(flat)];
}

std::int64_t Tensor::flat_index(const std::vector<std::int64_t>& index) const {
  check(static_cast<std::int64_t>(index.size()) == dim(),
        "Tensor: index arity mismatch");
  std::int64_t flat = 0;
  for (std::size_t d = 0; d < index.size(); ++d) {
    check(index[d] >= 0 && index[d] < shape_[d],
          "Tensor: index out of range");
    flat = flat * shape_[d] + index[d];
  }
  return flat;
}

float& Tensor::at(const std::vector<std::int64_t>& index) {
  return data_[static_cast<std::size_t>(flat_index(index))];
}

float Tensor::at(const std::vector<std::int64_t>& index) const {
  return data_[static_cast<std::size_t>(flat_index(index))];
}

void Tensor::fill(float value) {
  std::fill(data_.begin(), data_.end(), value);
}

void Tensor::add_(const Tensor& other) {
  check(shape_ == other.shape_, "Tensor::add_: shape mismatch");
  for (std::size_t i = 0; i < data_.size(); ++i) {
    data_[i] += other.data_[i];
  }
}

void Tensor::scale_(float factor) {
  for (auto& x : data_) {
    x *= factor;
  }
}

void Tensor::add_scaled_(const Tensor& other, float factor) {
  check(shape_ == other.shape_, "Tensor::add_scaled_: shape mismatch");
  for (std::size_t i = 0; i < data_.size(); ++i) {
    data_[i] += factor * other.data_[i];
  }
}

float Tensor::sum() const {
  double acc = 0.0;
  for (float x : data_) {
    acc += x;
  }
  return static_cast<float>(acc);
}

float Tensor::mean() const {
  check(numel() > 0, "Tensor::mean of empty tensor");
  return sum() / static_cast<float>(numel());
}

float Tensor::min() const {
  check(numel() > 0, "Tensor::min of empty tensor");
  return *std::min_element(data_.begin(), data_.end());
}

float Tensor::max() const {
  check(numel() > 0, "Tensor::max of empty tensor");
  return *std::max_element(data_.begin(), data_.end());
}

float Tensor::l2_norm() const {
  double acc = 0.0;
  for (float x : data_) {
    acc += static_cast<double>(x) * static_cast<double>(x);
  }
  return static_cast<float>(std::sqrt(acc));
}

double Tensor::sparsity() const {
  if (numel() == 0) {
    return 0.0;
  }
  return 1.0 - static_cast<double>(count_nonzero()) /
                   static_cast<double>(numel());
}

std::int64_t Tensor::count_nonzero() const {
  std::int64_t n = 0;
  for (float x : data_) {
    n += (x != 0.0F) ? 1 : 0;
  }
  return n;
}

bool Tensor::allclose(const Tensor& other, float tol) const {
  if (shape_ != other.shape_) {
    return false;
  }
  for (std::size_t i = 0; i < data_.size(); ++i) {
    if (std::abs(data_[i] - other.data_[i]) > tol) {
      return false;
    }
  }
  return true;
}

std::string Tensor::to_string() const {
  std::ostringstream os;
  os << "Tensor[";
  for (std::size_t d = 0; d < shape_.size(); ++d) {
    os << shape_[d] << (d + 1 < shape_.size() ? "," : "");
  }
  os << "] {";
  const std::int64_t show = std::min<std::int64_t>(numel(), 8);
  for (std::int64_t i = 0; i < show; ++i) {
    os << data_[static_cast<std::size_t>(i)] << (i + 1 < show ? ", " : "");
  }
  if (numel() > show) {
    os << ", ...";
  }
  os << "}";
  return os.str();
}

Tensor add(const Tensor& a, const Tensor& b) {
  check(a.shape() == b.shape(), "add: shape mismatch");
  Tensor out = a;
  out.add_(b);
  return out;
}

Tensor sub(const Tensor& a, const Tensor& b) {
  check(a.shape() == b.shape(), "sub: shape mismatch");
  Tensor out = a;
  out.add_scaled_(b, -1.0F);
  return out;
}

Tensor mul(const Tensor& a, const Tensor& b) {
  check(a.shape() == b.shape(), "mul: shape mismatch");
  Tensor out = a;
  for (std::int64_t i = 0; i < out.numel(); ++i) {
    out[i] *= b[i];
  }
  return out;
}

Tensor matmul2d(const Tensor& a, const Tensor& b) {
  check(a.dim() == 2 && b.dim() == 2, "matmul2d: need 2-D operands");
  const std::int64_t m = a.size(0);
  const std::int64_t k = a.size(1);
  const std::int64_t n = b.size(1);
  check(b.size(0) == k, "matmul2d: inner dimension mismatch");
  Tensor out({m, n});
  const float* pa = a.data();
  const float* pb = b.data();
  float* po = out.data();
  for (std::int64_t i = 0; i < m; ++i) {
    matmul_row_acc(pa + i * k, pb, po + i * n, k, n);
  }
  return out;
}

void matmul_row_acc(const float* a_row, const float* b, float* out_row,
                    std::int64_t k, std::int64_t n) {
  // i-k-j loop order: streams through b row-wise, cache-friendly.
  for (std::int64_t kk = 0; kk < k; ++kk) {
    const float aik = a_row[kk];
    if (aik == 0.0F) {
      continue;  // pruned weights cost nothing, mirroring sparse execution
    }
    const float* brow = b + kk * n;
    for (std::int64_t j = 0; j < n; ++j) {
      out_row[j] += aik * brow[j];
    }
  }
}

void softmax_row_inplace(float* row, std::int64_t n) {
  float mx = row[0];
  for (std::int64_t j = 1; j < n; ++j) {
    mx = std::max(mx, row[j]);
  }
  float denom = 0.0F;
  for (std::int64_t j = 0; j < n; ++j) {
    row[j] = std::exp(row[j] - mx);
    denom += row[j];
  }
  const float inv = 1.0F / denom;
  for (std::int64_t j = 0; j < n; ++j) {
    row[j] *= inv;
  }
}

Tensor transpose2d(const Tensor& a) {
  check(a.dim() == 2, "transpose2d: need 2-D operand");
  const std::int64_t m = a.size(0);
  const std::int64_t n = a.size(1);
  Tensor out({n, m});
  for (std::int64_t i = 0; i < m; ++i) {
    for (std::int64_t j = 0; j < n; ++j) {
      out[j * m + i] = a[i * n + j];
    }
  }
  return out;
}

}  // namespace rt3
