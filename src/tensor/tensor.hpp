// Dense row-major float tensor.
//
// rt3's training stack (Transformer models, joint pattern-set training,
// the RNN RL controller) is built on this value type plus the tape
// autodiff in var.hpp.  Everything is float32 and contiguous; shapes are
// signed per Core Guidelines ES.107.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.hpp"

namespace rt3 {

/// Shape of a tensor: sizes per dimension, outermost first.
using Shape = std::vector<std::int64_t>;

/// Contiguous row-major float32 tensor with value semantics.
class Tensor {
 public:
  /// Empty 0-d tensor (numel 0).
  Tensor() = default;

  /// Zero-initialized tensor of the given shape.
  explicit Tensor(Shape shape);

  /// Tensor with explicit contents; data.size() must equal the shape volume.
  Tensor(Shape shape, std::vector<float> data);

  /// --- factories -------------------------------------------------------
  static Tensor zeros(Shape shape);
  static Tensor ones(Shape shape);
  static Tensor full(Shape shape, float value);
  /// i.i.d. N(0, stddev^2).
  static Tensor randn(Shape shape, Rng& rng, float stddev = 1.0F);
  /// Uniform in [lo, hi).
  static Tensor rand_uniform(Shape shape, Rng& rng, float lo, float hi);
  /// 1-D tensor from values.
  static Tensor from_vector(const std::vector<float>& values);
  /// Scalar (shape {1}).
  static Tensor scalar(float value);

  /// --- structure -------------------------------------------------------
  const Shape& shape() const { return shape_; }
  std::int64_t dim() const { return static_cast<std::int64_t>(shape_.size()); }
  std::int64_t size(std::int64_t axis) const;
  std::int64_t numel() const { return static_cast<std::int64_t>(data_.size()); }

  /// Returns a copy with a new shape of identical volume.
  Tensor reshaped(Shape new_shape) const;

  /// --- element access --------------------------------------------------
  float* data() { return data_.data(); }
  const float* data() const { return data_.data(); }
  std::vector<float>& vec() { return data_; }
  const std::vector<float>& vec() const { return data_; }

  float& operator[](std::int64_t flat_index);
  float operator[](std::int64_t flat_index) const;

  /// Multi-dimensional access (bounds-checked).
  float& at(const std::vector<std::int64_t>& index);
  float at(const std::vector<std::int64_t>& index) const;

  /// Row-major flat offset of a multi-index.
  std::int64_t flat_index(const std::vector<std::int64_t>& index) const;

  /// --- in-place --------------------------------------------------------
  void fill(float value);
  void add_(const Tensor& other);             // this += other
  void scale_(float factor);                  // this *= factor
  void add_scaled_(const Tensor& other, float factor);  // this += f * other

  /// --- reductions / norms ----------------------------------------------
  float sum() const;
  float mean() const;
  float min() const;
  float max() const;
  float l2_norm() const;
  /// Fraction of exactly-zero entries.
  double sparsity() const;
  std::int64_t count_nonzero() const;

  /// True if shapes are equal and all entries differ by at most `tol`.
  bool allclose(const Tensor& other, float tol = 1e-5F) const;

  /// Debug rendering ("Tensor[2,3] {…}"), truncated for large tensors.
  std::string to_string() const;

  /// Volume of a shape (product of dims; 1 for the empty shape => scalar-ish
  /// semantics are NOT used: empty shape means 0 elements).
  static std::int64_t volume(const Shape& shape);

 private:
  Shape shape_;
  std::vector<float> data_;
};

/// --- free-function arithmetic on raw tensors (no autodiff) --------------
/// Elementwise with equal shapes.
Tensor add(const Tensor& a, const Tensor& b);
Tensor sub(const Tensor& a, const Tensor& b);
Tensor mul(const Tensor& a, const Tensor& b);

/// 2-D matrix product: [M,K] x [K,N] -> [M,N].
Tensor matmul2d(const Tensor& a, const Tensor& b);

/// One output row of matmul2d: out_row[n] += a_row[k] @ b[k,n], skipping
/// zero a_row entries.  matmul2d runs it per row on a zeroed output;
/// tape-free inference calls it directly so both produce the same bits.
void matmul_row_acc(const float* a_row, const float* b, float* out_row,
                    std::int64_t k, std::int64_t n);

/// Transpose of a 2-D tensor.
Tensor transpose2d(const Tensor& a);

/// In-place max-subtracted softmax of one row of n >= 1 floats: the row
/// kernel of softmax_lastdim / log_softmax_lastdim, shared with tape-free
/// inference so both produce the same bits.
void softmax_row_inplace(float* row, std::int64_t n);

}  // namespace rt3
