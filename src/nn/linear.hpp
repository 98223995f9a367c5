// Fully-connected layer with optional pruning mask.
//
// The mask is the central hook for RT3: block-structured pruning (Level 1)
// installs a fixed backbone mask; pattern pruning (Level 2) composes a
// per-V/F-level pattern mask on top.  Masked entries are forced to zero in
// the forward pass and receive no gradient, so fine-tuning never resurrects
// a pruned weight.
#pragma once

#include <optional>
#include <string>

#include "common/rng.hpp"
#include "nn/module.hpp"
#include "tensor/var.hpp"

namespace rt3 {

/// y = x @ W + b with W: [in_features, out_features].
/// Accepts inputs of shape [..., in_features]; leading dims are flattened
/// and restored.
class Linear : public Module {
 public:
  Linear(std::int64_t in_features, std::int64_t out_features, Rng& rng,
         bool bias = true);

  Var forward(const Var& x) const;

  /// Tape-free inference on one input row: y[out_features] = x @ W + b,
  /// reading the live weights in place with no allocation.  It runs
  /// matmul2d's own row kernel (matmul_row_acc) then + bias, so y is
  /// bitwise equal to forward() on a [1, in_features] input.  `y` must not
  /// overlap `x`.  Throws CheckError when a mask is installed.
  void forward_row(const float* x, float* y) const;

  void collect_params(const std::string& prefix,
                      std::vector<NamedParam>& out) const override;

  std::int64_t in_features() const { return in_features_; }
  std::int64_t out_features() const { return out_features_; }

  Var& weight() { return weight_; }
  const Var& weight() const { return weight_; }
  Var& bias() { return bias_; }

  /// Installs (replaces) the pruning mask; shape must equal the weight's
  /// and every entry must be 0 or 1.  Masking is forward-time only: weight
  /// values stay resident so another pattern set can re-expose them (the
  /// RT3 switch semantics).  Copies into the installed mask's storage when
  /// one is present, so re-installing a stored mask allocates nothing (the
  /// ReconfigEngine switch path).
  void set_mask(const Tensor& mask);

  /// Removes the mask (dense layer again).
  void clear_mask();

  bool has_mask() const { return mask_.has_value(); }
  const Tensor& mask() const;

  /// Fraction of weight entries currently masked to zero (0 when dense).
  double mask_sparsity() const;

  /// Re-applies the mask to the weight values (used after optimizer steps
  /// in contexts that bypass forward-mask semantics, e.g. export).
  void apply_mask_to_weights();

 private:
  std::int64_t in_features_;
  std::int64_t out_features_;
  Var weight_;
  Var bias_;
  bool has_bias_;
  std::optional<Tensor> mask_;
};

}  // namespace rt3
