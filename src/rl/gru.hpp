// Minimal GRU cell on the rt3 autodiff stack — the recurrent core of the
// RL controller (the paper's controller is "implemented based on an RNN,
// similar to [Zoph & Le 2016]").
#pragma once

#include <memory>

#include "nn/linear.hpp"
#include "nn/module.hpp"

namespace rt3 {

/// Single-layer GRU cell:
///   z = sigmoid(Wz x + Uz h)
///   r = sigmoid(Wr x + Ur h)
///   n = tanh(Wn x + Un (r * h))
///   h' = (1 - z) * h + z * n
class GruCell : public Module {
 public:
  GruCell(std::int64_t input_dim, std::int64_t hidden_dim, Rng& rng);

  /// x: [B, input_dim], h: [B, hidden_dim] -> new hidden [B, hidden_dim].
  Var forward(const Var& x, const Var& h) const;

  /// Tape-free inference step on one row, for serving: advances `h`
  /// [hidden_dim] in place from input `x` [input_dim], allocating nothing.
  /// `scratch` holds step_scratch_size() floats and must not overlap `x`
  /// or `h`.  Every float op matches forward() in value and order, so the
  /// new `h` is bitwise equal to forward() on [1, *] inputs.
  void step(const float* x, float* h, float* scratch) const;

  std::int64_t step_scratch_size() const { return 4 * hidden_dim_; }

  /// Zero initial state.
  Var initial_state(std::int64_t batch) const;

  std::int64_t hidden_dim() const { return hidden_dim_; }

  void collect_params(const std::string& prefix,
                      std::vector<NamedParam>& out) const override;

 private:
  std::int64_t hidden_dim_;
  std::unique_ptr<Linear> wz_;
  std::unique_ptr<Linear> uz_;
  std::unique_ptr<Linear> wr_;
  std::unique_ptr<Linear> ur_;
  std::unique_ptr<Linear> wn_;
  std::unique_ptr<Linear> un_;
};

}  // namespace rt3
