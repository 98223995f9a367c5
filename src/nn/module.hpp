// Parameter registry shared by all neural modules.
//
// Modules expose their leaf parameters as (name, Var) pairs so optimizers,
// the pruning passes and the serializer can address weights by stable
// hierarchical names ("encoder.0.attn.wq.weight", ...).
#pragma once

#include <string>
#include <vector>

#include "tensor/var.hpp"

namespace rt3 {

/// A named leaf parameter.
struct NamedParam {
  std::string name;
  Var param;
};

/// Base for modules that own parameters.
class Module {
 public:
  virtual ~Module() = default;

  /// Appends all leaf parameters, names prefixed with `prefix`.
  virtual void collect_params(const std::string& prefix,
                              std::vector<NamedParam>& out) const = 0;

  /// Convenience: all parameters as a flat Var list (for optimizers).
  std::vector<Var> parameters() const {
    std::vector<NamedParam> named;
    collect_params("", named);
    std::vector<Var> out;
    out.reserve(named.size());
    for (auto& np : named) {
      out.push_back(np.param);
    }
    return out;
  }

  /// Convenience: named parameters rooted at `prefix`.
  std::vector<NamedParam> named_parameters(
      const std::string& prefix = "") const {
    std::vector<NamedParam> out;
    collect_params(prefix, out);
    return out;
  }

  /// Total scalar parameter count.
  std::int64_t num_params() const {
    std::int64_t n = 0;
    for (const auto& p : parameters()) {
      n += p.numel();
    }
    return n;
  }
};

}  // namespace rt3
