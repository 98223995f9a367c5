// Patterns and pattern sets — the unit of software reconfiguration in RT3.
//
// A Pattern is a psize x psize binary mask.  A PatternSet is a small
// library of m patterns sharing one sparsity ratio; at run time every
// psize x psize block of a weight matrix is assigned one pattern from the
// active set.  Switching V/F level swaps the active PatternSet only — the
// backbone weights stay resident — which is why the paper's switch cost is
// milliseconds instead of the minute-scale full-model reload.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "tensor/tensor.hpp"

namespace rt3 {

/// A square binary mask of side `psize`.
class Pattern {
 public:
  Pattern(std::int64_t psize, std::vector<std::uint8_t> bits);

  /// All-ones (dense) pattern.
  static Pattern dense(std::int64_t psize);

  /// Builds a pattern keeping exactly `kept` positions: the `kept` largest
  /// entries of the importance map (ties broken by index).
  static Pattern from_importance(const Tensor& importance, std::int64_t kept);

  std::int64_t psize() const { return psize_; }
  bool kept(std::int64_t r, std::int64_t c) const;
  std::int64_t count_kept() const;
  double sparsity() const;

  const std::vector<std::uint8_t>& bits() const { return bits_; }

  /// Row-major flat indices of the kept cells, ascending — the kept-index
  /// list a kernel plan precompiles once per pattern instead of re-testing
  /// bits per tile at execution time.
  std::vector<std::int64_t> kept_indices() const;

  /// Binary mask as a psize x psize tensor of 0/1.
  Tensor to_mask() const;

  /// Retained L2 energy of a block under this pattern (sum of squares of
  /// kept entries) — the selection criterion for per-block assignment.
  double retained_l2(const Tensor& block) const;

  /// Fraction of positions where two patterns agree (for the Fig. 4
  /// similarity observation).
  double overlap(const Pattern& other) const;

  /// ASCII art (one char per cell) for visualization benches.
  std::string to_ascii() const;

  bool operator==(const Pattern& other) const = default;

 private:
  std::int64_t psize_;
  std::vector<std::uint8_t> bits_;  // row-major 0/1
};

/// A library of patterns with one common sparsity ratio, used for one V/F
/// level.
struct PatternSet {
  std::vector<Pattern> patterns;
  /// Nominal sparsity of the set (every member has the same kept count).
  double sparsity() const;
  std::int64_t psize() const;
  /// Transfer size of the set during a reconfiguration switch: packed
  /// bitmaps (psize^2 / 8 bytes per pattern).
  std::int64_t storage_bytes() const;
};

/// The paper's Level-2 pattern choice, the one implementation behind the
/// pruning masks, PatternMaskedMatrix and the kernel plans: for every
/// psize x psize tile of a 2-D `weight`, tile-major, the index of the
/// set's pattern with the largest retained L2 (Pattern::retained_l2's
/// sum, in its order).  Ties go to the lowest index; a ragged edge tile
/// scores as if zero-padded, so dimensions need not be multiples of
/// psize.  Reads the weight in place; the result is the only allocation.
std::vector<std::int32_t> choose_tile_patterns(const Tensor& weight,
                                               const PatternSet& set);

}  // namespace rt3
