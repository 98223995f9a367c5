// Level-2 pattern pruning: importance-guided pattern-set construction
// (paper component #3) and per-weight pattern mask application, plus the
// random baseline rPP (Table IV).
#pragma once

#include <cstdint>
#include <vector>

#include "common/rng.hpp"
#include "sparse/pattern.hpp"
#include "tensor/tensor.hpp"

namespace rt3 {

/// Importance map for pattern construction: samples `sample_tiles` of the
/// backbone's psize x psize tiles and point-wise accumulates |w| — the
/// paper samples n/2 of the n blocks and adds them position-wise.
Tensor pattern_importance_map(const Tensor& backbone, std::int64_t psize,
                              std::int64_t sample_tiles, Rng& rng);

/// Builds one pattern set of `m` patterns at the given sparsity, each from
/// an independent tile sample of the backbone (so members differ but share
/// the backbone's important positions).
PatternSet build_pattern_set(const Tensor& backbone, std::int64_t psize,
                             double sparsity, std::int64_t m, Rng& rng);

/// Random baseline (rPP): patterns with the same kept count but uniformly
/// random positions.
PatternSet random_pattern_set(std::int64_t psize, double sparsity,
                              std::int64_t m, Rng& rng);

/// Full binary mask for a weight matrix under a pattern set: every tile is
/// assigned the set's pattern with maximal retained l2 (paper Fig. 2 rule,
/// choose_tile_patterns).  Weight dims must be multiples of psize.
Tensor pattern_mask_for_weight(const Tensor& weight, const PatternSet& set);

/// Number of kept positions for a pattern of side `psize` at `sparsity`
/// (rounded, clamped to [1, psize^2]).
std::int64_t kept_for_sparsity(std::int64_t psize, double sparsity);

}  // namespace rt3
