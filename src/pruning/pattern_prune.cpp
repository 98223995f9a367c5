#include "pruning/pattern_prune.hpp"

#include <algorithm>
#include <cmath>

#include "common/check.hpp"

namespace rt3 {

std::int64_t kept_for_sparsity(std::int64_t psize, double sparsity) {
  check(sparsity >= 0.0 && sparsity <= 1.0,
        "kept_for_sparsity: sparsity out of range");
  const std::int64_t total = psize * psize;
  // Round kept DOWN (with an epsilon for exact ratios) so the realized
  // pattern sparsity never undershoots the requested one — undershooting
  // would break latency guarantees derived from the request.
  const auto kept = static_cast<std::int64_t>(
      std::floor((1.0 - sparsity) * static_cast<double>(total) + 1e-9));
  return std::clamp<std::int64_t>(kept, 1, total);
}

Tensor pattern_importance_map(const Tensor& backbone, std::int64_t psize,
                              std::int64_t sample_tiles, Rng& rng) {
  check(backbone.dim() == 2, "pattern_importance_map: need 2-D backbone");
  const std::int64_t rows = backbone.size(0);
  const std::int64_t cols = backbone.size(1);
  check(rows % psize == 0 && cols % psize == 0,
        "pattern_importance_map: dims must be multiples of psize");
  const std::int64_t tiles_r = rows / psize;
  const std::int64_t tiles_c = cols / psize;
  const std::int64_t total_tiles = tiles_r * tiles_c;
  check(sample_tiles > 0, "pattern_importance_map: need positive samples");
  const std::int64_t n_sample = std::min(sample_tiles, total_tiles);

  const auto chosen = rng.sample_without_replacement(total_tiles, n_sample);
  Tensor importance({psize, psize});
  for (std::int64_t t : chosen) {
    const std::int64_t tr = t / tiles_c;
    const std::int64_t tc = t % tiles_c;
    for (std::int64_t r = 0; r < psize; ++r) {
      for (std::int64_t c = 0; c < psize; ++c) {
        importance[r * psize + c] += std::abs(
            backbone[(tr * psize + r) * cols + tc * psize + c]);
      }
    }
  }
  return importance;
}

PatternSet build_pattern_set(const Tensor& backbone, std::int64_t psize,
                             double sparsity, std::int64_t m, Rng& rng) {
  check(m >= 1, "build_pattern_set: need at least one pattern");
  const std::int64_t rows = backbone.size(0);
  const std::int64_t cols = backbone.size(1);
  const std::int64_t total_tiles = (rows / psize) * (cols / psize);
  // Paper: sample n/2 of the n blocks per constructed pattern.
  const std::int64_t sample_tiles = std::max<std::int64_t>(1, total_tiles / 2);
  const std::int64_t kept = kept_for_sparsity(psize, sparsity);

  PatternSet set;
  set.patterns.reserve(static_cast<std::size_t>(m));
  for (std::int64_t i = 0; i < m; ++i) {
    const Tensor imp =
        pattern_importance_map(backbone, psize, sample_tiles, rng);
    Pattern p = Pattern::from_importance(imp, kept);
    // Distinct tile samples usually give distinct patterns; if a duplicate
    // appears (tiny matrices), nudge by re-sampling once.
    if (std::find(set.patterns.begin(), set.patterns.end(), p) !=
        set.patterns.end()) {
      const Tensor imp2 =
          pattern_importance_map(backbone, psize, sample_tiles, rng);
      p = Pattern::from_importance(imp2, kept);
    }
    set.patterns.push_back(std::move(p));
  }
  return set;
}

PatternSet random_pattern_set(std::int64_t psize, double sparsity,
                              std::int64_t m, Rng& rng) {
  check(m >= 1, "random_pattern_set: need at least one pattern");
  const std::int64_t total = psize * psize;
  const std::int64_t kept = kept_for_sparsity(psize, sparsity);
  PatternSet set;
  set.patterns.reserve(static_cast<std::size_t>(m));
  for (std::int64_t i = 0; i < m; ++i) {
    const auto keep_idx = rng.sample_without_replacement(total, kept);
    std::vector<std::uint8_t> bits(static_cast<std::size_t>(total), 0);
    for (std::int64_t k : keep_idx) {
      bits[static_cast<std::size_t>(k)] = 1;
    }
    set.patterns.emplace_back(psize, std::move(bits));
  }
  return set;
}

Tensor pattern_mask_for_weight(const Tensor& weight, const PatternSet& set) {
  const std::vector<std::int32_t> choice = choose_tile_patterns(weight, set);
  const std::int64_t psize = set.psize();
  const std::int64_t cols = weight.size(1);
  check(weight.size(0) % psize == 0 && cols % psize == 0,
        "pattern_mask_for_weight: dims must be multiples of psize");
  Tensor mask(weight.shape());
  const std::int64_t tiles_c = cols / psize;
  for (std::size_t t = 0; t < choice.size(); ++t) {
    const std::int64_t tr = static_cast<std::int64_t>(t) / tiles_c;
    const std::int64_t tc = static_cast<std::int64_t>(t) % tiles_c;
    const Pattern& pat = set.patterns[static_cast<std::size_t>(choice[t])];
    for (std::int64_t r = 0; r < psize; ++r) {
      for (std::int64_t c = 0; c < psize; ++c) {
        mask[(tr * psize + r) * cols + tc * psize + c] =
            pat.kept(r, c) ? 1.0F : 0.0F;
      }
    }
  }
  return mask;
}

}  // namespace rt3
