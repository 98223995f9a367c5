#include "sparse/pattern.hpp"

#include <algorithm>
#include <numeric>
#include <sstream>

#include "common/check.hpp"

namespace rt3 {

Pattern::Pattern(std::int64_t psize, std::vector<std::uint8_t> bits)
    : psize_(psize), bits_(std::move(bits)) {
  check(psize > 0, "Pattern: psize must be positive");
  check(static_cast<std::int64_t>(bits_.size()) == psize * psize,
        "Pattern: bits size mismatch");
  for (auto b : bits_) {
    check(b == 0 || b == 1, "Pattern: bits must be 0/1");
  }
}

Pattern Pattern::dense(std::int64_t psize) {
  return Pattern(psize,
                 std::vector<std::uint8_t>(
                     static_cast<std::size_t>(psize * psize), 1));
}

Pattern Pattern::from_importance(const Tensor& importance, std::int64_t kept) {
  check(importance.dim() == 2 && importance.size(0) == importance.size(1),
        "Pattern::from_importance: need square importance map");
  const std::int64_t psize = importance.size(0);
  const std::int64_t total = psize * psize;
  check(kept >= 0 && kept <= total,
        "Pattern::from_importance: kept out of range");
  std::vector<std::int64_t> order(static_cast<std::size_t>(total));
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(),
                   [&](std::int64_t a, std::int64_t b) {
                     return importance[a] > importance[b];
                   });
  std::vector<std::uint8_t> bits(static_cast<std::size_t>(total), 0);
  for (std::int64_t k = 0; k < kept; ++k) {
    bits[static_cast<std::size_t>(order[static_cast<std::size_t>(k)])] = 1;
  }
  return Pattern(psize, std::move(bits));
}

bool Pattern::kept(std::int64_t r, std::int64_t c) const {
  check(r >= 0 && r < psize_ && c >= 0 && c < psize_,
        "Pattern::kept: out of range");
  return bits_[static_cast<std::size_t>(r * psize_ + c)] != 0;
}

std::int64_t Pattern::count_kept() const {
  std::int64_t n = 0;
  for (auto b : bits_) {
    n += b;
  }
  return n;
}

double Pattern::sparsity() const {
  return 1.0 - static_cast<double>(count_kept()) /
                   static_cast<double>(psize_ * psize_);
}

std::vector<std::int64_t> Pattern::kept_indices() const {
  std::vector<std::int64_t> idx;
  idx.reserve(static_cast<std::size_t>(count_kept()));
  for (std::size_t i = 0; i < bits_.size(); ++i) {
    if (bits_[i] != 0) {
      idx.push_back(static_cast<std::int64_t>(i));
    }
  }
  return idx;
}

Tensor Pattern::to_mask() const {
  Tensor mask({psize_, psize_});
  for (std::int64_t i = 0; i < psize_ * psize_; ++i) {
    mask[i] = static_cast<float>(bits_[static_cast<std::size_t>(i)]);
  }
  return mask;
}

double Pattern::retained_l2(const Tensor& block) const {
  check(block.dim() == 2 && block.size(0) == psize_ && block.size(1) == psize_,
        "Pattern::retained_l2: block shape mismatch");
  double acc = 0.0;
  for (std::int64_t i = 0; i < psize_ * psize_; ++i) {
    if (bits_[static_cast<std::size_t>(i)] != 0) {
      acc += static_cast<double>(block[i]) * block[i];
    }
  }
  return acc;
}

double Pattern::overlap(const Pattern& other) const {
  check(psize_ == other.psize_, "Pattern::overlap: psize mismatch");
  std::int64_t agree = 0;
  for (std::size_t i = 0; i < bits_.size(); ++i) {
    agree += (bits_[i] == other.bits_[i]) ? 1 : 0;
  }
  return static_cast<double>(agree) / static_cast<double>(bits_.size());
}

std::string Pattern::to_ascii() const {
  std::ostringstream os;
  for (std::int64_t r = 0; r < psize_; ++r) {
    for (std::int64_t c = 0; c < psize_; ++c) {
      os << (kept(r, c) ? '#' : '.');
    }
    os << '\n';
  }
  return os.str();
}

double PatternSet::sparsity() const {
  check(!patterns.empty(), "PatternSet::sparsity: empty set");
  return patterns.front().sparsity();
}

std::int64_t PatternSet::psize() const {
  check(!patterns.empty(), "PatternSet::psize: empty set");
  return patterns.front().psize();
}

std::int64_t PatternSet::storage_bytes() const {
  if (patterns.empty()) {
    return 0;
  }
  const std::int64_t p = psize();
  const std::int64_t bits_per_pattern = p * p;
  return static_cast<std::int64_t>(patterns.size()) *
         ((bits_per_pattern + 7) / 8);
}

std::vector<std::int32_t> choose_tile_patterns(const Tensor& weight,
                                               const PatternSet& set) {
  check(weight.dim() == 2, "choose_tile_patterns: need a 2-D weight");
  const std::int64_t p = set.psize();  // throws on an empty set
  for (const Pattern& pat : set.patterns) {
    check(pat.psize() == p, "choose_tile_patterns: patterns differ in psize");
  }
  const std::int64_t rows = weight.size(0);
  const std::int64_t cols = weight.size(1);
  const std::int64_t tiles_r = (rows + p - 1) / p;
  const std::int64_t tiles_c = (cols + p - 1) / p;
  std::vector<std::int32_t> choice;
  choice.reserve(static_cast<std::size_t>(tiles_r * tiles_c));
  for (std::int64_t tr = 0; tr < tiles_r; ++tr) {
    for (std::int64_t tc = 0; tc < tiles_c; ++tc) {
      const std::int64_t rmax = std::min(p, rows - tr * p);
      const std::int64_t cmax = std::min(p, cols - tc * p);
      const float* tile = weight.data() + tr * p * cols + tc * p;
      std::size_t best = 0;
      double best_l2 = -1.0;
      for (std::size_t pi = 0; pi < set.patterns.size(); ++pi) {
        // Kept cells in ascending flat order, as retained_l2 sums them;
        // the padding's cells would add +0 and are skipped.
        const std::uint8_t* bits = set.patterns[pi].bits().data();
        double l2 = 0.0;
        for (std::int64_t r = 0; r < rmax; ++r) {
          for (std::int64_t c = 0; c < cmax; ++c) {
            if (bits[r * p + c] != 0) {
              const double v = tile[r * cols + c];
              l2 += v * v;
            }
          }
        }
        if (l2 > best_l2) {
          best_l2 = l2;
          best = pi;
        }
      }
      choice.push_back(static_cast<std::int32_t>(best));
    }
  }
  return choice;
}

}  // namespace rt3
