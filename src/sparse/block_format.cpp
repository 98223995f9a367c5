#include "sparse/block_format.hpp"

#include <utility>

#include "common/check.hpp"

namespace rt3 {

BlockPrunedMatrix BlockPrunedMatrix::from_dense(const Tensor& dense,
                                                std::int64_t num_blocks) {
  check(dense.dim() == 2, "BlockPrunedMatrix: need 2-D");
  const std::int64_t rows = dense.size(0);
  const std::int64_t cols = dense.size(1);
  check(num_blocks > 0 && rows % num_blocks == 0,
        "BlockPrunedMatrix: rows must divide evenly into blocks");
  BlockPrunedMatrix out(rows, cols);
  out.block_rows_ = rows / num_blocks;
  out.kept_cols_.resize(static_cast<std::size_t>(num_blocks));
  out.values_.resize(static_cast<std::size_t>(num_blocks));

  for (std::int64_t b = 0; b < num_blocks; ++b) {
    const std::int64_t r0 = b * out.block_rows_;
    auto& kept = out.kept_cols_[static_cast<std::size_t>(b)];
    for (std::int64_t c = 0; c < cols; ++c) {
      bool any = false;
      for (std::int64_t r = r0; r < r0 + out.block_rows_ && !any; ++r) {
        any = dense[r * cols + c] != 0.0F;
      }
      if (any) {
        kept.push_back(c);
      }
    }
    auto& vals = out.values_[static_cast<std::size_t>(b)];
    vals.reserve(static_cast<std::size_t>(
        out.block_rows_ * static_cast<std::int64_t>(kept.size())));
    for (std::int64_t r = r0; r < r0 + out.block_rows_; ++r) {
      for (std::int64_t c : kept) {
        vals.push_back(dense[r * cols + c]);
      }
    }
  }
  return out;
}

Tensor BlockPrunedMatrix::to_dense() const {
  Tensor out({rows_, cols_});
  for (std::size_t b = 0; b < kept_cols_.size(); ++b) {
    const std::int64_t r0 = static_cast<std::int64_t>(b) * block_rows_;
    const auto& kept = kept_cols_[b];
    const auto& vals = values_[b];
    const std::int64_t k = static_cast<std::int64_t>(kept.size());
    for (std::int64_t r = 0; r < block_rows_; ++r) {
      for (std::int64_t ci = 0; ci < k; ++ci) {
        out[(r0 + r) * cols_ + kept[static_cast<std::size_t>(ci)]] =
            vals[static_cast<std::size_t>(r * k + ci)];
      }
    }
  }
  return out;
}

const std::vector<std::int64_t>& BlockPrunedMatrix::kept_cols(
    std::int64_t block) const {
  check(block >= 0 && block < num_blocks(),
        "BlockPrunedMatrix::kept_cols: block out of range");
  return kept_cols_[static_cast<std::size_t>(block)];
}

const std::vector<float>& BlockPrunedMatrix::block_values(
    std::int64_t block) const {
  check(block >= 0 && block < num_blocks(),
        "BlockPrunedMatrix::block_values: block out of range");
  return values_[static_cast<std::size_t>(block)];
}

Tensor BlockPrunedMatrix::multiply(const Tensor& dense) const {
  check(dense.dim() == 2 && dense.size(0) == cols_,
        "BlockPrunedMatrix::multiply: shape mismatch");
  const std::int64_t n = dense.size(1);
  Tensor out({rows_, n});
  for (std::size_t b = 0; b < kept_cols_.size(); ++b) {
    const std::int64_t r0 = static_cast<std::int64_t>(b) * block_rows_;
    const auto& kept = kept_cols_[b];
    const auto& vals = values_[b];
    const std::int64_t k = static_cast<std::int64_t>(kept.size());
    for (std::int64_t r = 0; r < block_rows_; ++r) {
      float* orow = out.data() + (r0 + r) * n;
      for (std::int64_t ci = 0; ci < k; ++ci) {
        const float v = vals[static_cast<std::size_t>(r * k + ci)];
        if (v == 0.0F) {
          continue;
        }
        const float* brow =
            dense.data() + kept[static_cast<std::size_t>(ci)] * n;
        for (std::int64_t j = 0; j < n; ++j) {
          orow[j] += v * brow[j];
        }
      }
    }
  }
  return out;
}

std::int64_t BlockPrunedMatrix::nnz_values() const {
  std::int64_t n = 0;
  for (const auto& vals : values_) {
    n += static_cast<std::int64_t>(vals.size());
  }
  return n;
}

double BlockPrunedMatrix::sparsity() const {
  return 1.0 - static_cast<double>(nnz_values()) /
                   static_cast<double>(rows_ * cols_);
}

std::int64_t BlockPrunedMatrix::storage_bytes() const {
  std::int64_t bytes = 0;
  for (std::size_t b = 0; b < kept_cols_.size(); ++b) {
    bytes += static_cast<std::int64_t>(values_[b].size()) * 4;
    bytes += static_cast<std::int64_t>(kept_cols_[b].size()) * 4;
  }
  return bytes;
}

PatternMaskedMatrix PatternMaskedMatrix::from_dense(const Tensor& dense,
                                                    const PatternSet& set) {
  std::vector<std::int32_t> choice = choose_tile_patterns(dense, set);
  const std::int64_t psize = set.psize();
  const std::int64_t rows = dense.size(0);
  const std::int64_t cols = dense.size(1);
  check(rows % psize == 0 && cols % psize == 0,
        "PatternMaskedMatrix: dims must be multiples of psize");

  PatternMaskedMatrix out(rows, cols, psize);
  out.set_ = set;
  const std::int64_t tiles_c = cols / psize;
  for (std::size_t t = 0; t < choice.size(); ++t) {
    const std::int64_t tr = static_cast<std::int64_t>(t) / tiles_c;
    const std::int64_t tc = static_cast<std::int64_t>(t) % tiles_c;
    const Pattern& pat = set.patterns[static_cast<std::size_t>(choice[t])];
    for (std::int64_t r = 0; r < psize; ++r) {
      for (std::int64_t c = 0; c < psize; ++c) {
        if (pat.kept(r, c)) {
          out.values_.push_back(
              dense[(tr * psize + r) * cols + tc * psize + c]);
        }
      }
    }
  }
  out.assignment_ = std::move(choice);
  return out;
}

Tensor PatternMaskedMatrix::to_dense() const {
  Tensor out({rows_, cols_});
  const std::int64_t tiles_c = cols_ / psize_;
  std::size_t vi = 0;
  for (std::size_t t = 0; t < assignment_.size(); ++t) {
    const std::int64_t tr = static_cast<std::int64_t>(t) / tiles_c;
    const std::int64_t tc = static_cast<std::int64_t>(t) % tiles_c;
    const Pattern& pat =
        set_.patterns[static_cast<std::size_t>(assignment_[t])];
    for (std::int64_t r = 0; r < psize_; ++r) {
      for (std::int64_t c = 0; c < psize_; ++c) {
        if (pat.kept(r, c)) {
          out[(tr * psize_ + r) * cols_ + tc * psize_ + c] = values_[vi++];
        }
      }
    }
  }
  return out;
}

Tensor PatternMaskedMatrix::multiply(const Tensor& dense) const {
  check(dense.dim() == 2 && dense.size(0) == cols_,
        "PatternMaskedMatrix::multiply: shape mismatch");
  const std::int64_t n = dense.size(1);
  Tensor out({rows_, n});
  const std::int64_t tiles_c = cols_ / psize_;
  std::size_t vi = 0;
  for (std::size_t t = 0; t < assignment_.size(); ++t) {
    const std::int64_t tr = static_cast<std::int64_t>(t) / tiles_c;
    const std::int64_t tc = static_cast<std::int64_t>(t) % tiles_c;
    const Pattern& pat =
        set_.patterns[static_cast<std::size_t>(assignment_[t])];
    for (std::int64_t r = 0; r < psize_; ++r) {
      float* orow = out.data() + (tr * psize_ + r) * n;
      for (std::int64_t c = 0; c < psize_; ++c) {
        if (!pat.kept(r, c)) {
          continue;
        }
        const float v = values_[vi++];
        if (v == 0.0F) {
          continue;
        }
        const float* brow = dense.data() + (tc * psize_ + c) * n;
        for (std::int64_t j = 0; j < n; ++j) {
          orow[j] += v * brow[j];
        }
      }
    }
  }
  return out;
}

double PatternMaskedMatrix::sparsity() const {
  return 1.0 - static_cast<double>(values_.size()) /
                   static_cast<double>(rows_ * cols_);
}

std::int64_t PatternMaskedMatrix::storage_bytes() const {
  return static_cast<std::int64_t>(values_.size()) * 4 +
         switch_payload_bytes();
}

std::int64_t PatternMaskedMatrix::switch_payload_bytes() const {
  return static_cast<std::int64_t>(assignment_.size()) * 2 +
         set_.storage_bytes();
}

}  // namespace rt3
