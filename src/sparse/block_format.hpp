// Block-structured sparse format produced by Level-1 pruning.
//
// The weight matrix is divided into `num_blocks` row-wise blocks; within
// each block whole columns are pruned.  Storage per block is a dense
// payload of the kept columns plus one index per kept column — the
// hardware-friendly layout the paper contrasts with COO (Section III-B).
#pragma once

#include <cstdint>
#include <vector>

#include "sparse/pattern.hpp"
#include "tensor/tensor.hpp"

namespace rt3 {

/// Row-wise-blocked, column-pruned matrix.
class BlockPrunedMatrix {
 public:
  /// Builds from a dense matrix whose pruned columns (within each block)
  /// are exactly zero.  A column of a block is kept iff it has any nonzero.
  static BlockPrunedMatrix from_dense(const Tensor& dense,
                                      std::int64_t num_blocks);

  Tensor to_dense() const;

  std::int64_t rows() const { return rows_; }
  std::int64_t cols() const { return cols_; }
  std::int64_t num_blocks() const {
    return static_cast<std::int64_t>(kept_cols_.size());
  }
  /// Rows per block (kernel-facing: rows() / num_blocks()).
  std::int64_t block_rows() const { return block_rows_; }
  const std::vector<std::int64_t>& kept_cols(std::int64_t block) const;
  /// Dense payload of one block, [block_rows x kept_cols(block).size()]
  /// row-major — the array the kept-column GEMM kernel streams.
  const std::vector<float>& block_values(std::int64_t block) const;

  /// this [R,C] x dense [C,N] -> [R,N], touching only kept columns.
  Tensor multiply(const Tensor& dense) const;

  std::int64_t nnz_values() const;
  double sparsity() const;

  /// 4 B per stored value + 4 B per kept-column index per block.
  std::int64_t storage_bytes() const;

 private:
  BlockPrunedMatrix(std::int64_t rows, std::int64_t cols) noexcept
      : rows_(rows), cols_(cols) {}

  std::int64_t rows_;
  std::int64_t cols_;
  std::int64_t block_rows_ = 0;
  std::vector<std::vector<std::int64_t>> kept_cols_;  // per block
  std::vector<std::vector<float>> values_;  // per block, [block_rows x kept]
};

/// Pattern-masked matrix: every psize x psize tile carries a pattern id
/// into a shared PatternSet.  This is the Level-2 execution format.
class PatternMaskedMatrix {
 public:
  /// Assigns each tile the set's pattern with maximal retained L2
  /// (choose_tile_patterns) and stores only the masked values.  Dims must
  /// be multiples of psize.
  static PatternMaskedMatrix from_dense(const Tensor& dense,
                                        const PatternSet& set);

  Tensor to_dense() const;

  std::int64_t rows() const { return rows_; }
  std::int64_t cols() const { return cols_; }
  std::int64_t psize() const { return psize_; }
  const std::vector<std::int32_t>& assignments() const { return assignment_; }
  /// Tile-major kept values and the shared pattern library (kernel-facing).
  const std::vector<float>& values() const { return values_; }
  const PatternSet& pattern_set() const { return set_; }

  Tensor multiply(const Tensor& dense) const;

  double sparsity() const;

  /// Stored values (4 B each) + per-tile pattern id (2 B) + the pattern
  /// set bitmaps.  The PATTERN SET portion (set bitmaps + ids) is what a
  /// run-time switch must transfer; values stay in place because all sets
  /// mask the same backbone.
  std::int64_t storage_bytes() const;
  std::int64_t switch_payload_bytes() const;

 private:
  PatternMaskedMatrix(std::int64_t rows, std::int64_t cols,
                      std::int64_t psize) noexcept
      : rows_(rows), cols_(cols), psize_(psize) {}

  std::int64_t rows_;
  std::int64_t cols_;
  std::int64_t psize_;
  PatternSet set_;
  std::vector<std::int32_t> assignment_;  // tile-major pattern ids
  std::vector<float> values_;             // kept values, tile-major
};

}  // namespace rt3
