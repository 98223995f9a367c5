// Precompiled execution plans for the measured backend.
//
// A KernelPlan fixes, ahead of time, everything a kernel needs to execute
// one weight matrix in one ExecMode: the dense payload (kDense), the
// kept-column block layout (kBlock), or the pattern-tiled structure
// (kPattern) in which each Pattern's kept-index list is compiled once into
// a per-row CSR and shared by every tile assigned that pattern.  A
// PlanCache pre-builds one plan per (layer, V/F level) at construction, so
// activating a level at a governor switch is a pointer swap — the runtime
// analogue of the paper's ms-scale pattern-set switch, with the expensive
// compilation paid before serving starts.
//
// Edge tiles of matrices whose dimensions are not multiples of psize get a
// clipped CSR of their own (kept cells outside the matrix are dropped), so
// plans handle arbitrary layer shapes.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "nn/linear.hpp"
#include "perf/latency_model.hpp"
#include "sparse/block_format.hpp"
#include "sparse/pattern.hpp"
#include "tensor/tensor.hpp"

namespace rt3 {

struct TuningRecord;  // exec/tuner.hpp

/// Tunable knobs of one kernel launch.  The defaults are sane everywhere;
/// the offline autotuner (exec/tuner.hpp) searches this space per
/// (layer, level) and bakes winners into the PlanCache.
struct KernelOptions {
  /// k-tile (rows of X kept hot) for the dense kernel; 0 = auto-size so
  /// the active X slice fits the per-core L1/L2 budget (exec/simd.hpp).
  std::int64_t k_tile = 64;
  /// Minimum output rows per parallel task; below this the kernel runs
  /// serially on the calling thread.
  std::int64_t row_grain = 16;
  /// Independent j-vector accumulator chains in flight per row (1, 2 or
  /// 4).  More chains hide fma latency; lanes never mix, so the per-lane
  /// accumulation order — and therefore bitwise output — is unchanged.
  std::int64_t unroll = 2;
  /// Worker-thread cap for this launch; 0 = every pool worker.  The
  /// autotuner uses it to pick a per-(layer, level) parallelism degree
  /// without resizing the shared pool.
  std::int64_t threads = 0;
};

/// Throws CheckError, prefixed by `who`, naming the first out-of-range
/// field and its value: k_tile >= 0, row_grain >= 1, unroll in {1, 2, 4}
/// (the compiled ladder; nothing is clamped), threads >= 0.
void check_kernel_options(const KernelOptions& options,
                          const std::string& who);

/// One Pattern's kept cells as a CSR over tile rows: row r's kept columns
/// are cols[row_ptr[r] .. row_ptr[r+1]), ascending, and rows[i] is the
/// tile row of kept cell i.  Values stored against this structure are laid
/// out in the same traversal order.
struct CompiledPattern {
  std::int64_t psize = 0;
  std::vector<std::int32_t> row_ptr;  // tile rows + 1 entries
  std::vector<std::int32_t> cols;
  std::vector<std::int32_t> rows;

  static CompiledPattern compile(const Pattern& pattern);
  /// The kept cells inside the top-left rmax x cmax corner: the CSR of a
  /// clipped edge tile.
  CompiledPattern clipped(std::int64_t rmax, std::int64_t cmax) const;
};

/// One psize x psize tile of a pattern plan.
struct PatternTile {
  /// Index into PatternPlan::compiled.
  std::int32_t pattern_id = 0;
  /// Offset of this tile's first value in PatternPlan::values.
  std::int64_t value_offset = 0;
};

/// Pattern-tiled execution structure for one weight matrix: per-tile
/// pattern assignment (paper's retained-L2 rule over the backbone-masked
/// weights), shared compiled kept-index lists, tile-major values.
struct PatternPlan {
  std::int64_t rows = 0;
  std::int64_t cols = 0;
  std::int64_t psize = 0;
  std::int64_t tiles_r = 0;
  std::int64_t tiles_c = 0;
  /// One per set pattern, then one per clipped edge tile.
  std::vector<CompiledPattern> compiled;
  std::vector<PatternTile> tiles;  // row-major over the tile grid
  std::vector<float> values;

  /// Builds the plan from an (already backbone-masked) weight matrix.
  /// Dimensions need NOT be multiples of psize.
  static PatternPlan build(const Tensor& masked_weight, const PatternSet& set);

  /// CSR of one tile; inline because the pattern kernel fetches it once
  /// per visited tile.
  const CompiledPattern& tile_pattern(const PatternTile& tile) const {
    return compiled[static_cast<std::size_t>(tile.pattern_id)];
  }

  /// The dense matrix this plan computes with (masked weight under the
  /// per-tile pattern assignment) — the kernel's ground truth in tests.
  Tensor to_dense() const;

  double sparsity() const;
};

/// Element-wise COO execution structure for ExecMode::kIrregular: one
/// (row, col, value) triple per nonzero, sorted row-major so per-element
/// contributions still reach each output in ascending-k order.  This is
/// the paper's Challenge-1 strawman made measurable — same nonzeros as a
/// regular plan, but every term pays per-element index loads and an
/// output-row round trip instead of streaming a compiled structure.
struct IrregularPlan {
  std::int64_t rows = 0;
  std::int64_t cols = 0;
  std::vector<std::int32_t> row_idx;  // per nonzero, row-major sorted
  std::vector<std::int32_t> col_idx;
  std::vector<float> values;
  /// First triple of each matrix row (rows + 1 entries) — used only to
  /// partition the triple list deterministically across workers.
  std::vector<std::int64_t> row_start;

  std::int64_t nnz() const {
    return static_cast<std::int64_t>(values.size());
  }

  /// Collects every nonzero of an (already masked) weight matrix.
  static IrregularPlan build(const Tensor& masked_weight);

  Tensor to_dense() const;
  double sparsity() const;
};

/// Everything needed to execute one layer in one ExecMode.
struct LayerPlan {
  ExecMode mode = ExecMode::kDense;
  std::int64_t rows = 0;
  std::int64_t cols = 0;
  Tensor dense_weight;                     // kDense payload
  std::optional<BlockPrunedMatrix> block;  // kBlock payload
  std::optional<PatternPlan> pattern;      // kPattern payload
  std::optional<IrregularPlan> irregular;  // kIrregular payload
  /// Autotuned launch options for THIS (layer, level); absent = use the
  /// backend-wide defaults.
  std::optional<KernelOptions> tuned;

  /// The dense matrix the kernel multiplies by (for reference checks).
  Tensor dense_equivalent() const;
  double sparsity() const;
};

/// Pre-built plans for every (layer, V/F level); swapping the active level
/// is a pointer reassignment whose wall time is returned to the caller.
class PlanCache {
 public:
  /// `backbone_masks` may be empty (dense backbone) or hold one
  /// weight-shaped 0/1 mask per layer.  `sets` holds one PatternSet per
  /// level and is required for kPattern; for other modes it may be empty
  /// and `num_levels` sizes the (identical) per-level plans.  kIrregular
  /// with sets executes each level's PATTERN nonzeros as COO triples —
  /// the same pruned weights a kPattern cache would run, so the measured
  /// gap between the two caches is pure indexing overhead (Challenge 1).
  /// `bp_blocks` is the row-block count for kBlock plans; layers whose row
  /// count is not divisible fall back to a single block.
  PlanCache(ExecMode mode, const std::vector<Linear*>& layers,
            const std::vector<Tensor>& backbone_masks,
            const std::vector<PatternSet>& sets, std::int64_t num_levels,
            std::int64_t bp_blocks);

  std::int64_t num_layers() const {
    return static_cast<std::int64_t>(plans_.empty() ? 0 : plans_[0].size());
  }
  std::int64_t num_levels() const {
    return static_cast<std::int64_t>(plans_.size());
  }
  ExecMode mode() const { return mode_; }

  /// Activates a level's plan set; returns the swap's host wall ms
  /// (pointer reassignment — microseconds).  No-op if already active.
  double swap_to(std::int64_t level);

  std::int64_t active_level() const { return active_level_; }
  const LayerPlan& active_plan(std::int64_t layer) const;
  const LayerPlan& plan(std::int64_t layer, std::int64_t level) const;

  /// Host wall ms spent pre-building every plan at construction.
  double build_wall_ms() const { return build_wall_ms_; }

  /// Installs autotuned launch options for one (layer, level).
  void set_tuned(std::int64_t layer, std::int64_t level,
                 const KernelOptions& options);
  /// Applies every entry of a tuning record (exec/tuner.hpp) whose
  /// (layer, level) exists in this cache; returns how many applied.
  std::int64_t apply_tuning(const TuningRecord& record);

  /// Weight-sparsity of a level's plans (weighted across layers).
  double level_sparsity(std::int64_t level) const;

 private:
  ExecMode mode_;
  std::vector<std::vector<LayerPlan>> plans_;  // [level][layer]
  std::vector<const LayerPlan*> active_;
  std::int64_t active_level_ = -1;
  double build_wall_ms_ = 0.0;
};

}  // namespace rt3
