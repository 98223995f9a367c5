// Precompiled execution plans for the measured backend.
//
// A KernelPlan fixes, ahead of time, everything a kernel needs to execute
// one weight matrix in one ExecMode: the dense payload (kDense), the
// kept-column block layout (kBlock), or the pattern-tiled structure
// (kPattern) in which each Pattern's kept cells are compiled once into a
// padded slot layout shared by every tile assigned that pattern.  A
// PlanCache pre-builds one plan per (layer, V/F level) at construction, so
// activating a level at a governor switch is a pointer swap — the runtime
// analogue of the paper's ms-scale pattern-set switch, with the expensive
// compilation paid before serving starts.
//
// Edge tiles of matrices whose dimensions are not multiples of psize get a
// clipped slot layout of their own (kept cells outside the matrix are
// dropped), so plans handle arbitrary layer shapes.
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

/// Launch options of one kernel call.  The offline autotuner
/// (exec/tuner.hpp) measures them per (layer, level) and bakes winners
/// into the PlanCache.  Nothing else is an option: the kernels derive the
/// unroll from each call's width (inner::with_unroll,
/// exec/kernels_inner.hpp) and the row split from each call's work
/// (exec/kernels.hpp).
struct KernelOptions {
  /// k-tile (rows of X kept hot) for the dense kernel; >= 1.
  std::int64_t k_tile = 64;
};

/// Throws CheckError, prefixed by `who`, naming k_tile and its value
/// unless k_tile >= 1 (nothing is clamped).
void check_kernel_options(const KernelOptions& options,
                          const std::string& who);

/// One Pattern's kept cells as a CSR over tile rows: row r's kept columns
/// are cols[row_ptr[r] .. row_ptr[r+1]), ascending, and rows[i] is the
/// tile row of kept cell i.  A build-time helper: PatternPlan::build lays
/// each one out as slots and keeps only the slot layout.
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

/// Pattern-tiled execution structure for one weight matrix: the per-tile
/// pattern choice (choose_tile_patterns over the backbone-masked weights)
/// in the one layout the kernel reads.
///
/// Slot layout: every tile gives its row r exactly row_slots[r] cells, the
/// most any pattern of the set keeps in row r.  A shorter row is padded
/// with zero-weight cells at in-bounds columns it does not keep (a row
/// that keeps all of them repeats column cmax - 1), and each row's cells
/// ascend by column, so the kernel's trip counts are the same for every
/// tile and each row still sees its terms in the reference order.  Row
/// r's cells start at the sum of row_slots over the rows before it.
struct PatternPlan {
  std::int64_t rows = 0;
  std::int64_t cols = 0;
  std::int64_t psize = 0;
  std::int64_t tiles_r = 0;
  std::int64_t tiles_c = 0;
  /// Per tile, row-major over the tile grid: the index of its slot_cols
  /// block — its set pattern's, or for a clipped edge tile, the block
  /// built for that tile alone (one per set pattern come first).
  std::vector<std::int32_t> tiles;
  std::vector<std::int64_t> row_slots;
  /// Cells of a full-height tile: the per-block stride of slot_cols and
  /// the per-tile stride of slot_values (a clipped last tile row uses a
  /// prefix of each stride).
  std::int64_t slot_stride = 0;
  std::vector<std::int32_t> slot_cols;  // blocks x slot_stride
  std::vector<float> slot_values;       // tiles.size() x slot_stride
  /// psize 4 only (empty otherwise): where each slot's X operand sits in
  /// a tile's X block, for a kernel that holds one 4-column tile in a
  /// 16-lane register (kernels_avx512.cpp).  The X block has X row c,
  /// column j at lane c * 4 + j, and the output tile has row r, column j
  /// at lane r * 4 + j.  Per slot_cols block b and slot s below the
  /// largest row_slots, entry (b * that + s) * 16 + r * 4 + j is
  /// 4 * (the column of row r's slot s) + j, or 0 when row r has no
  /// slot s.  Deriving these from slot_cols inside the kernel instead
  /// (one more permute, a shift and an add per slot) ran 26-49% slower
  /// at 4 columns on a Sapphire Rapids Xeon.
  std::vector<std::int32_t> x_lanes;
  /// In-bounds kept cells over all tiles (pads excluded).
  std::int64_t kept_cells = 0;

  /// Builds the plan from an (already backbone-masked) weight matrix.
  /// Dimensions need NOT be multiples of psize.
  static PatternPlan build(const Tensor& masked_weight, const PatternSet& set);

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
  /// kBlock plans split a layer into 4 row blocks; layers whose row count
  /// is not divisible by 4 fall back to a single block.
  PlanCache(ExecMode mode, const std::vector<Linear*>& layers,
            const std::vector<Tensor>& backbone_masks,
            const std::vector<PatternSet>& sets, std::int64_t num_levels);

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
