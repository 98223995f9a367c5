#include "exec/plan.hpp"

#include <algorithm>
#include <utility>

#include "common/check.hpp"
#include "common/wall_time.hpp"

namespace rt3 {
namespace {

/// Row-block count of kBlock plans; a layer whose row count it does not
/// divide runs as one block.
constexpr std::int64_t kBlockPlanRowBlocks = 4;

/// Appends one compiled pattern's columns to `slot_cols` in the slot
/// layout (see PatternPlan), for a tile whose in-bounds
/// columns are [0, cmax), and sets slot_of[i] to the slot of CSR cell i.
/// Pads take the lowest in-bounds columns the row does not keep; a row
/// that keeps all of them repeats column cmax - 1.
void append_slot_layout(const CompiledPattern& cp, std::int64_t cmax,
                        const std::vector<std::int64_t>& row_slots,
                        std::int64_t stride,
                        std::vector<std::int32_t>& slot_cols,
                        std::vector<std::int32_t>& slot_of) {
  const std::size_t base = slot_cols.size();
  slot_cols.resize(base + static_cast<std::size_t>(stride), 0);
  slot_of.assign(cp.cols.size(), 0);
  std::vector<std::pair<std::int32_t, std::int32_t>> cells;  // (col, CSR i)
  std::vector<bool> kept;
  std::int32_t k = 0;
  for (std::size_t r = 0; r + 1 < cp.row_ptr.size(); ++r) {
    const auto slots = static_cast<std::size_t>(row_slots[r]);
    cells.clear();
    kept.assign(static_cast<std::size_t>(cmax), false);
    for (std::int32_t i = cp.row_ptr[r]; i < cp.row_ptr[r + 1]; ++i) {
      const std::int32_t c = cp.cols[static_cast<std::size_t>(i)];
      cells.emplace_back(c, i);
      kept[static_cast<std::size_t>(c)] = true;
    }
    for (std::int64_t c = 0; c < cmax && cells.size() < slots; ++c) {
      if (!kept[static_cast<std::size_t>(c)]) {
        cells.emplace_back(static_cast<std::int32_t>(c), -1);
      }
    }
    while (cells.size() < slots) {
      cells.emplace_back(static_cast<std::int32_t>(cmax - 1), -1);
    }
    std::sort(cells.begin(), cells.end());  // ascending column
    for (const auto& [col, i] : cells) {
      slot_cols[base + static_cast<std::size_t>(k)] = col;
      if (i >= 0) {
        slot_of[static_cast<std::size_t>(i)] = k;
      }
      ++k;
    }
  }
}

}  // namespace

void check_kernel_options(const KernelOptions& options,
                          const std::string& who) {
  // The message is built only on failure: kernels validate per call.
  if (options.k_tile < 1) {
    check(false, who + ": kernel option k_tile=" +
                     std::to_string(options.k_tile) +
                     " is invalid (need >= 1)");
  }
}

CompiledPattern CompiledPattern::compile(const Pattern& pattern) {
  CompiledPattern out;
  out.psize = pattern.psize();
  out.row_ptr.reserve(static_cast<std::size_t>(out.psize) + 1);
  out.row_ptr.push_back(0);
  // The ascending flat kept-index list splits into per-row CSR runs.
  const std::vector<std::int64_t> kept = pattern.kept_indices();
  std::size_t i = 0;
  for (std::int64_t r = 0; r < out.psize; ++r) {
    while (i < kept.size() && kept[i] < (r + 1) * out.psize) {
      out.cols.push_back(static_cast<std::int32_t>(kept[i] % out.psize));
      out.rows.push_back(static_cast<std::int32_t>(r));
      ++i;
    }
    out.row_ptr.push_back(static_cast<std::int32_t>(out.cols.size()));
  }
  return out;
}

CompiledPattern CompiledPattern::clipped(std::int64_t rmax,
                                         std::int64_t cmax) const {
  CompiledPattern out;
  out.psize = psize;
  out.row_ptr.push_back(0);
  for (std::int64_t r = 0; r < rmax; ++r) {
    for (std::int32_t i = row_ptr[static_cast<std::size_t>(r)];
         i < row_ptr[static_cast<std::size_t>(r) + 1]; ++i) {
      if (cols[static_cast<std::size_t>(i)] < cmax) {
        out.cols.push_back(cols[static_cast<std::size_t>(i)]);
        out.rows.push_back(static_cast<std::int32_t>(r));
      }
    }
    out.row_ptr.push_back(static_cast<std::int32_t>(out.cols.size()));
  }
  return out;
}

PatternPlan PatternPlan::build(const Tensor& masked_weight,
                               const PatternSet& set) {
  PatternPlan plan;
  plan.tiles = choose_tile_patterns(masked_weight, set);
  plan.rows = masked_weight.size(0);
  plan.cols = masked_weight.size(1);
  plan.psize = set.psize();
  const std::int64_t p = plan.psize;
  plan.tiles_r = (plan.rows + p - 1) / p;
  plan.tiles_c = (plan.cols + p - 1) / p;
  std::vector<CompiledPattern> compiled;
  compiled.reserve(set.patterns.size());
  for (const Pattern& pat : set.patterns) {
    compiled.push_back(CompiledPattern::compile(pat));
  }

  // Per tile row, the longest that row is in any pattern (clipping only
  // drops cells, so the set's patterns bound the clipped ones).  Pads
  // stay at the zero the values start from.
  plan.row_slots.assign(static_cast<std::size_t>(p), 0);
  for (const CompiledPattern& cp : compiled) {
    for (std::size_t r = 0; r < plan.row_slots.size(); ++r) {
      plan.row_slots[r] = std::max<std::int64_t>(
          plan.row_slots[r], cp.row_ptr[r + 1] - cp.row_ptr[r]);
    }
  }
  for (const std::int64_t slots : plan.row_slots) {
    plan.slot_stride += slots;
  }
  const auto stride = static_cast<std::size_t>(plan.slot_stride);
  plan.slot_values.assign(plan.tiles.size() * stride, 0.0F);
  // Per set pattern: the slot of each CSR cell.
  std::vector<std::vector<std::int32_t>> slot_of(compiled.size());
  for (std::size_t pi = 0; pi < compiled.size(); ++pi) {
    append_slot_layout(compiled[pi], p, plan.row_slots, plan.slot_stride,
                       plan.slot_cols, slot_of[pi]);
  }

  const float* w = masked_weight.data();
  auto blocks = static_cast<std::int32_t>(compiled.size());
  CompiledPattern edge;
  std::vector<std::int32_t> edge_slot_of;
  for (std::int64_t tr = 0; tr < plan.tiles_r; ++tr) {
    for (std::int64_t tc = 0; tc < plan.tiles_c; ++tc) {
      const std::int64_t rmax = std::min(p, plan.rows - tr * p);
      const std::int64_t cmax = std::min(p, plan.cols - tc * p);
      const float* tile = w + tr * p * plan.cols + tc * p;
      const auto t = static_cast<std::size_t>(tr * plan.tiles_c + tc);
      std::int32_t& id = plan.tiles[t];
      const CompiledPattern* cp = &compiled[static_cast<std::size_t>(id)];
      const std::vector<std::int32_t>* slots =
          &slot_of[static_cast<std::size_t>(id)];
      if (rmax < p || cmax < p) {
        // Clipped edge tile: a slot block of its own, built from the CSR
        // of its in-bounds kept cells.
        edge = cp->clipped(rmax, cmax);
        id = blocks++;
        append_slot_layout(edge, cmax, plan.row_slots, plan.slot_stride,
                           plan.slot_cols, edge_slot_of);
        cp = &edge;
        slots = &edge_slot_of;
      }
      float* tile_slots = plan.slot_values.data() + t * stride;
      for (std::size_t i = 0; i < cp->cols.size(); ++i) {
        tile_slots[(*slots)[i]] = tile[cp->rows[i] * plan.cols + cp->cols[i]];
      }
      plan.kept_cells += static_cast<std::int64_t>(cp->cols.size());
    }
  }

  if (p == 4 && plan.slot_stride > 0) {
    const std::int64_t max_slots =
        *std::max_element(plan.row_slots.begin(), plan.row_slots.end());
    const std::size_t blocks = plan.slot_cols.size() / stride;
    plan.x_lanes.assign(blocks * static_cast<std::size_t>(max_slots * 16), 0);
    std::int32_t* lanes = plan.x_lanes.data();
    for (std::size_t b = 0; b < blocks; ++b, lanes += max_slots * 16) {
      const std::int32_t* col = plan.slot_cols.data() + b * stride;
      for (std::int64_t r = 0; r < p; ++r) {
        const std::int64_t slots = plan.row_slots[static_cast<std::size_t>(r)];
        for (std::int64_t s = 0; s < slots; ++s, ++col) {
          for (std::int64_t j = 0; j < p; ++j) {
            lanes[s * 16 + r * p + j] = static_cast<std::int32_t>(*col * p + j);
          }
        }
      }
    }
  }
  return plan;
}

IrregularPlan IrregularPlan::build(const Tensor& masked_weight) {
  check(masked_weight.dim() == 2, "IrregularPlan: need a 2-D weight");
  IrregularPlan plan;
  plan.rows = masked_weight.size(0);
  plan.cols = masked_weight.size(1);
  plan.row_start.reserve(static_cast<std::size_t>(plan.rows) + 1);
  const float* w = masked_weight.data();
  for (std::int64_t r = 0; r < plan.rows; ++r) {
    plan.row_start.push_back(static_cast<std::int64_t>(plan.values.size()));
    for (std::int64_t c = 0; c < plan.cols; ++c) {
      const float v = w[r * plan.cols + c];
      if (v != 0.0F) {
        plan.row_idx.push_back(static_cast<std::int32_t>(r));
        plan.col_idx.push_back(static_cast<std::int32_t>(c));
        plan.values.push_back(v);
      }
    }
  }
  plan.row_start.push_back(static_cast<std::int64_t>(plan.values.size()));
  return plan;
}

Tensor IrregularPlan::to_dense() const {
  Tensor out({rows, cols});
  for (std::size_t i = 0; i < values.size(); ++i) {
    out[static_cast<std::int64_t>(row_idx[i]) * cols + col_idx[i]] =
        values[i];
  }
  return out;
}

double IrregularPlan::sparsity() const {
  return 1.0 - static_cast<double>(values.size()) /
                   static_cast<double>(rows * cols);
}

Tensor PatternPlan::to_dense() const {
  // Every slot cell is written in slot order.  A pad holds +0 at a column
  // its row does not keep, or repeats column cmax - 1, which sorts before
  // the real cell there, so the real value is written last.
  Tensor out({rows, cols});
  const auto stride = static_cast<std::size_t>(slot_stride);
  for (std::int64_t tr = 0; tr < tiles_r; ++tr) {
    const std::int64_t rmax = std::min(psize, rows - tr * psize);
    for (std::int64_t tc = 0; tc < tiles_c; ++tc) {
      const auto t = static_cast<std::size_t>(tr * tiles_c + tc);
      const std::int32_t* cell_cols =
          slot_cols.data() + static_cast<std::size_t>(tiles[t]) * stride;
      const float* cell_values = slot_values.data() + t * stride;
      for (std::int64_t r = 0; r < rmax; ++r) {
        float* out_row = out.data() + (tr * psize + r) * cols + tc * psize;
        const std::int64_t slots = row_slots[static_cast<std::size_t>(r)];
        for (std::int64_t s = 0; s < slots; ++s) {
          out_row[*cell_cols++] = *cell_values++;
        }
      }
    }
  }
  return out;
}

double PatternPlan::sparsity() const {
  return 1.0 - static_cast<double>(kept_cells) /
                   static_cast<double>(rows * cols);
}

Tensor LayerPlan::dense_equivalent() const {
  switch (mode) {
    case ExecMode::kDense:
      return dense_weight;
    case ExecMode::kBlock:
      return block->to_dense();
    case ExecMode::kPattern:
      return pattern->to_dense();
    case ExecMode::kIrregular:
      return irregular->to_dense();
  }
  throw CheckError("LayerPlan: unsupported mode");
}

double LayerPlan::sparsity() const {
  switch (mode) {
    case ExecMode::kDense:
      return dense_weight.sparsity();
    case ExecMode::kBlock:
      return block->sparsity();
    case ExecMode::kPattern:
      return pattern->sparsity();
    case ExecMode::kIrregular:
      return irregular->sparsity();
  }
  throw CheckError("LayerPlan: unsupported mode");
}

PlanCache::PlanCache(ExecMode mode, const std::vector<Linear*>& layers,
                     const std::vector<Tensor>& backbone_masks,
                     const std::vector<PatternSet>& sets,
                     std::int64_t num_levels)
    : mode_(mode) {
  check(!layers.empty(), "PlanCache: no layers");
  check(backbone_masks.empty() || backbone_masks.size() == layers.size(),
        "PlanCache: one backbone mask per layer (or none)");
  if (mode == ExecMode::kPattern) {
    check(!sets.empty(), "PlanCache: pattern mode needs pattern sets");
    num_levels = static_cast<std::int64_t>(sets.size());
  }
  if (mode == ExecMode::kIrregular && !sets.empty()) {
    num_levels = static_cast<std::int64_t>(sets.size());
  }
  check(num_levels >= 1, "PlanCache: need at least one level");

  const auto t0 = wall_now();
  plans_.assign(static_cast<std::size_t>(num_levels),
                std::vector<LayerPlan>(layers.size()));
  for (std::size_t li = 0; li < layers.size(); ++li) {
    // Every level prunes the same backbone-masked weight, so it is masked
    // once per layer.  Dense executes the raw weights: no mask.
    const Tensor& w = layers[li]->weight().value();
    Tensor masked;
    const Tensor* wb = &w;
    if (!backbone_masks.empty() && mode != ExecMode::kDense) {
      check(backbone_masks[li].shape() == w.shape(),
            "PlanCache: mask/weight shape mismatch");
      masked = mul(w, backbone_masks[li]);
      wb = &masked;
    }
    for (std::int64_t level = 0; level < num_levels; ++level) {
      const auto lv = static_cast<std::size_t>(level);
      LayerPlan& plan = plans_[lv][li];
      plan.mode = mode;
      plan.rows = w.size(0);
      plan.cols = w.size(1);
      switch (mode) {
        case ExecMode::kDense:
          plan.dense_weight = w;
          break;
        case ExecMode::kBlock: {
          const std::int64_t nb =
              plan.rows % kBlockPlanRowBlocks == 0 ? kBlockPlanRowBlocks : 1;
          plan.block = BlockPrunedMatrix::from_dense(*wb, nb);
          break;
        }
        case ExecMode::kPattern:
          plan.pattern = PatternPlan::build(*wb, sets[lv]);
          break;
        case ExecMode::kIrregular:
          // With pattern sets: the level's pattern-pruned nonzeros as COO
          // triples (regular-vs-irregular execution of identical weights).
          // Without: the backbone-masked weight, identical per level.
          plan.irregular = IrregularPlan::build(
              sets.empty() ? *wb
                           : PatternPlan::build(*wb, sets[lv]).to_dense());
          break;
      }
    }
  }
  build_wall_ms_ = wall_ms_since(t0);
  active_.assign(layers.size(), nullptr);
}

double PlanCache::swap_to(std::int64_t level) {
  check(level >= 0 && level < num_levels(), "PlanCache: level out of range");
  if (level == active_level_) {
    return 0.0;
  }
  const auto t0 = wall_now();
  const auto& level_plans = plans_[static_cast<std::size_t>(level)];
  for (std::size_t li = 0; li < level_plans.size(); ++li) {
    active_[li] = &level_plans[li];
  }
  active_level_ = level;
  return wall_ms_since(t0);
}

const LayerPlan& PlanCache::active_plan(std::int64_t layer) const {
  check(layer >= 0 && layer < num_layers(), "PlanCache: layer out of range");
  const LayerPlan* plan = active_[static_cast<std::size_t>(layer)];
  check(plan != nullptr, "PlanCache: no active level (call swap_to first)");
  return *plan;
}

const LayerPlan& PlanCache::plan(std::int64_t layer, std::int64_t level) const {
  check(layer >= 0 && layer < num_layers(), "PlanCache: layer out of range");
  check(level >= 0 && level < num_levels(), "PlanCache: level out of range");
  return plans_[static_cast<std::size_t>(level)]
               [static_cast<std::size_t>(layer)];
}

void PlanCache::set_tuned(std::int64_t layer, std::int64_t level,
                          const KernelOptions& options) {
  check(layer >= 0 && layer < num_layers(), "PlanCache: layer out of range");
  check(level >= 0 && level < num_levels(), "PlanCache: level out of range");
  check_kernel_options(options, "PlanCache::set_tuned");
  plans_[static_cast<std::size_t>(level)][static_cast<std::size_t>(layer)]
      .tuned = options;
}

double PlanCache::level_sparsity(std::int64_t level) const {
  check(level >= 0 && level < num_levels(), "PlanCache: level out of range");
  double zero_weighted = 0.0;
  double total = 0.0;
  for (const LayerPlan& plan : plans_[static_cast<std::size_t>(level)]) {
    const double n = static_cast<double>(plan.rows * plan.cols);
    zero_weighted += plan.sparsity() * n;
    total += n;
  }
  return total > 0.0 ? zero_weighted / total : 0.0;
}

}  // namespace rt3
