#include "exec/plan.hpp"

#include <utility>

#include "common/check.hpp"
#include "common/wall_time.hpp"

namespace rt3 {
namespace {

/// Backbone-masked weight values of a layer (dense copy).
Tensor masked_weight_of(const Linear& layer, const Tensor* mask) {
  const Tensor& w = layer.weight().value();
  if (mask == nullptr) {
    return w;
  }
  check(mask->shape() == w.shape(), "PlanCache: mask/weight shape mismatch");
  return mul(w, *mask);
}

}  // namespace

void check_kernel_options(const KernelOptions& options,
                          const std::string& who) {
  const auto field = [&](bool ok, const char* name, std::int64_t value,
                         const char* want) {
    check(ok, who + ": kernel option " + name + "=" + std::to_string(value) +
                  " is invalid (need " + want + ")");
  };
  field(options.k_tile >= 0, "k_tile", options.k_tile, ">= 0");
  field(options.row_grain >= 1, "row_grain", options.row_grain, ">= 1");
  field(options.unroll == 1 || options.unroll == 2 || options.unroll == 4,
        "unroll", options.unroll, "1, 2 or 4");
  field(options.threads >= 0, "threads", options.threads, ">= 0");
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
  check(masked_weight.dim() == 2, "PatternPlan: need a 2-D weight");
  check(!set.patterns.empty(), "PatternPlan: empty pattern set");
  PatternPlan plan;
  plan.rows = masked_weight.size(0);
  plan.cols = masked_weight.size(1);
  plan.psize = set.psize();
  const std::int64_t p = plan.psize;
  plan.tiles_r = (plan.rows + p - 1) / p;
  plan.tiles_c = (plan.cols + p - 1) / p;
  plan.compiled.reserve(set.patterns.size());
  for (const Pattern& pat : set.patterns) {
    plan.compiled.push_back(CompiledPattern::compile(pat));
  }
  plan.tiles.reserve(static_cast<std::size_t>(plan.tiles_r * plan.tiles_c));

  Tensor tile({p, p});
  const float* w = masked_weight.data();
  for (std::int64_t tr = 0; tr < plan.tiles_r; ++tr) {
    for (std::int64_t tc = 0; tc < plan.tiles_c; ++tc) {
      const std::int64_t rmax = std::min(p, plan.rows - tr * p);
      const std::int64_t cmax = std::min(p, plan.cols - tc * p);
      // Zero-padded tile extraction: out-of-bounds cells contribute nothing
      // to retained L2, so edge assignment follows the same rule.
      tile.fill(0.0F);
      for (std::int64_t r = 0; r < rmax; ++r) {
        for (std::int64_t c = 0; c < cmax; ++c) {
          tile[r * p + c] = w[(tr * p + r) * plan.cols + tc * p + c];
        }
      }
      std::size_t best = 0;
      double best_l2 = -1.0;
      for (std::size_t pi = 0; pi < set.patterns.size(); ++pi) {
        const double l2 = set.patterns[pi].retained_l2(tile);
        if (l2 > best_l2) {
          best_l2 = l2;
          best = pi;
        }
      }

      PatternTile t;
      t.value_offset = static_cast<std::int64_t>(plan.values.size());
      t.pattern_id = static_cast<std::int32_t>(best);
      if (rmax < p || cmax < p) {
        // Clipped edge tile: its own CSR over the in-bounds kept cells.
        t.pattern_id = static_cast<std::int32_t>(plan.compiled.size());
        plan.compiled.push_back(plan.compiled[best].clipped(rmax, cmax));
      }
      const CompiledPattern& cp = plan.tile_pattern(t);
      for (std::size_t i = 0; i < cp.cols.size(); ++i) {
        plan.values.push_back(tile[cp.rows[i] * p + cp.cols[i]]);
      }
      plan.tiles.push_back(t);
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
  Tensor out({rows, cols});
  for (std::int64_t tr = 0; tr < tiles_r; ++tr) {
    for (std::int64_t tc = 0; tc < tiles_c; ++tc) {
      const PatternTile& tile =
          tiles[static_cast<std::size_t>(tr * tiles_c + tc)];
      const CompiledPattern& cp = tile_pattern(tile);
      for (std::size_t i = 0; i < cp.cols.size(); ++i) {
        out[(tr * psize + cp.rows[i]) * cols + tc * psize + cp.cols[i]] =
            values[static_cast<std::size_t>(tile.value_offset) + i];
      }
    }
  }
  return out;
}

double PatternPlan::sparsity() const {
  return 1.0 - static_cast<double>(values.size()) /
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
                     std::int64_t num_levels, std::int64_t bp_blocks)
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
  check(bp_blocks >= 1, "PlanCache: need at least one row block");

  const auto t0 = wall_now();
  plans_.resize(static_cast<std::size_t>(num_levels));
  for (std::int64_t level = 0; level < num_levels; ++level) {
    auto& level_plans = plans_[static_cast<std::size_t>(level)];
    level_plans.reserve(layers.size());
    for (std::size_t li = 0; li < layers.size(); ++li) {
      const Tensor* mask =
          backbone_masks.empty() ? nullptr : &backbone_masks[li];
      LayerPlan plan;
      plan.mode = mode;
      plan.rows = layers[li]->weight().value().size(0);
      plan.cols = layers[li]->weight().value().size(1);
      switch (mode) {
        case ExecMode::kDense:
          // Dense executes the raw weights: no pruning, no mask.
          plan.dense_weight = layers[li]->weight().value();
          break;
        case ExecMode::kBlock: {
          const Tensor wb = masked_weight_of(*layers[li], mask);
          const std::int64_t nb =
              plan.rows % bp_blocks == 0 ? bp_blocks : 1;
          plan.block = BlockPrunedMatrix::from_dense(wb, nb);
          break;
        }
        case ExecMode::kPattern: {
          const Tensor wb = masked_weight_of(*layers[li], mask);
          plan.pattern = PatternPlan::build(
              wb, sets[static_cast<std::size_t>(level)]);
          break;
        }
        case ExecMode::kIrregular: {
          // With pattern sets: the level's pattern-pruned nonzeros as COO
          // triples (regular-vs-irregular execution of identical weights).
          // Without: the backbone-masked weight, identical per level.
          const Tensor wb = masked_weight_of(*layers[li], mask);
          plan.irregular = IrregularPlan::build(
              sets.empty()
                  ? wb
                  : PatternPlan::build(
                        wb, sets[static_cast<std::size_t>(level)])
                        .to_dense());
          break;
        }
      }
      level_plans.push_back(std::move(plan));
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
