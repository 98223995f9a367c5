// Model-level pruning orchestration: installs Level-1 backbone masks on a
// model's prunable layers and composes Level-2 pattern masks on top.
//
// This realizes the RT3 run-time contract: the backbone mask is fixed once
// (Level 1); a pattern set's `backbone AND pattern` masks are composed from
// it (Level 2) and a V/F level switch only installs them — weights
// themselves never move.  Composing and installing are separate steps, so
// the ReconfigEngine composes every level once and its switches only
// install, while training composes fresh masks after each weight update.
#pragma once

#include <cstdint>
#include <vector>

#include "nn/linear.hpp"
#include "pruning/block_prune.hpp"
#include "pruning/pattern_prune.hpp"

namespace rt3 {

/// Manages pruning state for a set of prunable layers.
class ModelPruner {
 public:
  explicit ModelPruner(std::vector<Linear*> layers);

  /// Level 1: installs Algorithm-1 block masks on every layer and records
  /// them as the fixed backbone.
  void apply_bp(const BpConfig& config);

  /// Level-1 random baseline (rBP): same per-block prune counts, random
  /// column choices.
  void apply_random_bp(const BpConfig& config, Rng& rng);

  /// Marks the CURRENT masks (or dense, if none) as the backbone without
  /// further pruning — used by the "no BP" ablations.
  void freeze_backbone();

  /// Level 2, compose step: the `backbone AND pattern` mask of every layer
  /// (in layers() order) for `set`; the pattern for each tile is chosen on
  /// the backbone-masked weights as they are now.  Installs nothing.
  /// Throws CheckError when set's psize does not tile a layer.
  std::vector<Tensor> compose_pattern_masks(const PatternSet& set) const;

  /// Level 2, install step: installs one mask per layer (in layers()
  /// order), copying into each layer's installed mask storage.
  void install_masks(const std::vector<Tensor>& masks);

  /// Composes and installs `set`'s masks.  Returns the resulting overall
  /// weight sparsity.
  double apply_pattern_set(const PatternSet& set);

  /// Drops the Level-2 masks, restoring backbone-only masks.
  void restore_backbone();

  /// True once apply_bp / apply_random_bp / freeze_backbone has run.
  bool has_backbone() const { return !backbone_masks_.empty(); }

  /// Overall fraction of masked (zero) weight entries across layers.
  double overall_sparsity() const;

  /// Total prunable parameter count.
  std::int64_t total_weights() const;

  /// Bytes of all prunable dense weights (for full-model switch costs).
  std::int64_t dense_weight_bytes() const { return total_weights() * 4; }

  const std::vector<Linear*>& layers() const { return layers_; }
  const std::vector<Tensor>& backbone_masks() const { return backbone_masks_; }

 private:
  std::vector<Linear*> layers_;
  std::vector<Tensor> backbone_masks_;
};

/// Overall fraction of zero entries across `masks` (0 when they hold no
/// entries): the overall_sparsity() a model has with them installed.
double masks_sparsity(const std::vector<Tensor>& masks);

}  // namespace rt3
