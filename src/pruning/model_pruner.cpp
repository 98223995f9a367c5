#include "pruning/model_pruner.hpp"

#include "common/check.hpp"

namespace rt3 {

namespace {

std::int64_t zero_count(const Tensor& mask) {
  return mask.numel() - mask.count_nonzero();
}

double zero_share(std::int64_t zeros, std::int64_t total) {
  return total == 0 ? 0.0
                    : static_cast<double>(zeros) / static_cast<double>(total);
}

}  // namespace

ModelPruner::ModelPruner(std::vector<Linear*> layers)
    : layers_(std::move(layers)) {
  check(!layers_.empty(), "ModelPruner: no layers");
  for (Linear* l : layers_) {
    check(l != nullptr, "ModelPruner: null layer");
  }
}

void ModelPruner::apply_bp(const BpConfig& config) {
  backbone_masks_.clear();
  backbone_masks_.reserve(layers_.size());
  for (Linear* l : layers_) {
    Tensor mask = bp_mask(l->weight().value(), config);
    l->set_mask(mask);
    backbone_masks_.push_back(std::move(mask));
  }
}

void ModelPruner::apply_random_bp(const BpConfig& config, Rng& rng) {
  backbone_masks_.clear();
  backbone_masks_.reserve(layers_.size());
  for (Linear* l : layers_) {
    Tensor mask = rbp_mask(l->weight().value(), config, rng);
    l->set_mask(mask);
    backbone_masks_.push_back(std::move(mask));
  }
}

void ModelPruner::freeze_backbone() {
  backbone_masks_.clear();
  backbone_masks_.reserve(layers_.size());
  for (Linear* l : layers_) {
    backbone_masks_.push_back(l->has_mask()
                                  ? l->mask()
                                  : Tensor::ones(l->weight().shape()));
  }
}

std::vector<Tensor> ModelPruner::compose_pattern_masks(
    const PatternSet& set) const {
  check(has_backbone(), "ModelPruner: backbone not frozen yet");
  std::vector<Tensor> masks;
  masks.reserve(layers_.size());
  for (std::size_t i = 0; i < layers_.size(); ++i) {
    const Linear* l = layers_[i];
    // Select patterns on the backbone-masked weights (paper chooses per
    // block on the fixed backbone C).
    Tensor masked_weight = mul(l->weight().value(), backbone_masks_[i]);
    Tensor pattern_mask = pattern_mask_for_weight(masked_weight, set);
    // Composed mask: entry survives only if both keep it.
    masks.push_back(mul(pattern_mask, backbone_masks_[i]));
  }
  return masks;
}

void ModelPruner::install_masks(const std::vector<Tensor>& masks) {
  check(masks.size() == layers_.size(),
        "ModelPruner: one mask per layer required");
  for (std::size_t i = 0; i < layers_.size(); ++i) {
    layers_[i]->set_mask(masks[i]);
  }
}

double ModelPruner::apply_pattern_set(const PatternSet& set) {
  install_masks(compose_pattern_masks(set));
  return overall_sparsity();
}

void ModelPruner::restore_backbone() {
  check(has_backbone(), "ModelPruner: backbone not frozen yet");
  for (std::size_t i = 0; i < layers_.size(); ++i) {
    layers_[i]->set_mask(backbone_masks_[i]);
  }
}

double ModelPruner::overall_sparsity() const {
  std::int64_t zeros = 0;
  for (const Linear* l : layers_) {
    if (l->has_mask()) {
      zeros += zero_count(l->mask());
    }
  }
  return zero_share(zeros, total_weights());
}

std::int64_t ModelPruner::total_weights() const {
  std::int64_t total = 0;
  for (const Linear* l : layers_) {
    total += l->weight().numel();
  }
  return total;
}

double masks_sparsity(const std::vector<Tensor>& masks) {
  std::int64_t zeros = 0;
  std::int64_t total = 0;
  for (const Tensor& mask : masks) {
    zeros += zero_count(mask);
    total += mask.numel();
  }
  return zero_share(zeros, total);
}

}  // namespace rt3
