// DistilBERT-analog encoder classifier/regressor for the GLUE-analog tasks.
//
// The paper's DistilBERT has 6 encoder layers with H=768; this reduced-scale
// stand-in keeps the same architecture family (embeddings + positional
// encoding + pre-norm encoder stack + pooled head) at laptop-trainable size.
// Scale substitution is documented in DESIGN.md.
#pragma once

#include <memory>
#include <vector>

#include "data/glue.hpp"
#include "nn/layers.hpp"
#include "nn/module.hpp"

namespace rt3 {

struct DistilBertConfig {
  std::int64_t vocab_size = 256;
  std::int64_t d_model = 64;
  std::int64_t num_heads = 4;
  std::int64_t ffn_hidden = 128;
  std::int64_t num_layers = 2;
  std::int64_t max_seq_len = 64;
  /// Classifier classes, or 1 for regression (STS-B analog).
  std::int64_t num_outputs = 2;
  std::uint64_t seed = 4;
};

/// Encoder-only model with mean pooling and a task head.
class DistilBertLike : public Module {
 public:
  explicit DistilBertLike(const DistilBertConfig& config);

  /// ids: batch*seq_len token ids -> head output [batch, num_outputs].
  Var forward(const std::vector<std::int64_t>& ids, std::int64_t batch,
              std::int64_t seq_len) const;

  /// Classification loss (cross-entropy) on a set of examples.
  Var classification_loss(const std::vector<GlueExample>& examples) const;

  /// Regression loss (MSE on score/5) for the STS-B analog.
  Var regression_loss(const std::vector<GlueExample>& examples) const;

  /// Task-appropriate loss dispatch.
  Var loss(const GlueDataset& data,
           const std::vector<GlueExample>& batch) const;

  /// Predicted labels for classification tasks on the dev set.
  std::vector<std::int64_t> predict_labels(
      const std::vector<GlueExample>& examples) const;

  /// Predicted scores for the regression task on the dev set.
  std::vector<double> predict_scores(
      const std::vector<GlueExample>& examples) const;

  /// Scores the dev split with the dataset's GLUE metric.
  double evaluate(const GlueDataset& data) const;

  void collect_params(const std::string& prefix,
                      std::vector<NamedParam>& out) const override;

  std::vector<Linear*> prunable();

  const DistilBertConfig& config() const { return config_; }

 private:
  DistilBertConfig config_;
  Var token_embedding_;
  std::unique_ptr<PositionalEncoding> pos_;
  std::vector<std::unique_ptr<EncoderLayer>> layers_;
  std::unique_ptr<LayerNormLayer> final_norm_;
  std::unique_ptr<Linear> pooler_;
  std::unique_ptr<Linear> head_;
};

}  // namespace rt3
