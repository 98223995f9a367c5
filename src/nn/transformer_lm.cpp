#include "nn/transformer_lm.hpp"

#include <algorithm>

#include "common/check.hpp"

namespace rt3 {

TransformerLm::TransformerLm(const TransformerLmConfig& config)
    : config_(config) {
  Rng rng(config.seed);
  token_embedding_ =
      Var(Tensor::randn({config.vocab_size, config.d_model}, rng, 0.05F),
          /*requires_grad=*/true);
  pos_ = std::make_unique<PositionalEncoding>(config.max_seq_len,
                                              config.d_model);
  for (std::int64_t i = 0; i < config.num_encoder_layers; ++i) {
    encoders_.push_back(std::make_unique<EncoderLayer>(
        config.d_model, config.num_heads, config.ffn_hidden, rng));
  }
  for (std::int64_t i = 0; i < config.num_decoder_layers; ++i) {
    decoders_.push_back(std::make_unique<DecoderLayer>(
        config.d_model, config.num_heads, config.ffn_hidden, rng));
  }
  final_norm_ = std::make_unique<LayerNormLayer>(config.d_model);
  lm_head_ = std::make_unique<Linear>(config.d_model, config.vocab_size, rng);
}

Var TransformerLm::forward(const std::vector<std::int64_t>& ids,
                           std::int64_t batch, std::int64_t seq_len) const {
  check(static_cast<std::int64_t>(ids.size()) == batch * seq_len,
        "TransformerLm::forward: id count mismatch");
  Var x = embedding(token_embedding_, ids);  // [B*T, D]
  x = reshape(x, {batch, seq_len, config_.d_model});
  x = pos_->forward(x);

  // Encoder runs causally so the LM never peeks at future tokens.
  Var memory = x;
  for (const auto& layer : encoders_) {
    memory = layer->forward(memory, /*causal=*/true);
  }
  Var y = memory;
  for (const auto& layer : decoders_) {
    y = layer->forward(y, memory);
  }
  y = final_norm_->forward(y);
  y = reshape(y, {batch * seq_len, config_.d_model});
  return lm_head_->forward(y);  // [B*T, V]
}

Var TransformerLm::loss(const LmBatch& batch) const {
  Var logits = forward(batch.inputs, batch.batch, batch.seq_len);
  return cross_entropy(logits, batch.targets);
}

double TransformerLm::evaluate(const LmBatcher& batcher,
                               std::int64_t max_batches) const {
  std::int64_t hits = 0;
  std::int64_t total = 0;
  for (std::int64_t bi = 0; bi < max_batches; ++bi) {
    const LmBatch batch = batcher.at(bi * batcher.num_windows() /
                                     std::max<std::int64_t>(max_batches, 1));
    Var logits = forward(batch.inputs, batch.batch, batch.seq_len);
    const Tensor& lv = logits.value();
    const std::int64_t v = config_.vocab_size;
    for (std::int64_t r = 0; r < batch.batch * batch.seq_len; ++r) {
      const float* row = lv.data() + r * v;
      std::int64_t best = 0;
      for (std::int64_t c = 1; c < v; ++c) {
        if (row[c] > row[best]) {
          best = c;
        }
      }
      hits += (best == batch.targets[static_cast<std::size_t>(r)]) ? 1 : 0;
      ++total;
    }
  }
  return total == 0 ? 0.0
                    : static_cast<double>(hits) / static_cast<double>(total);
}

void TransformerLm::collect_params(const std::string& prefix,
                                   std::vector<NamedParam>& out) const {
  out.push_back({prefix + "token_embedding", token_embedding_});
  for (std::size_t i = 0; i < encoders_.size(); ++i) {
    encoders_[i]->collect_params(
        prefix + "encoder." + std::to_string(i) + ".", out);
  }
  for (std::size_t i = 0; i < decoders_.size(); ++i) {
    decoders_[i]->collect_params(
        prefix + "decoder." + std::to_string(i) + ".", out);
  }
  final_norm_->collect_params(prefix + "final_norm.", out);
  lm_head_->collect_params(prefix + "lm_head.", out);
}

std::vector<Linear*> TransformerLm::prunable() {
  std::vector<Linear*> out;
  for (auto& enc : encoders_) {
    for (Linear* l : enc->prunable()) {
      out.push_back(l);
    }
  }
  for (auto& dec : decoders_) {
    for (Linear* l : dec->prunable()) {
      out.push_back(l);
    }
  }
  out.push_back(lm_head_.get());
  return out;
}

}  // namespace rt3
