// Transformer building blocks: layer norm, multi-head attention,
// position-wise FFN, encoder/decoder layers, sinusoidal positions.
#pragma once

#include <memory>
#include <vector>

#include "nn/linear.hpp"
#include "nn/module.hpp"

namespace rt3 {

/// LayerNorm over the last dimension with learnable gamma/beta.
class LayerNormLayer : public Module {
 public:
  explicit LayerNormLayer(std::int64_t dim);

  Var forward(const Var& x) const;
  void collect_params(const std::string& prefix,
                      std::vector<NamedParam>& out) const override;

 private:
  Var gamma_;
  Var beta_;
};

/// Sinusoidal positional encoding added to embeddings (no parameters).
class PositionalEncoding {
 public:
  PositionalEncoding(std::int64_t max_len, std::int64_t dim);

  /// x: [B, T, D]; adds the first T position rows.
  Var forward(const Var& x) const;

 private:
  Tensor table_;  // [max_len, dim]
};

/// Multi-head scaled-dot-product attention.
///
/// All four projection matrices (Q, K, V, O) are maskable Linears — these
/// are the self-attention weights the paper prunes (its Fig. 4 visualizes
/// patterns on "the self-attention layer of the first encoder").
class MultiHeadAttention : public Module {
 public:
  MultiHeadAttention(std::int64_t dim, std::int64_t num_heads, Rng& rng);

  /// query: [B, Tq, D], key/value: [B, Tk, D].
  /// If causal, position i may only attend to keys <= i (requires Tq == Tk).
  Var forward(const Var& query, const Var& key, const Var& value,
              bool causal) const;

  void collect_params(const std::string& prefix,
                      std::vector<NamedParam>& out) const override;

  /// The four prunable projection layers.
  std::vector<Linear*> prunable();

 private:
  std::int64_t dim_;
  std::int64_t num_heads_;
  std::int64_t head_dim_;
  std::unique_ptr<Linear> wq_;
  std::unique_ptr<Linear> wk_;
  std::unique_ptr<Linear> wv_;
  std::unique_ptr<Linear> wo_;
};

/// Position-wise feed-forward: Linear -> GELU -> Linear.
class FeedForward : public Module {
 public:
  FeedForward(std::int64_t dim, std::int64_t hidden, Rng& rng);

  Var forward(const Var& x) const;
  void collect_params(const std::string& prefix,
                      std::vector<NamedParam>& out) const override;
  std::vector<Linear*> prunable();

 private:
  std::unique_ptr<Linear> fc1_;
  std::unique_ptr<Linear> fc2_;
};

/// Pre-norm Transformer encoder layer.
class EncoderLayer : public Module {
 public:
  EncoderLayer(std::int64_t dim, std::int64_t num_heads,
               std::int64_t ffn_hidden, Rng& rng);

  /// x: [B, T, D]. `causal` lets a decoder-less LM stay autoregressive.
  Var forward(const Var& x, bool causal) const;

  void collect_params(const std::string& prefix,
                      std::vector<NamedParam>& out) const override;
  std::vector<Linear*> prunable();

 private:
  std::unique_ptr<MultiHeadAttention> attn_;
  std::unique_ptr<FeedForward> ffn_;
  std::unique_ptr<LayerNormLayer> norm1_;
  std::unique_ptr<LayerNormLayer> norm2_;
};

/// Pre-norm Transformer decoder layer (causal self-attn + cross-attn).
class DecoderLayer : public Module {
 public:
  DecoderLayer(std::int64_t dim, std::int64_t num_heads,
               std::int64_t ffn_hidden, Rng& rng);

  /// x: [B, T, D] decoder stream; memory: [B, Tm, D] encoder output.
  Var forward(const Var& x, const Var& memory) const;

  void collect_params(const std::string& prefix,
                      std::vector<NamedParam>& out) const override;
  std::vector<Linear*> prunable();

 private:
  std::unique_ptr<MultiHeadAttention> self_attn_;
  std::unique_ptr<MultiHeadAttention> cross_attn_;
  std::unique_ptr<FeedForward> ffn_;
  std::unique_ptr<LayerNormLayer> norm1_;
  std::unique_ptr<LayerNormLayer> norm2_;
  std::unique_ptr<LayerNormLayer> norm3_;
};

}  // namespace rt3
