// Synthetic language-modeling corpus standing in for WikiText-2.
//
// The generator plants learnable structure: token frequencies follow a
// Zipf law (like natural text) and, with probability `rule_strength`, the
// next token is a deterministic function of the current one (a planted
// bigram grammar).  A model that learns the bigram table reaches
// next-word accuracy ~= rule_strength, mirroring the high next-word
// accuracies the paper reports on WikiText-2; an untrained model sits at
// the Zipf base rate.  Pruning damages the learned table gradually, which
// is exactly the accuracy-vs-sparsity response the paper's experiments
// measure.
#pragma once

#include <cstdint>
#include <vector>

#include "common/rng.hpp"

namespace rt3 {

/// Configuration for the synthetic corpus.
struct CorpusConfig {
  std::int64_t vocab_size = 512;
  std::int64_t num_tokens = 60000;
  double zipf_exponent = 1.1;
  /// Probability that the planted bigram rule fires (ceiling for next-word
  /// accuracy).
  double rule_strength = 0.97;
  std::uint64_t seed = 1;
};

/// A tokenized corpus with train/validation splits.
class Corpus {
 public:
  explicit Corpus(const CorpusConfig& config);

  const std::vector<std::int64_t>& train() const { return train_; }
  const std::vector<std::int64_t>& valid() const { return valid_; }
  std::int64_t vocab_size() const { return config_.vocab_size; }
  const CorpusConfig& config() const { return config_; }

  /// The planted successor table (token -> most likely next token).
  /// Exposed so tests can verify the generator and compute the oracle
  /// accuracy ceiling.
  const std::vector<std::int64_t>& successor_table() const {
    return successor_;
  }

  /// Accuracy of the bigram oracle on the validation split — the ceiling
  /// any model can reach.
  double oracle_accuracy() const;

 private:
  CorpusConfig config_;
  std::vector<std::int64_t> successor_;
  std::vector<std::int64_t> train_;
  std::vector<std::int64_t> valid_;
};

/// One LM minibatch: flattened [batch, seq_len] inputs and next-token
/// targets.
struct LmBatch {
  std::int64_t batch = 0;
  std::int64_t seq_len = 0;
  std::vector<std::int64_t> inputs;   // batch * seq_len ids
  std::vector<std::int64_t> targets;  // batch * seq_len ids
};

/// Cuts a token stream into contiguous (input, next-token) windows.
class LmBatcher {
 public:
  LmBatcher(const std::vector<std::int64_t>& tokens, std::int64_t batch,
            std::int64_t seq_len);

  /// Number of distinct windows available.
  std::int64_t num_windows() const;

  /// Samples a random minibatch of windows.
  LmBatch next(Rng& rng) const;

  /// Deterministic batch covering windows [start, start+batch).
  LmBatch at(std::int64_t start) const;

 private:
  const std::vector<std::int64_t>& tokens_;
  std::int64_t batch_;
  std::int64_t seq_len_;
};

}  // namespace rt3
