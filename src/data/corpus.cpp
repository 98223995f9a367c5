#include "data/corpus.hpp"

#include "common/check.hpp"

namespace rt3 {

Corpus::Corpus(const CorpusConfig& config) : config_(config) {
  check(config_.vocab_size >= 4, "Corpus: vocab too small");
  check(config_.num_tokens >= 100, "Corpus: corpus too small");
  check(config_.rule_strength >= 0.0 && config_.rule_strength <= 1.0,
        "Corpus: rule_strength must be in [0,1]");

  Rng rng(config_.seed);

  // Planted bigram grammar: a random permutation-ish successor table.  A
  // permutation (rather than arbitrary map) keeps every token reachable so
  // the validation split exercises the whole table.
  successor_.resize(static_cast<std::size_t>(config_.vocab_size));
  std::vector<std::int64_t> perm(static_cast<std::size_t>(config_.vocab_size));
  for (std::int64_t i = 0; i < config_.vocab_size; ++i) {
    perm[static_cast<std::size_t>(i)] = i;
  }
  rng.shuffle(perm);
  for (std::int64_t i = 0; i < config_.vocab_size; ++i) {
    successor_[static_cast<std::size_t>(i)] = perm[static_cast<std::size_t>(i)];
  }

  std::vector<std::int64_t> tokens;
  tokens.reserve(static_cast<std::size_t>(config_.num_tokens));
  std::int64_t current = rng.zipf(config_.vocab_size, config_.zipf_exponent);
  tokens.push_back(current);
  for (std::int64_t i = 1; i < config_.num_tokens; ++i) {
    if (rng.bernoulli(config_.rule_strength)) {
      current = successor_[static_cast<std::size_t>(current)];
    } else {
      current = rng.zipf(config_.vocab_size, config_.zipf_exponent);
    }
    tokens.push_back(current);
  }

  // 90/10 train/valid split.
  const std::int64_t split = config_.num_tokens * 9 / 10;
  train_.assign(tokens.begin(), tokens.begin() + split);
  valid_.assign(tokens.begin() + split, tokens.end());
}

double Corpus::oracle_accuracy() const {
  std::int64_t hits = 0;
  for (std::size_t i = 0; i + 1 < valid_.size(); ++i) {
    hits += (successor_[static_cast<std::size_t>(valid_[i])] == valid_[i + 1])
                ? 1
                : 0;
  }
  if (valid_.size() < 2) {
    return 0.0;
  }
  return static_cast<double>(hits) / static_cast<double>(valid_.size() - 1);
}

LmBatcher::LmBatcher(const std::vector<std::int64_t>& tokens,
                     std::int64_t batch, std::int64_t seq_len)
    : tokens_(tokens), batch_(batch), seq_len_(seq_len) {
  check(batch >= 1 && seq_len >= 1, "LmBatcher: bad batch/seq_len");
  check(static_cast<std::int64_t>(tokens.size()) > seq_len + 1,
        "LmBatcher: token stream too short");
}

std::int64_t LmBatcher::num_windows() const {
  return static_cast<std::int64_t>(tokens_.size()) - seq_len_ - 1;
}

LmBatch LmBatcher::next(Rng& rng) const {
  LmBatch out;
  out.batch = batch_;
  out.seq_len = seq_len_;
  out.inputs.reserve(static_cast<std::size_t>(batch_ * seq_len_));
  out.targets.reserve(static_cast<std::size_t>(batch_ * seq_len_));
  for (std::int64_t b = 0; b < batch_; ++b) {
    const std::int64_t start = rng.uniform_int(num_windows());
    for (std::int64_t t = 0; t < seq_len_; ++t) {
      out.inputs.push_back(tokens_[static_cast<std::size_t>(start + t)]);
      out.targets.push_back(tokens_[static_cast<std::size_t>(start + t + 1)]);
    }
  }
  return out;
}

LmBatch LmBatcher::at(std::int64_t start) const {
  LmBatch out;
  out.batch = batch_;
  out.seq_len = seq_len_;
  for (std::int64_t b = 0; b < batch_; ++b) {
    // Stride windows so a small number of deterministic batches covers the
    // split; wrap around if needed.
    const std::int64_t s = (start + b * seq_len_) % num_windows();
    for (std::int64_t t = 0; t < seq_len_; ++t) {
      out.inputs.push_back(tokens_[static_cast<std::size_t>(s + t)]);
      out.targets.push_back(tokens_[static_cast<std::size_t>(s + t + 1)]);
    }
  }
  return out;
}

}  // namespace rt3
