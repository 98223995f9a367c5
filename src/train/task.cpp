#include "train/task.hpp"

#include <map>

#include "common/check.hpp"

namespace rt3 {

void copy_parameters(Module& dst, const Module& src) {
  const auto src_named = src.named_parameters();
  auto dst_named = dst.named_parameters();
  check(src_named.size() == dst_named.size(),
        "copy_parameters: parameter count mismatch");
  std::map<std::string, const Var*> by_name;
  for (const auto& np : src_named) {
    by_name[np.name] = &np.param;
  }
  for (auto& np : dst_named) {
    const auto it = by_name.find(np.name);
    check(it != by_name.end(), "copy_parameters: missing " + np.name);
    check(it->second->shape() == np.param.shape(),
          "copy_parameters: shape mismatch for " + np.name);
    np.param.mutable_value() = it->second->value();
  }
}

LmTrainingTask::LmTrainingTask(TransformerLm& model, const Corpus& corpus)
    : model_(model), corpus_(corpus) {}

LmTrainingTask::LmTrainingTask(std::unique_ptr<TransformerLm> model,
                               const Corpus& corpus)
    : owned_(std::move(model)), model_(*owned_), corpus_(corpus) {}

void LmTrainingTask::draw_minibatch(Rng& rng, std::int64_t batch,
                                    std::int64_t seq_len) {
  minibatch_ = LmBatcher(corpus_.train(), batch, seq_len).next(rng);
}

Var LmTrainingTask::minibatch_loss() const { return model_.loss(minibatch_); }

double LmTrainingTask::dev_metric(std::int64_t batch,
                                  std::int64_t seq_len) const {
  return model_.evaluate(LmBatcher(corpus_.valid(), batch, seq_len),
                         /*max_batches=*/8);
}

ModelSpec LmTrainingTask::paper_spec() const {
  return ModelSpec::paper_transformer();
}

LatencyModel LmTrainingTask::paper_latency() const {
  return paper_transformer_latency();
}

std::unique_ptr<TrainingTask> LmTrainingTask::clone() const {
  auto copy = std::make_unique<TransformerLm>(model_.config());
  copy_parameters(*copy, model_);
  return std::make_unique<LmTrainingTask>(std::move(copy), corpus_);
}

GlueTrainingTask::GlueTrainingTask(DistilBertLike& model,
                                   const GlueDataset& data)
    : model_(model), data_(data) {}

GlueTrainingTask::GlueTrainingTask(std::unique_ptr<DistilBertLike> model,
                                   const GlueDataset& data)
    : owned_(std::move(model)), model_(*owned_), data_(data) {}

void GlueTrainingTask::draw_minibatch(Rng& rng, std::int64_t batch,
                                      std::int64_t /*seq_len*/) {
  const auto& train = data_.train();
  minibatch_.clear();
  for (std::int64_t i = 0; i < batch; ++i) {
    minibatch_.push_back(train[static_cast<std::size_t>(
        rng.uniform_int(static_cast<std::int64_t>(train.size())))]);
  }
}

Var GlueTrainingTask::minibatch_loss() const {
  return model_.loss(data_, minibatch_);
}

double GlueTrainingTask::dev_metric(std::int64_t /*batch*/,
                                    std::int64_t /*seq_len*/) const {
  return model_.evaluate(data_);
}

ModelSpec GlueTrainingTask::paper_spec() const {
  return ModelSpec::paper_distilbert();
}

LatencyModel GlueTrainingTask::paper_latency() const {
  return paper_distilbert_latency();
}

std::unique_ptr<TrainingTask> GlueTrainingTask::clone() const {
  auto copy = std::make_unique<DistilBertLike>(model_.config());
  copy_parameters(*copy, model_);
  return std::make_unique<GlueTrainingTask>(std::move(copy), data_);
}

}  // namespace rt3
