// The training-task seam: everything the trainers and the RT3 pipeline
// need from a workload.  The paper runs one algorithm on two workloads
// (Tables III-IV), so `train`, `joint_train` and `Rt3Pipeline` are
// written once over this interface, with one implementation per
// workload:
//
//   LmTrainingTask    TransformerLm on the WikiText-2 analog `Corpus`
//   GlueTrainingTask  DistilBertLike on one GLUE-analog `GlueDataset`
//
// A task holds a reference to its data (which must outlive it) and
// either references or owns its model.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common/rng.hpp"
#include "data/corpus.hpp"
#include "data/glue.hpp"
#include "nn/distilbert.hpp"
#include "nn/module.hpp"
#include "nn/transformer_lm.hpp"
#include "perf/latency_model.hpp"
#include "perf/model_spec.hpp"

namespace rt3 {

/// Copies parameter values between two structurally identical modules
/// (matched by name).
void copy_parameters(Module& dst, const Module& src);

class TrainingTask {
 public:
  TrainingTask() = default;
  TrainingTask(const TrainingTask&) = delete;
  TrainingTask& operator=(const TrainingTask&) = delete;
  virtual ~TrainingTask() = default;

  /// The model being trained: its parameters feed the optimizer and the
  /// deployment package.
  virtual const Module& model() const = 0;
  /// The layers block and pattern pruning act on.
  virtual std::vector<Linear*> prunable() = 0;

  /// Draws the next training minibatch of `batch` examples from `rng`
  /// and holds it for `minibatch_loss`.  LM examples are windows of
  /// `seq_len` tokens; GLUE examples have their dataset's fixed length.
  virtual void draw_minibatch(Rng& rng, std::int64_t batch,
                              std::int64_t seq_len) = 0;
  /// Loss of the held minibatch under the masks installed now.
  virtual Var minibatch_loss() const = 0;
  /// The dev metric.  LM: next-word accuracy over up to 8 validation
  /// batches of `batch` windows of `seq_len` tokens.  GLUE: the task's
  /// GLUE metric over the whole dev split (the shape is unused).
  virtual double dev_metric(std::int64_t batch,
                            std::int64_t seq_len) const = 0;

  /// The paper-scale model this workload stands in for.
  virtual ModelSpec paper_spec() const = 0;
  /// A latency model calibrated on that model's paper anchor.
  virtual LatencyModel paper_latency() const = 0;

  /// A task that owns an unmasked copy of this model's current
  /// parameters, on the same data.
  virtual std::unique_ptr<TrainingTask> clone() const = 0;
};

class LmTrainingTask final : public TrainingTask {
 public:
  LmTrainingTask(TransformerLm& model, const Corpus& corpus);
  LmTrainingTask(std::unique_ptr<TransformerLm> model, const Corpus& corpus);

  const Module& model() const override { return model_; }
  std::vector<Linear*> prunable() override { return model_.prunable(); }
  void draw_minibatch(Rng& rng, std::int64_t batch,
                      std::int64_t seq_len) override;
  Var minibatch_loss() const override;
  double dev_metric(std::int64_t batch, std::int64_t seq_len) const override;
  ModelSpec paper_spec() const override;
  LatencyModel paper_latency() const override;
  std::unique_ptr<TrainingTask> clone() const override;

 private:
  std::unique_ptr<TransformerLm> owned_;
  TransformerLm& model_;
  const Corpus& corpus_;
  LmBatch minibatch_;
};

class GlueTrainingTask final : public TrainingTask {
 public:
  GlueTrainingTask(DistilBertLike& model, const GlueDataset& data);
  GlueTrainingTask(std::unique_ptr<DistilBertLike> model,
                   const GlueDataset& data);

  const Module& model() const override { return model_; }
  std::vector<Linear*> prunable() override { return model_.prunable(); }
  void draw_minibatch(Rng& rng, std::int64_t batch,
                      std::int64_t seq_len) override;
  Var minibatch_loss() const override;
  double dev_metric(std::int64_t batch, std::int64_t seq_len) const override;
  ModelSpec paper_spec() const override;
  LatencyModel paper_latency() const override;
  std::unique_ptr<TrainingTask> clone() const override;

 private:
  std::unique_ptr<DistilBertLike> owned_;
  DistilBertLike& model_;
  const GlueDataset& data_;
  std::vector<GlueExample> minibatch_;
};

}  // namespace rt3
