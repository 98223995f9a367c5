#include "exec/measured_backend.hpp"

#include <algorithm>
#include <utility>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "common/wall_time.hpp"

namespace rt3 {
namespace {

/// Validated before pool_ construction (member-init order): a
/// non-positive thread count is a caller bug, not something to clamp
/// silently to 1.
std::int64_t checked_threads(std::int64_t threads) {
  check(threads >= 1, "MeasuredBackend: threads must be >= 1");
  return threads;
}

}  // namespace

MeasuredBackend::MeasuredBackend(MeasuredBackendConfig config,
                                 std::vector<Linear*> layers,
                                 const std::vector<Tensor>& backbone_masks,
                                 const std::vector<PatternSet>& sets,
                                 std::vector<double> level_freqs_mhz)
    : config_(config),
      layers_(std::move(layers)),
      freqs_(std::move(level_freqs_mhz)),
      plans_(config.mode, layers_, backbone_masks, sets,
             static_cast<std::int64_t>(freqs_.size()), config.bp_blocks),
      pool_(checked_threads(config.threads), config.pin_threads) {
  check(!freqs_.empty(), "MeasuredBackend: no levels");
  check(plans_.num_levels() == static_cast<std::int64_t>(freqs_.size()),
        "MeasuredBackend: one frequency per plan level required");
  check(config_.cols_per_request >= 1 && config_.max_batch >= 1,
        "MeasuredBackend: bad activation sizing");
  check(config_.latency_scale > 0.0, "MeasuredBackend: bad latency scale");
  for (double f : freqs_) {
    check(f > 0.0, "MeasuredBackend: bad level frequency");
  }
  Rng rng(config_.input_seed);
  const std::int64_t max_n = config_.max_batch * config_.cols_per_request;
  inputs_.reserve(layers_.size());
  for (const Linear* layer : layers_) {
    inputs_.push_back(
        Tensor::randn({layer->weight().value().size(1), max_n}, rng));
  }
}

Tensor MeasuredBackend::batch_input(std::int64_t li, std::int64_t n) const {
  const Tensor& master = inputs_[static_cast<std::size_t>(li)];
  const std::int64_t rows = master.size(0);
  const std::int64_t max_n = master.size(1);
  Tensor x({rows, n});
  for (std::int64_t r = 0; r < rows; ++r) {
    const float* src = master.data() + r * max_n;
    std::copy(src, src + n, x.data() + r * n);
  }
  return x;
}

double MeasuredBackend::run_layers_wall_ms(std::int64_t n) {
  // Activation slices are prepared OUTSIDE the timed region: the kernel
  // measurement covers GEMM work, not buffer bookkeeping.
  std::vector<Tensor> xs;
  xs.reserve(layers_.size());
  for (std::size_t li = 0; li < layers_.size(); ++li) {
    xs.push_back(batch_input(static_cast<std::int64_t>(li), n));
  }
  const auto t0 = wall_now();
  for (std::size_t li = 0; li < layers_.size(); ++li) {
    const LayerPlan& plan = plans_.active_plan(static_cast<std::int64_t>(li));
    const Tensor out =
        plan_gemm(plan, xs[li], &pool_,
                  plan.tuned ? *plan.tuned : config_.kernel);
    sink_ += out[0];
  }
  return wall_ms_since(t0);
}

BatchExecution MeasuredBackend::run_batch(std::int64_t batch_size,
                                          std::int64_t level_pos) {
  check(batch_size >= 1 && batch_size <= config_.max_batch,
        "MeasuredBackend: batch size outside the activation buffer");
  check(level_pos >= 0 && level_pos < num_levels(),
        "MeasuredBackend: level position out of range");
  if (plans_.active_level() != level_pos) {
    plans_.swap_to(level_pos);  // defensive; the Server activates first
  }
  const double wall =
      run_layers_wall_ms(batch_size * config_.cols_per_request);
  total_kernel_wall_ms_ += wall;
  // A scheduler hiccup can inflate one sample 10-50x; that is host noise,
  // not device work, so virtual time uses the clamped sample.
  double accounted = wall;
  if (config_.outlier_clamp > 0.0 && baseline_item_wall_ms_ > 0.0) {
    accounted = std::min(accounted,
                         config_.outlier_clamp * baseline_item_wall_ms_ *
                             static_cast<double>(batch_size));
  }
  double latency = accounted * config_.latency_scale;
  if (config_.scale_with_freq) {
    latency *= freqs_.front() / freqs_[static_cast<std::size_t>(level_pos)];
  }
  return {latency, wall};
}

double MeasuredBackend::activate_level(std::int64_t level_pos) {
  check(level_pos >= 0 && level_pos < num_levels(),
        "MeasuredBackend: level position out of range");
  return plans_.swap_to(level_pos);
}

Tensor MeasuredBackend::run_layer(std::int64_t layer, const Tensor& x) {
  const LayerPlan& plan = plans_.active_plan(layer);
  return plan_gemm(plan, x, &pool_,
                   plan.tuned ? *plan.tuned : config_.kernel);
}

double MeasuredBackend::time_layer_ms(std::int64_t layer, std::int64_t level,
                                      std::int64_t batch,
                                      const KernelOptions& options) {
  check(batch >= 1 && batch <= config_.max_batch,
        "MeasuredBackend: batch size outside the activation buffer");
  const Tensor x = batch_input(layer, batch * config_.cols_per_request);
  const LayerPlan& plan = plans_.plan(layer, level);
  const auto t0 = wall_now();
  const Tensor out = plan_gemm(plan, x, &pool_, options);
  sink_ += out[0];
  return wall_ms_since(t0);
}

void MeasuredBackend::auto_scale(double target_ms) {
  check(target_ms > 0.0, "MeasuredBackend: bad auto-scale target");
  const std::int64_t restore = plans_.active_level();
  plans_.swap_to(0);
  run_layers_wall_ms(config_.cols_per_request);  // warm caches and pool
  std::vector<double> walls;
  for (int rep = 0; rep < 5; ++rep) {
    walls.push_back(run_layers_wall_ms(config_.cols_per_request));
  }
  std::sort(walls.begin(), walls.end());
  const double median = std::max(walls[walls.size() / 2], 1e-6);
  config_.latency_scale = target_ms / median;
  baseline_item_wall_ms_ = median;
  if (restore >= 0) {
    plans_.swap_to(restore);
  }
}

}  // namespace rt3
