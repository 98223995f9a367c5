#include "exec/measured_backend.hpp"

#include <algorithm>
#include <cstdint>
#include <utility>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "common/wall_time.hpp"
#include "exec/simd.hpp"

namespace rt3 {
namespace {

/// Scheduling-noise guard: once auto_scale() has set a per-item
/// baseline, a batch's wall time is clamped to this many times baseline x
/// batch size BEFORE it becomes virtual device time (a descheduled kernel
/// thread is host noise, not device work).  kernel_wall_ms stays raw.
constexpr double kOutlierClamp = 8.0;

bool is_aligned(const float* p) {
  return reinterpret_cast<std::uintptr_t>(p) % AlignedFloats::kAlign == 0;
}

/// Validated before pool_ construction (member-init order), so no thread
/// starts for a bad count: an out-of-range count is a caller bug, not
/// something to clamp.
std::int64_t checked_threads(std::int64_t threads) {
  constexpr std::int64_t kMax = MeasuredBackendConfig::kMaxThreads;
  if (threads < 1 || threads > kMax) {
    throw CheckError("MeasuredBackend: threads=" + std::to_string(threads) +
                     " is invalid (need 1.." + std::to_string(kMax) + ")");
  }
  return threads;
}

}  // namespace

std::int64_t MeasuredBackendConfig::default_threads() {
  return std::clamp<std::int64_t>(cpu_cores() - 1, 1, kMaxThreads);
}

MeasuredBackend::MeasuredBackend(MeasuredBackendConfig config,
                                 std::vector<Linear*> layers,
                                 const std::vector<Tensor>& backbone_masks,
                                 const std::vector<PatternSet>& sets,
                                 std::vector<double> level_freqs_mhz)
    : config_(config),
      layers_(std::move(layers)),
      freqs_(std::move(level_freqs_mhz)),
      plans_(config.mode, layers_, backbone_masks, sets,
             static_cast<std::int64_t>(freqs_.size())),
      pool_(checked_threads(config.threads), /*pin_to_cores=*/true) {
  check(!freqs_.empty(), "MeasuredBackend: no levels");
  check(plans_.num_levels() == static_cast<std::int64_t>(freqs_.size()),
        "MeasuredBackend: one frequency per plan level required");
  check(config_.cols_per_request >= 1 && config_.max_batch >= 1,
        "MeasuredBackend: bad activation sizing");
  check(config_.latency_scale > 0.0, "MeasuredBackend: bad latency scale");
  for (double f : freqs_) {
    check(f > 0.0, "MeasuredBackend: bad level frequency");
  }
  // The masters hold the draws Tensor::randn would make, in its order.
  Rng rng(config_.input_seed);
  const std::int64_t max_n = config_.max_batch * config_.cols_per_request;
  inputs_.reserve(layers_.size());
  outputs_.reserve(layers_.size());
  for (const Linear* layer : layers_) {
    const Tensor& w = layer->weight().value();
    inputs_.emplace_back(static_cast<std::size_t>(w.size(1) * max_n));
    for (float& x : inputs_.back()) {
      x = static_cast<float>(rng.normal(0.0, 1.0));
    }
    outputs_.emplace_back(static_cast<std::size_t>(w.size(0) * max_n));
    check(is_aligned(inputs_.back().data()) &&
              is_aligned(outputs_.back().data()),
          "MeasuredBackend: workspace not cache-line aligned");
  }
  output_cols_.assign(layers_.size(), 0);
  calls_.resize(layers_.size());
}

ActivationView MeasuredBackend::batch_input(std::int64_t layer,
                                            std::int64_t batch) const {
  check(layer >= 0 && layer < plans_.num_layers(),
        "MeasuredBackend: layer out of range");
  check(batch >= 1 && batch <= config_.max_batch,
        "MeasuredBackend: batch size outside the activation buffer");
  const std::int64_t n = batch * config_.cols_per_request;
  return {inputs_[static_cast<std::size_t>(layer)].data(),
          plans_.plan(layer, 0).cols, n, n};
}

double MeasuredBackend::time_into_workspace(std::int64_t layer,
                                            std::int64_t level,
                                            std::int64_t batch,
                                            const KernelOptions& options,
                                            ThreadPool* pool) {
  const LayerPlan& plan = plans_.plan(layer, level);
  const auto li = static_cast<std::size_t>(layer);
  const ActivationView x = batch_input(layer, batch);
  const auto t0 = wall_now();
  plan_gemm_into(plan, x, outputs_[li].data(), pool, options);
  const double ms = wall_ms_since(t0);
  output_cols_[li] = x.n;
  sink_ += *outputs_[li].data();
  return ms;
}

double MeasuredBackend::run_layers_wall_ms(std::int64_t batch) {
  // Only kernel calls are timed: activations are read in place and every
  // output goes to a workspace allocated at construction.
  const auto t0 = wall_now();
  for (std::size_t li = 0; li < layers_.size(); ++li) {
    const auto layer = static_cast<std::int64_t>(li);
    const LayerPlan& plan = plans_.active_plan(layer);
    calls_[li] = {&plan, batch_input(layer, batch), outputs_[li].data(),
                  plan.tuned ? *plan.tuned : config_.kernel};
    output_cols_[li] = calls_[li].x.n;
  }
  plan_gemm_into(calls_, &pool_);
  const double ms = wall_ms_since(t0);
  for (const AlignedFloats& out : outputs_) {
    sink_ += *out.data();
  }
  return ms;
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
  const double wall = run_layers_wall_ms(batch_size);
  total_kernel_wall_ms_ += wall;
  // A scheduler hiccup can inflate one sample 10-50x; that is host noise,
  // not device work, so virtual time uses the clamped sample.
  double accounted = wall;
  if (baseline_item_wall_ms_ > 0.0) {
    const auto items = static_cast<double>(batch_size);
    const double cap = kOutlierClamp * baseline_item_wall_ms_ * items;
    accounted = std::min(accounted, cap);
  }
  // Slower levels take proportionally longer (fastest_freq / level_freq),
  // emulating DVFS that the host cannot perform.
  const double level_freq = freqs_[static_cast<std::size_t>(level_pos)];
  const double slowdown = freqs_.front() / level_freq;
  return {accounted * config_.latency_scale * slowdown, wall};
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
  return time_into_workspace(layer, level, batch, options, &pool_);
}

double MeasuredBackend::time_layer_on_caller_ms(std::int64_t layer,
                                                std::int64_t level,
                                                std::int64_t batch,
                                                const KernelOptions& options) {
  return time_into_workspace(layer, level, batch, options, nullptr);
}

Tensor MeasuredBackend::last_output(std::int64_t layer) const {
  check(layer >= 0 && layer < plans_.num_layers(),
        "MeasuredBackend: layer out of range");
  const auto li = static_cast<std::size_t>(layer);
  const std::int64_t rows = plans_.plan(layer, 0).rows;
  const auto* begin = outputs_[li].data();
  return Tensor({rows, output_cols_[li]},
                std::vector<float>(begin, begin + rows * output_cols_[li]));
}

void MeasuredBackend::auto_scale(double target_ms) {
  check(target_ms > 0.0, "MeasuredBackend: bad auto-scale target");
  const std::int64_t restore = plans_.active_level();
  plans_.swap_to(0);
  run_layers_wall_ms(1);  // warm caches and pool
  std::vector<double> walls;
  for (int rep = 0; rep < 5; ++rep) {
    walls.push_back(run_layers_wall_ms(1));
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
