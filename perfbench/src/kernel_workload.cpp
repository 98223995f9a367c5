// kernel-levels: a closed loop of back-to-back MeasuredBackend calls over
// a transformer-encoder-shaped backbone (4 d x d attention projections,
// a d x 4d and a 4d x d FFN layer, d = 512), cycling the {l6, l4, l3}
// pattern sets.  One caller thread plus the backend's 2 pinned workers.
#include <array>
#include <cstring>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "clock.hpp"
#include "common/check.hpp"
#include "common/rng.hpp"
#include "dvfs/dvfs.hpp"
#include "exec/kernels.hpp"
#include "exec/measured_backend.hpp"
#include "pruning/model_pruner.hpp"
#include "pruning/pattern_prune.hpp"
#include "serve/session.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

constexpr std::int64_t kDim = 512;
constexpr std::int64_t kLevels = 3;
constexpr std::int64_t kSetupRepeats = 3;
/// Calls per level block: the first batch-1 call of a block follows a
/// level change, so post-switch calls are 1 / kB1PerBlock of the batch-1
/// samples.
constexpr std::int64_t kB1PerBlock = 8;
constexpr std::int64_t kB8PerBlock = 4;
/// Activation columns per request (the MeasuredBackend default).
constexpr std::int64_t kColsPerRequest = 4;
/// Traced run: run_layer repeats per (layer, level, batch) and the
/// number of timed level activations.
constexpr std::int64_t kLayerRepeats = 25;
constexpr std::int64_t kSwapProbes = 3000;
/// Reference-check width: 4 full 8-lane vectors plus a 4-column tail.
constexpr std::int64_t kCheckCols = 36;

/// Layer index -> kind index into layer_kinds() (attn, ffn_up, ffn_down).
constexpr std::array<std::size_t, 6> kLayerKind = {0, 0, 0, 0, 1, 2};

struct KernelRig {
  std::vector<std::unique_ptr<rt3::Linear>> owned;
  std::vector<rt3::Linear*> layers;
  std::unique_ptr<rt3::ModelPruner> pruner;
  std::unique_ptr<rt3::MeasuredBackend> backend;
};

KernelRig build_rig(std::uint64_t seed) {
  KernelRig rig;
  rt3::Rng rng(derive_seed(seed, 1));
  const std::array<std::array<std::int64_t, 2>, 6> shapes = {{
      {kDim, kDim}, {kDim, kDim}, {kDim, kDim}, {kDim, kDim},
      {kDim, 4 * kDim}, {4 * kDim, kDim}}};
  for (const auto& [in, out] : shapes) {
    rig.owned.push_back(std::make_unique<rt3::Linear>(in, out, rng));
    rig.layers.push_back(rig.owned.back().get());
  }
  rig.pruner = std::make_unique<rt3::ModelPruner>(rig.layers);
  rt3::BpConfig bp;
  bp.num_blocks = 4;
  bp.prune_fraction = 0.25;
  rig.pruner->apply_bp(bp);
  std::vector<rt3::PatternSet> sets;
  for (const double sparsity : {0.25, 0.5, 0.75}) {  // l6, l4, l3
    sets.push_back(rt3::random_pattern_set(4, sparsity, 2, rng));
  }
  const rt3::VfTable table = rt3::VfTable::odroid_xu3_a7();
  std::vector<double> freqs;
  for (const std::int64_t li : rt3::paper_serve_ladder()) {
    freqs.push_back(table.level(li).freq_mhz);
  }
  rt3::MeasuredBackendConfig cfg;  // library defaults: 2 pinned threads
  cfg.mode = rt3::ExecMode::kPattern;
  cfg.input_seed = derive_seed(seed, 2);
  rt3::check(cfg.cols_per_request == kColsPerRequest,
             "perfbench: MeasuredBackend default cols_per_request changed");
  rig.backend = std::make_unique<rt3::MeasuredBackend>(
      cfg, rig.layers, rig.pruner->backbone_masks(), sets, std::move(freqs));
  return rig;
}

/// Times one call; records it as a span when `spans` is set.
template <typename Fn>
double timed(SpanRecorder* spans, SpanKind kind, Fn&& fn) {
  const double t0 = host_ms();
  fn();
  const double t1 = host_ms();
  if (spans != nullptr) {
    spans->record(kind, t0, t1);
  }
  return t1 - t0;
}

std::int64_t count_nonzero(const rt3::Tensor& t) {
  std::int64_t n = 0;
  for (std::int64_t i = 0; i < t.numel(); ++i) {
    n += t.data()[i] != 0.0F ? 1 : 0;
  }
  return n;
}

}  // namespace

Result run_kernel_levels(const RunOptions& opt) {
  Result result;
  std::vector<double> setup_s;
  std::vector<double> plan_build_s;
  KernelRig rig;
  for (std::int64_t r = 0; r < kSetupRepeats; ++r) {
    rig = KernelRig{};
    const double t0 = host_ms();
    rig = build_rig(opt.seed);
    setup_s.push_back((host_ms() - t0) / 1e3);
    plan_build_s.push_back(rig.backend->plans().build_wall_ms() / 1e3);
  }
  rt3::MeasuredBackend& backend = *rig.backend;
  const auto num_layers = static_cast<std::int64_t>(rig.layers.size());

  // Warm-up: every level's plans and the worker pool.
  for (std::int64_t pos = 0; pos < kLevels; ++pos) {
    backend.activate_level(pos);
    backend.run_batch(1, pos);
    backend.run_batch(8, pos);
  }

  // Timed closed loop.  Each cycle activates l6, l4, l3 in turn and issues
  // a block of batch-1 then batch-8 calls at each.  A traced run records
  // spans on every other cycle; the untraced cycles between give the
  // tracing overhead.
  SpanRecorder spans;
  std::array<std::vector<double>, kLevels> b1_by_level;
  std::vector<double> b1_ms;
  std::vector<std::int64_t> b1_level;
  std::vector<double> b1_post_switch_ms;
  std::vector<double> b8_ms;
  std::vector<std::int64_t> b8_level;
  double traced_cycle_ms = 0.0;
  double plain_cycle_ms = 0.0;
  std::int64_t traced_cycles = 0;
  std::int64_t plain_cycles = 0;
  std::int64_t activations = 0;
  const auto check_exec = [&](const rt3::BatchExecution& exec) {
    result.op(exec.kernel_wall_ms > 0.0 && exec.latency_ms > 0.0,
              "run_batch reported no kernel time");
  };
  const double deadline = host_ms() + opt.seconds * 1e3;
  // A traced run needs at least one traced and one untraced cycle.
  const std::int64_t min_cycles = opt.traced ? 2 : 1;
  for (std::int64_t cycle = 0; cycle < min_cycles || host_ms() < deadline;
       ++cycle) {
    const bool trace_cycle = opt.traced && cycle % 2 == 1;
    SpanRecorder* rec = trace_cycle ? &spans : nullptr;
    const double c0 = host_ms();
    for (std::int64_t pos = 0; pos < kLevels; ++pos) {
      for (std::int64_t i = 0; i < kB1PerBlock; ++i) {
        double ms = 0.0;
        if (i == 0) {
          ms += timed(rec, SpanKind::kActivateLevel,
                      [&] { backend.activate_level(pos); });
          ++activations;
        }
        ms += timed(rec, SpanKind::kRunBatch,
                    [&] { check_exec(backend.run_batch(1, pos)); });
        b1_ms.push_back(ms);
        b1_level.push_back(pos);
        b1_by_level[static_cast<std::size_t>(pos)].push_back(ms);
        if (i == 0) {
          b1_post_switch_ms.push_back(ms);
        }
      }
      for (std::int64_t i = 0; i < kB8PerBlock; ++i) {
        b8_level.push_back(pos);
        b8_ms.push_back(timed(rec, SpanKind::kRunBatch, [&] {
          check_exec(backend.run_batch(8, pos));
        }));
      }
    }
    const double cycle_ms = host_ms() - c0;
    if (trace_cycle) {
      traced_cycle_ms += cycle_ms;
      ++traced_cycles;
    } else {
      plain_cycle_ms += cycle_ms;
      ++plain_cycles;
    }
  }
  const double loop_exec_ms = spans.total_ms(SpanKind::kRunBatch) +
                              spans.total_ms(SpanKind::kActivateLevel);

  // Reference checks: every (layer, level) plan against the naive kernel.
  rt3::Rng xrng(derive_seed(opt.seed, 3));
  std::array<std::array<double, kLevels>, 6> nnz{};
  for (std::int64_t level = 0; level < kLevels; ++level) {
    backend.activate_level(level);
    for (std::int64_t layer = 0; layer < num_layers; ++layer) {
      const rt3::LayerPlan& plan = backend.plans().plan(layer, level);
      const rt3::Tensor dense = plan.dense_equivalent();
      nnz[static_cast<std::size_t>(layer)][static_cast<std::size_t>(level)] =
          static_cast<double>(count_nonzero(dense));
      const rt3::Tensor x = rt3::Tensor::randn({plan.cols, kCheckCols}, xrng);
      const rt3::Tensor out = backend.run_layer(layer, x);
      const rt3::Tensor ref = rt3::naive_dense_matmul(dense, x);
      const bool equal =
          out.numel() == ref.numel() &&
          std::memcmp(out.data(), ref.data(),
                      static_cast<std::size_t>(ref.numel()) * sizeof(float)) ==
              0;
      result.op(equal, "run_layer(" + std::to_string(layer) + ") at " +
                           level_names()[static_cast<std::size_t>(level)] +
                           " is not bitwise equal to naive_dense_matmul");
    }
  }

  // Per level, the fastest of its repeats (see best_per_input).
  const std::vector<double> b1_best = best_per_input(b1_level, b1_ms, kLevels);
  const std::vector<double> b8_best = best_per_input(b8_level, b8_ms, kLevels);
  const double b8_req_per_s = 8.0 / (mean(b8_best) / 1e3);
  result.line("setup: median of " + std::to_string(kSetupRepeats) +
              " backend builds; timed loop: " + std::to_string(b1_ms.size()) +
              " batch-1 and " + std::to_string(b8_ms.size()) +
              " batch-8 run_batch calls, " + std::to_string(activations) +
              " level changes (" + std::to_string(b1_post_switch_ms.size()) +
              " post-switch batch-1 samples)");
  result.line("workload metrics:");
  result.detail("setup_s", median(setup_s), "s");
  result.detail("b1_ms_best (mean over levels)", mean(b1_best), "ms");
  result.detail("b1_ms_p50", median(b1_ms), "ms");
  if (const std::optional<Tail> tail = highest_tail(b1_ms)) {
    result.detail("b1_ms_p" + json_number(tail->p), tail->value, "ms");
  }
  result.detail("b1_post_switch_ms_p50", median(b1_post_switch_ms), "ms");
  result.detail("b8_ms_p50", median(b8_ms), "ms");
  result.detail("b8_req_per_s (fastest call of each level)", b8_req_per_s,
                "req/s");
  double b8_total_s = 0.0;
  for (const double ms : b8_ms) {
    b8_total_s += ms / 1e3;
  }
  result.detail("b8_req_per_s (all calls)",
                8.0 * static_cast<double>(b8_ms.size()) / b8_total_s, "req/s");

  if (!opt.traced) {
    result.set("setup_s", median(setup_s));
    result.set("req_per_s", b8_req_per_s);
    result.set("call_ms_best", mean(b1_best));
    return result;
  }

  // Per-layer pass: run_layer on a fixed activation of each batch width.
  result.line("exec.layer_gflops counts 2 x kept non-zeros (from each "
              "plan's dense_equivalent) x columns / wall time");
  for (std::int64_t level = 0; level < kLevels; ++level) {
    backend.activate_level(level);
    const std::string& level_name =
        level_names()[static_cast<std::size_t>(level)];
    for (std::size_t kind = 0; kind < layer_kinds().size(); ++kind) {
      for (const std::int64_t batch : {1, 8}) {
        const std::int64_t cols = batch * kColsPerRequest;
        std::vector<double> samples;
        double kind_nnz = 0.0;
        std::int64_t kind_layers = 0;
        for (std::int64_t layer = 0; layer < num_layers; ++layer) {
          if (kLayerKind[static_cast<std::size_t>(layer)] != kind) {
            continue;
          }
          const rt3::Tensor x = rt3::Tensor::randn(
              {backend.plans().plan(layer, level).cols, cols}, xrng);
          backend.run_layer(layer, x);  // warm
          for (std::int64_t rep = 0; rep < kLayerRepeats; ++rep) {
            samples.push_back(timed(&spans, SpanKind::kRunLayer,
                                    [&] { backend.run_layer(layer, x); }));
          }
          kind_nnz +=
              nnz[static_cast<std::size_t>(layer)][static_cast<std::size_t>(level)];
          ++kind_layers;
        }
        const double p50 = median(samples);
        const std::string key = layer_kinds()[kind] + "." + level_name + "." +
                                (batch == 1 ? "b1" : "b8");
        const double mean_nnz = kind_nnz / static_cast<double>(kind_layers);
        result.set("exec.layer_ms_p50." + key, p50);
        result.set("exec.layer_gflops." + key,
                   2.0 * mean_nnz * static_cast<double>(cols) / (p50 * 1e6));
      }
    }
  }

  // Swap probe: timed level activations, each a real transition.
  std::vector<double> swap_us;
  for (std::int64_t i = 0; i < kSwapProbes; ++i) {
    swap_us.push_back(1e3 * timed(&spans, SpanKind::kActivateLevel, [&] {
                        backend.activate_level(i % kLevels);
                      }));
  }

  const double l6 = median(b1_by_level[0]);
  result.set("exec.level_ratio.l4", median(b1_by_level[1]) / l6);
  result.set("exec.level_ratio.l3", median(b1_by_level[2]) / l6);
  if (const auto p99 = tail_percentile(swap_us, 99.0)) {
    result.set("exec.swap_us_p99", *p99);
  }
  result.set("exec.run_batch_calls",
             static_cast<double>(b1_ms.size() + b8_ms.size()));
  result.set("exec.activate_calls", static_cast<double>(activations));
  result.set("exec.self_share", loop_exec_ms / traced_cycle_ms);
  result.set("exec.plan_build_s", median(plan_build_s));
  result.set("setup.build_s", median(setup_s));
  const double overhead = (traced_cycle_ms / static_cast<double>(traced_cycles)) /
                          (plain_cycle_ms / static_cast<double>(plain_cycles));
  result.set("trace.overhead_ratio", overhead);
  result.line("tracing overhead: traced cycle mean / untraced cycle mean = " +
              json_number(overhead) + " over " + std::to_string(traced_cycles) +
              " + " + std::to_string(plain_cycles) + " cycles");
  write_trace(spans, opt.trace_path, result);
  return result;
}

}  // namespace perfbench
