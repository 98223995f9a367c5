// Correctness tests for the measured execution backend: kernels must be
// BITWISE equal to the naive dense reference (dense, block-pruned, and
// pattern-masked weights, including non-multiple-of-psize edge shapes),
// the PlanCache swap must be a cheap pointer swap, the AnalyticBackend
// must reproduce the Server's historical numbers exactly, and the
// Calibrator fit must recover known parameters.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "common/wall_time.hpp"
#include "exec/analytic_backend.hpp"
#include "exec/backend.hpp"
#include "exec/calibrator.hpp"
#include "exec/kernels.hpp"
#include "exec/kernels_dispatch.hpp"
#include "exec/measured_backend.hpp"
#include "exec/plan.hpp"
#include "exec/simd.hpp"
#include "exec/tuner.hpp"
#include "nn/linear.hpp"
#include "obs/trace.hpp"
#include "perf/calibration.hpp"
#include "pruning/model_pruner.hpp"
#include "pruning/pattern_prune.hpp"
#include "runtime/engine.hpp"
#include "serve/server.hpp"
#include "serve/session.hpp"
#include "serve/traffic.hpp"

namespace rt3 {
namespace {

/// Bitwise equality: every float's bit pattern matches.
void expect_bitwise_equal(const Tensor& a, const Tensor& b) {
  ASSERT_EQ(a.shape(), b.shape());
  for (std::int64_t i = 0; i < a.numel(); ++i) {
    std::uint32_t abits = 0;
    std::uint32_t bbits = 0;
    const float av = a[i];
    const float bv = b[i];
    std::memcpy(&abits, &av, sizeof(abits));
    std::memcpy(&bbits, &bv, sizeof(bbits));
    ASSERT_EQ(abits, bbits) << "mismatch at flat index " << i << ": " << av
                            << " vs " << bv;
  }
}

KernelOptions tiny_tiles() {
  KernelOptions options;
  options.k_tile = 5;    // deliberately awkward: exercises tile remainders
  options.row_grain = 3;
  return options;
}

/// Forces the portable scalar kernel table for a scope, restoring the
/// host's detected ISA on exit.
class ScopedScalarIsa {
 public:
  ScopedScalarIsa() : prev_(active_simd_isa()) {
    set_simd_isa(SimdIsa::kScalar);
  }
  ~ScopedScalarIsa() { set_simd_isa(prev_); }

 private:
  SimdIsa prev_;
};

TEST(CompiledPattern, MatchesPatternBits) {
  Rng rng(3);
  const PatternSet set = random_pattern_set(5, 0.6, 1, rng);
  const Pattern& pat = set.patterns[0];
  const CompiledPattern cp = CompiledPattern::compile(pat);
  ASSERT_EQ(cp.row_ptr.size(), 6U);
  EXPECT_EQ(cp.row_ptr[5], static_cast<std::int32_t>(pat.count_kept()));
  for (std::int64_t r = 0; r < 5; ++r) {
    std::int32_t i = cp.row_ptr[static_cast<std::size_t>(r)];
    for (std::int64_t c = 0; c < 5; ++c) {
      if (pat.kept(r, c)) {
        ASSERT_LT(i, cp.row_ptr[static_cast<std::size_t>(r) + 1]);
        EXPECT_EQ(cp.cols[static_cast<std::size_t>(i)], c);
        ++i;
      }
    }
    EXPECT_EQ(i, cp.row_ptr[static_cast<std::size_t>(r) + 1]);
  }
  // kept_indices (the kernel-facing accessor compile() consumes) agrees
  // with the bit mask.
  const auto idx = pat.kept_indices();
  EXPECT_EQ(static_cast<std::int64_t>(idx.size()), pat.count_kept());
  for (std::size_t i = 1; i < idx.size(); ++i) {
    EXPECT_LT(idx[i - 1], idx[i]);
  }
}

TEST(KernelFacingAccessors, PatternMaskedMatrixExposesValuesAndSet) {
  Rng rng(41);
  const PatternSet set = random_pattern_set(4, 0.5, 2, rng);
  const Tensor dense = Tensor::randn({8, 8}, rng);
  const PatternMaskedMatrix pm = PatternMaskedMatrix::from_dense(dense, set);
  EXPECT_EQ(pm.pattern_set().psize(), 4);
  EXPECT_EQ(pm.pattern_set().patterns.size(), set.patterns.size());
  // 4 tiles x 8 kept cells per pattern at 50% sparsity on psize 4.
  EXPECT_EQ(pm.values().size(), 32U);
  EXPECT_EQ(static_cast<std::int64_t>(pm.values().size()),
            pm.to_dense().count_nonzero());
}

TEST(Kernels, DenseGemmBitwiseMatchesNaive) {
  Rng rng(7);
  const Tensor w = Tensor::randn({37, 29}, rng);
  const Tensor x = Tensor::randn({29, 11}, rng);
  const Tensor reference = naive_dense_matmul(w, x);
  ThreadPool pool(3);
  expect_bitwise_equal(dense_gemm(w, x, &pool, tiny_tiles()), reference);
  expect_bitwise_equal(dense_gemm(w, x, nullptr, tiny_tiles()), reference);
  KernelOptions wide;
  wide.k_tile = 1024;  // single k-tile path
  expect_bitwise_equal(dense_gemm(w, x, &pool, wide), reference);
}

TEST(Kernels, BlockGemmBitwiseMatchesNaive) {
  Rng rng(9);
  Tensor dense = Tensor::randn({12, 10}, rng);
  // Zero out whole columns per 4-row block, the Level-1 layout.
  for (std::int64_t b = 0; b < 3; ++b) {
    for (std::int64_t c = b; c < 10; c += 3) {
      for (std::int64_t r = b * 4; r < (b + 1) * 4; ++r) {
        dense[r * 10 + c] = 0.0F;
      }
    }
  }
  const BlockPrunedMatrix bp = BlockPrunedMatrix::from_dense(dense, 3);
  const Tensor x = Tensor::randn({10, 7}, rng);
  const Tensor reference = naive_dense_matmul(bp.to_dense(), x);
  ThreadPool pool(2);
  expect_bitwise_equal(block_gemm(bp, x, &pool, tiny_tiles()), reference);
  expect_bitwise_equal(block_gemm(bp, x, nullptr, tiny_tiles()), reference);
}

TEST(Kernels, PatternGemmBitwiseMatchesNaive) {
  Rng rng(11);
  const PatternSet set = random_pattern_set(4, 0.5, 3, rng);
  const Tensor w = Tensor::randn({16, 12}, rng);
  const PatternPlan plan = PatternPlan::build(w, set);
  const Tensor x = Tensor::randn({12, 9}, rng);
  const Tensor reference = naive_dense_matmul(plan.to_dense(), x);
  ThreadPool pool(3);
  expect_bitwise_equal(pattern_gemm(plan, x, &pool, tiny_tiles()), reference);
  expect_bitwise_equal(pattern_gemm(plan, x, nullptr, tiny_tiles()),
                       reference);
}

TEST(Kernels, PatternGemmHandlesNonMultipleOfPsizeEdges) {
  Rng rng(13);
  const PatternSet set = random_pattern_set(4, 0.4, 2, rng);
  // 10 x 13 with psize 4: ragged tiles on both edges.
  const Tensor w = Tensor::randn({10, 13}, rng);
  const PatternPlan plan = PatternPlan::build(w, set);
  EXPECT_EQ(plan.tiles_r, 3);
  EXPECT_EQ(plan.tiles_c, 4);
  // Clipped tiles carry private CSRs; every kept value is in bounds.
  const Tensor masked = plan.to_dense();
  EXPECT_EQ(masked.size(0), 10);
  EXPECT_EQ(masked.size(1), 13);
  EXPECT_GT(plan.sparsity(), 0.0);
  const Tensor x = Tensor::randn({13, 6}, rng);
  const Tensor reference = naive_dense_matmul(masked, x);
  ThreadPool pool(2);
  expect_bitwise_equal(pattern_gemm(plan, x, &pool, tiny_tiles()), reference);
}

TEST(SimdIsa, NamesRoundTripAndTopologyProbesAreSane) {
  for (SimdIsa isa :
       {SimdIsa::kScalar, SimdIsa::kNeon, SimdIsa::kAvx2}) {
    EXPECT_EQ(simd_isa_from_name(simd_isa_name(isa)), isa);
  }
  EXPECT_THROW(simd_isa_from_name("avx512"), CheckError);
  EXPECT_GE(simd_isa_width(detect_simd_isa()), 1);
  EXPECT_GT(cpu_l1d_bytes(), 0);
  EXPECT_GT(cpu_l2_bytes(), 0);
  EXPECT_GE(cpu_cores(), 1);
  // Forcing scalar is always allowed; the guard restores detection.
  {
    ScopedScalarIsa guard;
    EXPECT_EQ(active_simd_isa(), SimdIsa::kScalar);
    EXPECT_EQ(kernel_table_for(active_simd_isa()).width, 1);
  }
  EXPECT_EQ(active_simd_isa(), detect_simd_isa());
  for (ExecMode mode : {ExecMode::kDense, ExecMode::kBlock,
                        ExecMode::kPattern, ExecMode::kIrregular}) {
    EXPECT_EQ(exec_mode_from_name(exec_mode_name(mode)), mode);
  }
  EXPECT_THROW(exec_mode_from_name("banded"), CheckError);
}

TEST(SimdKernels, RaggedShapesBitwiseMatchScalarAcrossUnrolls) {
  // n = 45 covers every code path at the widest unroll (8-lane x 4-chain
  // block, single-vector tail, scalar tail lanes); 19 x 23 weights keep
  // row partitioning and k-tiling ragged too.  The SIMD table must match
  // the forced-scalar table AND the naive reference bitwise, lane-wise.
  Rng rng(51);
  const Tensor w = Tensor::randn({19, 23}, rng);
  const Tensor x = Tensor::randn({23, 45}, rng);
  const Tensor reference = naive_dense_matmul(w, x);
  ThreadPool pool(3);
  for (std::int64_t unroll : {1, 2, 4}) {
    KernelOptions o = tiny_tiles();
    o.unroll = unroll;
    {
      ScopedScalarIsa guard;
      expect_bitwise_equal(dense_gemm(w, x, &pool, o), reference);
    }
    expect_bitwise_equal(dense_gemm(w, x, &pool, o), reference);
    expect_bitwise_equal(dense_gemm(w, x, nullptr, o), reference);
  }
}

TEST(SimdKernels, BlockAndPatternFamiliesMatchScalarOnRaggedShapes) {
  Rng rng(53);
  // Block family: 14 rows over 2 blocks, 45 activation columns.
  Tensor bw = Tensor::randn({14, 10}, rng);
  for (std::int64_t i = 0; i < bw.numel(); ++i) {
    if (rng.bernoulli(0.4)) {
      bw[i] = 0.0F;
    }
  }
  const BlockPrunedMatrix bp = BlockPrunedMatrix::from_dense(bw, 2);
  const Tensor bx = Tensor::randn({10, 45}, rng);
  const Tensor bref = naive_dense_matmul(bp.to_dense(), bx);
  // Pattern family: 10 x 13 with psize 4 (clipped edge tiles).
  const PatternSet set = random_pattern_set(4, 0.4, 2, rng);
  const Tensor pw = Tensor::randn({10, 13}, rng);
  const PatternPlan plan = PatternPlan::build(pw, set);
  const Tensor px = Tensor::randn({13, 45}, rng);
  const Tensor pref = naive_dense_matmul(plan.to_dense(), px);
  ThreadPool pool(2);
  for (std::int64_t unroll : {1, 2, 4}) {
    KernelOptions o = tiny_tiles();
    o.unroll = unroll;
    {
      ScopedScalarIsa guard;
      expect_bitwise_equal(block_gemm(bp, bx, &pool, o), bref);
      expect_bitwise_equal(pattern_gemm(plan, px, &pool, o), pref);
    }
    expect_bitwise_equal(block_gemm(bp, bx, &pool, o), bref);
    expect_bitwise_equal(pattern_gemm(plan, px, &pool, o), pref);
  }
}

TEST(SimdKernels, EveryActivationWidthBitwiseMatchesNaive) {
  // Every activation width from 1 to 2W + W/2 + 1 walks each rung of the
  // width ladder (W*U, W, the half-width vector, single lanes) alone and
  // in every combination, at every unroll, serially and on a pool.  Pattern
  // shapes are not psize multiples, so clipped edge tiles run, and psize
  // 16 sweeps its tile rows in two resident row groups.
  Rng rng(57);
  const std::int64_t width = kernel_table_for(detect_simd_isa()).width;
  const Tensor dw = Tensor::randn({13, 11}, rng);
  Tensor bw = Tensor::randn({12, 10}, rng);
  for (std::int64_t i = 0; i < bw.numel(); ++i) {
    if (rng.bernoulli(0.4)) {
      bw[i] = 0.0F;
    }
  }
  const BlockPrunedMatrix bp = BlockPrunedMatrix::from_dense(bw, 3);
  std::vector<PatternPlan> plans;
  for (const std::int64_t psize : {2, 3, 4, 8, 16}) {
    const PatternSet set = random_pattern_set(psize, 0.5, 3, rng);
    plans.push_back(PatternPlan::build(
        Tensor::randn({2 * psize + 3, psize + 5}, rng), set));
  }
  ThreadPool pool(3);
  for (std::int64_t n = 1; n <= 2 * width + width / 2 + 1; ++n) {
    const Tensor dx = Tensor::randn({11, n}, rng);
    const Tensor dref = naive_dense_matmul(dw, dx);
    const Tensor bx = Tensor::randn({10, n}, rng);
    const Tensor bref = naive_dense_matmul(bp.to_dense(), bx);
    std::vector<Tensor> px;
    std::vector<Tensor> pref;
    for (const PatternPlan& plan : plans) {
      px.push_back(Tensor::randn({plan.cols, n}, rng));
      pref.push_back(naive_dense_matmul(plan.to_dense(), px.back()));
    }
    for (const std::int64_t unroll : {1, 2, 4}) {
      KernelOptions o = tiny_tiles();
      o.unroll = unroll;
      for (ThreadPool* p : {static_cast<ThreadPool*>(nullptr), &pool}) {
        SCOPED_TRACE("n=" + std::to_string(n) +
                     " unroll=" + std::to_string(unroll) +
                     (p == nullptr ? " serial" : " pool"));
        for (const bool scalar : {false, true}) {
          std::optional<ScopedScalarIsa> guard;
          if (scalar) {
            guard.emplace();
          }
          expect_bitwise_equal(dense_gemm(dw, dx, p, o), dref);
          expect_bitwise_equal(block_gemm(bp, bx, p, o), bref);
          for (std::size_t i = 0; i < plans.size(); ++i) {
            expect_bitwise_equal(pattern_gemm(plans[i], px[i], p, o),
                                 pref[i]);
          }
        }
      }
    }
  }
}

TEST(Kernels, CooGemmBitwiseMatchesNaive) {
  Rng rng(61);
  Tensor dense = Tensor::randn({14, 11}, rng);
  for (std::int64_t i = 0; i < dense.numel(); ++i) {
    if (rng.bernoulli(0.6)) {
      dense[i] = 0.0F;
    }
  }
  const IrregularPlan plan = IrregularPlan::build(dense);
  EXPECT_EQ(plan.nnz(), dense.count_nonzero());
  EXPECT_GT(plan.sparsity(), 0.0);
  const Tensor x = Tensor::randn({11, 9}, rng);
  const Tensor reference = naive_dense_matmul(plan.to_dense(), x);
  ThreadPool pool(3);
  expect_bitwise_equal(coo_gemm(plan, x, &pool, tiny_tiles()), reference);
  expect_bitwise_equal(coo_gemm(plan, x, nullptr, tiny_tiles()), reference);
}

TEST(Kernels, OptionValidationAndKTileAutoSizing) {
  Rng rng(63);
  const Tensor w = Tensor::randn({4, 4}, rng);
  const Tensor x = Tensor::randn({4, 4}, rng);
  KernelOptions bad = tiny_tiles();
  bad.unroll = 0;
  EXPECT_THROW(dense_gemm(w, x, nullptr, bad), CheckError);
  bad = tiny_tiles();
  bad.threads = -1;
  EXPECT_THROW(dense_gemm(w, x, nullptr, bad), CheckError);
  // Only the compiled unroll ladder {1, 2, 4} is accepted; nothing clamps.
  for (const std::int64_t unroll : {3, 5, 8}) {
    bad = tiny_tiles();
    bad.unroll = unroll;
    EXPECT_THROW(dense_gemm(w, x, nullptr, bad), CheckError);
  }
  // k_tile 0 resolves to a cache-sized tile in [16, cols]; explicit
  // values pass through untouched.
  KernelOptions auto_kt;
  auto_kt.k_tile = 0;
  const std::int64_t kt = resolve_k_tile(auto_kt, 4096, 8);
  EXPECT_GE(kt, 16);
  EXPECT_LE(kt, 4096);
  auto_kt.k_tile = 7;
  EXPECT_EQ(resolve_k_tile(auto_kt, 4096, 8), 7);
  // An options.threads cap above/below the pool size never changes bits.
  ThreadPool pool(3);
  KernelOptions capped = tiny_tiles();
  capped.threads = 2;
  expect_bitwise_equal(dense_gemm(w, x, &pool, capped),
                       naive_dense_matmul(w, x));
}

TEST(PatternPlan, AssignmentMatchesModelPrunerComposition) {
  Rng rng(17);
  std::vector<std::unique_ptr<Linear>> owned;
  std::vector<Linear*> layers;
  for (int i = 0; i < 2; ++i) {
    owned.push_back(std::make_unique<Linear>(16, 16, rng));
    layers.push_back(owned.back().get());
  }
  ModelPruner pruner(layers);
  BpConfig bp;
  bp.num_blocks = 4;
  bp.prune_fraction = 0.25;
  pruner.apply_bp(bp);
  const PatternSet set = random_pattern_set(4, 0.5, 2, rng);
  pruner.apply_pattern_set(set);

  const PlanCache cache(ExecMode::kPattern, layers, pruner.backbone_masks(),
                        {set}, 1, 4);
  for (std::size_t li = 0; li < layers.size(); ++li) {
    const Tensor expected =
        mul(layers[li]->weight().value(), layers[li]->mask());
    const Tensor got =
        cache.plan(static_cast<std::int64_t>(li), 0).pattern->to_dense();
    ASSERT_EQ(expected.shape(), got.shape());
    for (std::int64_t i = 0; i < expected.numel(); ++i) {
      // == (not bit compare): masked entries are +0 in the plan but may
      // be -0 in the mask product.
      EXPECT_EQ(expected[i], got[i]) << "layer " << li << " index " << i;
    }
  }
}

TEST(PlanCache, SwapIsCheapAndTracksLevels) {
  Rng rng(19);
  std::vector<std::unique_ptr<Linear>> owned;
  std::vector<Linear*> layers;
  owned.push_back(std::make_unique<Linear>(16, 16, rng));
  layers.push_back(owned.back().get());
  std::vector<PatternSet> sets;
  for (double s : {0.25, 0.5, 0.75}) {
    sets.push_back(random_pattern_set(4, s, 2, rng));
  }
  PlanCache cache(ExecMode::kPattern, layers, {}, sets, 3, 4);
  EXPECT_EQ(cache.num_levels(), 3);
  EXPECT_EQ(cache.num_layers(), 1);
  EXPECT_GT(cache.build_wall_ms(), 0.0);
  EXPECT_THROW(cache.active_plan(0), CheckError);  // nothing active yet

  const double swap = cache.swap_to(2);
  EXPECT_GE(swap, 0.0);  // cheapness is asserted structurally below, not
                         // by wall clock (CI schedulers jitter)
  EXPECT_EQ(cache.active_level(), 2);
  EXPECT_DOUBLE_EQ(cache.swap_to(2), 0.0);  // no-op re-activation
  // A swap reassigns pointers into the pre-built plans — same object
  // before and after re-activation, never a rebuild.
  const LayerPlan* plan2 = &cache.active_plan(0);
  cache.swap_to(0);
  cache.swap_to(2);
  EXPECT_EQ(plan2, &cache.active_plan(0));
  EXPECT_EQ(plan2, &cache.plan(0, 2));
  // Sparser set at the slower level => sparser plans.
  EXPECT_GT(cache.level_sparsity(2), cache.level_sparsity(0));
}

TEST(MeasuredBackend, AllModesBitwiseMatchDenseReference) {
  for (ExecMode mode : {ExecMode::kDense, ExecMode::kBlock,
                        ExecMode::kPattern, ExecMode::kIrregular}) {
    Rng rng(23);
    std::vector<std::unique_ptr<Linear>> owned;
    std::vector<Linear*> layers;
    // One psize-friendly layer and one ragged layer (18 % 4 != 0 rows for
    // the block fallback, 14 % 4 != 0 cols for pattern edge tiles).
    owned.push_back(std::make_unique<Linear>(24, 24, rng));
    owned.push_back(std::make_unique<Linear>(18, 14, rng));
    for (auto& l : owned) {
      layers.push_back(l.get());
    }
    ModelPruner pruner(layers);
    BpConfig bp;
    bp.num_blocks = 2;
    bp.prune_fraction = 0.25;
    pruner.apply_bp(bp);
    std::vector<PatternSet> sets;
    sets.push_back(random_pattern_set(4, 0.4, 2, rng));

    MeasuredBackendConfig cfg;
    cfg.mode = mode;
    cfg.threads = 3;
    cfg.kernel = tiny_tiles();
    // kIrregular also gets the pattern set: its plans hold the SAME
    // nonzeros as the pattern plans, executed as COO triples.
    const bool prune_to_set =
        mode == ExecMode::kPattern || mode == ExecMode::kIrregular;
    MeasuredBackend backend(
        cfg, layers, pruner.backbone_masks(),
        prune_to_set ? sets : std::vector<PatternSet>{}, {1400.0});
    backend.activate_level(0);
    for (std::int64_t li = 0; li < 2; ++li) {
      const Tensor x = Tensor::randn(
          {layers[static_cast<std::size_t>(li)]->weight().value().size(1), 5},
          rng);
      const Tensor reference = naive_dense_matmul(
          backend.plans().plan(li, 0).dense_equivalent(), x);
      expect_bitwise_equal(backend.run_layer(li, x), reference);
    }
  }
}

TEST(AnalyticBackend, AttachedBackendReproducesDefaultServerExactly) {
  const LatencyModel latency = paper_calibrated_latency();
  const std::vector<double> sparsities = paper_ladder_sparsities(latency, 115.0);
  const VfTable table = VfTable::odroid_xu3_a7();
  const auto make = [&] {
    ServerConfig cfg;
    cfg.battery_capacity_mj = 18'000.0;
    cfg.batch = BatchPolicy{4, 30.0};
    return Server(cfg, table, Governor::equal_tranches(paper_serve_ladder()),
                  PowerModel(), latency, ModelSpec::paper_transformer(),
                  sparsities);
  };
  TrafficConfig tcfg;
  tcfg.duration_ms = 30'000.0;
  tcfg.rate_rps = 6.0;
  const auto schedule = generate_traffic(tcfg);

  Server plain = make();
  const ServerStats a = plain.serve(schedule);

  std::vector<double> freqs;
  for (std::int64_t li : paper_serve_ladder()) {
    freqs.push_back(table.level(li).freq_mhz);
  }
  Server with_backend = make();
  with_backend.adopt_backend(std::make_unique<AnalyticBackend>(
      latency, ModelSpec::paper_transformer(), ExecMode::kPattern, freqs,
      sparsities));
  const ServerStats b = with_backend.serve(schedule);

  EXPECT_EQ(a.completed, b.completed);
  EXPECT_EQ(a.batches, b.batches);
  EXPECT_EQ(a.switches, b.switches);
  EXPECT_EQ(a.deadline_misses, b.deadline_misses);
  EXPECT_DOUBLE_EQ(a.sim_end_ms, b.sim_end_ms);
  EXPECT_DOUBLE_EQ(a.energy_used_mj, b.energy_used_mj);
  EXPECT_EQ(b.backend, "analytic");
  // Both record one (zero-cost) plan swap per level activation.
  EXPECT_EQ(a.plan_swap_ms.size(), b.plan_swap_ms.size());
  EXPECT_DOUBLE_EQ(b.plan_swap_ms_total, 0.0);
}

TEST(Calibration, FitRecoversSyntheticParameters) {
  const ModelSpec spec = ModelSpec::paper_transformer();
  LatencyModelConfig truth;
  truth.macs_per_cycle = 4.0;
  truth.fixed_cycles = 2.0e5;
  truth.block_overhead = 1.3;
  truth.pattern_overhead = 1.7;
  const double freq = 1000.0;
  std::vector<LatencyObservation> obs;
  for (ExecMode mode :
       {ExecMode::kDense, ExecMode::kBlock, ExecMode::kPattern}) {
    const double sparsity = mode == ExecMode::kDense ? 0.0 : 0.5;
    for (std::int64_t batch : {1, 2, 4, 8}) {
      LatencyObservation o;
      o.mode = mode;
      o.sparsity = sparsity;
      o.batch_size = batch;
      const double per_item = spec.dense_macs() * (1.0 - sparsity) *
                              truth.mode_overhead(mode) /
                              truth.macs_per_cycle;
      o.wall_ms = (truth.fixed_cycles +
                   static_cast<double>(batch) * per_item) /
                  (freq * 1e3);
      obs.push_back(o);
    }
  }
  const LatencyModelConfig fitted = fit_latency_config(spec, obs, freq);
  EXPECT_NEAR(fitted.macs_per_cycle, truth.macs_per_cycle,
              1e-6 * truth.macs_per_cycle);
  EXPECT_NEAR(fitted.fixed_cycles, truth.fixed_cycles,
              1e-4 * truth.fixed_cycles);
  EXPECT_NEAR(fitted.block_overhead, truth.block_overhead, 1e-6);
  EXPECT_NEAR(fitted.pattern_overhead, truth.pattern_overhead, 1e-6);
  EXPECT_LT(calibration_error(spec, obs, fitted, freq), 1e-6);
}

TEST(Calibration, FitRejectsUnderdeterminedInput) {
  const ModelSpec spec = ModelSpec::paper_transformer();
  std::vector<LatencyObservation> obs;
  LatencyObservation o;
  o.mode = ExecMode::kDense;
  o.batch_size = 2;
  o.wall_ms = 1.0;
  obs.push_back(o);
  EXPECT_THROW(fit_latency_config(spec, obs, 1000.0), CheckError);
  obs.push_back(o);  // same batch size twice: still singular
  EXPECT_THROW(fit_latency_config(spec, obs, 1000.0), CheckError);
}

TEST(Calibrator, FitsMeasuredKernelsHonestly) {
  Rng rng(29);
  std::vector<std::unique_ptr<Linear>> owned;
  std::vector<Linear*> layers;
  for (int i = 0; i < 2; ++i) {
    owned.push_back(std::make_unique<Linear>(48, 48, rng));
    layers.push_back(owned.back().get());
  }
  ModelPruner pruner(layers);
  BpConfig bp;
  bp.num_blocks = 4;
  bp.prune_fraction = 0.3;
  pruner.apply_bp(bp);
  std::vector<PatternSet> sets;
  sets.push_back(random_pattern_set(4, 0.5, 2, rng));

  CalibratorConfig ccfg;
  ccfg.batch_sizes = {1, 4, 8};
  ccfg.repeats = 3;
  const Calibrator calibrator(ccfg);
  MeasuredBackendConfig base;
  base.threads = 2;
  const CalibrationResult result =
      calibrator.run(base, layers, pruner.backbone_masks(), sets);

  EXPECT_EQ(result.observations.size(), 12U);  // 4 modes x 3 batch sizes
  EXPECT_GT(result.fitted.macs_per_cycle, 0.0);
  EXPECT_GE(result.fitted.fixed_cycles, 0.0);
  EXPECT_GT(result.fitted.block_overhead, 0.0);
  EXPECT_GT(result.fitted.pattern_overhead, 0.0);
  EXPECT_GT(result.fitted.irregular_overhead, 0.0);
  EXPECT_TRUE(std::isfinite(result.mean_abs_rel_error));
  // Host timing is noisy (CI runners share cores), but the fitted model
  // must stay in the ballpark of its own observations.
  EXPECT_LT(result.mean_abs_rel_error, 2.0);
}

TEST(MeasuredBackend, ServeSessionEndToEnd) {
  ServeSessionConfig scfg;
  scfg.backend = ExecBackendKind::kMeasured;
  scfg.battery_capacity_mj = 9'000.0;
  scfg.measured_layer_dim = 48;
  scfg.measured_layers = 2;
  ServeSession session(scfg);
  ASSERT_TRUE(session.has_measured_backend());
  ASSERT_TRUE(session.has_engine());

  TrafficConfig tcfg;
  tcfg.scenario = TrafficScenario::kBurst;
  tcfg.duration_ms = 30'000.0;
  tcfg.rate_rps = 3.0;
  tcfg.deadline_slack_ms = 400.0;
  const auto schedule = generate_traffic(tcfg);
  TraceRecorder trace(/*record_wall=*/true);
  session.server().set_trace(&trace);
  const ServerStats stats = session.server().serve(schedule);

  EXPECT_EQ(stats.backend, "measured");
  EXPECT_GT(stats.completed, 0);
  EXPECT_EQ(stats.completed + stats.dropped + stats.shed, stats.submitted);
  // Kernel-measured latency: real wall time accumulated inside kernels.
  EXPECT_GT(stats.kernel_wall_ms_total, 0.0);
  // One plan swap per level activation (initial + each switch).
  EXPECT_EQ(static_cast<std::int64_t>(stats.plan_swap_ms.size()),
            stats.switches + 1);
  for (double ms : stats.plan_swap_ms) {
    EXPECT_GE(ms, 0.0);
  }
  // The backend's own kernel-time ledger is consistent with the stats.
  EXPECT_GE(session.measured_backend().total_kernel_wall_ms(),
            stats.kernel_wall_ms_total);
  // With wall stamps on, each batch span carries its kernel wall time;
  // the backend itself emits nothing.  A batch lost to a dead battery
  // ran its kernels but has no span, so the spans sum to at most the
  // stats' total.
  std::int64_t batch_spans = 0;
  double kernel_wall_ms = 0.0;
  for (const TraceEvent& e : trace.merged()) {
    EXPECT_NE(e.cat, "kernel");
    if (e.name != "batch") {
      continue;
    }
    ++batch_spans;
    const auto arg = std::find_if(
        e.args.begin(), e.args.end(),
        [](const auto& kv) { return kv.first == "kernel_wall_ms"; });
    ASSERT_NE(arg, e.args.end());
    kernel_wall_ms += std::stod(arg->second);
  }
  EXPECT_EQ(batch_spans, stats.batches);
  EXPECT_GT(kernel_wall_ms, 0.0);
  EXPECT_LE(kernel_wall_ms, stats.kernel_wall_ms_total);
}

TEST(ReconfigEngine, PlanSwapHookRunsInsideSwitchAndIsReported) {
  // Engine-level users without a Server wire the PlanCache through the
  // plan-swap hook: the swap runs inside switch_to and its wall time
  // lands in the SwitchReport.
  Rng rng(37);
  std::vector<std::unique_ptr<Linear>> owned;
  std::vector<Linear*> layers;
  owned.push_back(std::make_unique<Linear>(16, 16, rng));
  layers.push_back(owned.back().get());
  ModelPruner pruner(layers);
  BpConfig bp;
  bp.num_blocks = 4;
  bp.prune_fraction = 0.25;
  pruner.apply_bp(bp);
  std::vector<PatternSet> sets;
  for (double s : {0.25, 0.5, 0.75}) {
    sets.push_back(random_pattern_set(4, s, 2, rng));
  }
  PlanCache cache(ExecMode::kPattern, layers, pruner.backbone_masks(), sets,
                  3, 4);
  ReconfigEngine engine(pruner, sets, SwitchCostModel(),
                        ModelSpec::paper_transformer(), 100);
  std::vector<std::int64_t> hook_levels;
  engine.set_plan_swap_hook([&](std::int64_t level) {
    hook_levels.push_back(level);
    return cache.swap_to(level);
  });

  const SwitchReport first = engine.switch_to(1);
  EXPECT_EQ(cache.active_level(), 1);
  EXPECT_GE(first.plan_swap_wall_ms, 0.0);
  ASSERT_EQ(hook_levels.size(), 1U);
  EXPECT_EQ(hook_levels[0], 1);

  const SwitchReport noop = engine.switch_to(1);  // already active
  EXPECT_DOUBLE_EQ(noop.plan_swap_wall_ms, 0.0);
  EXPECT_EQ(hook_levels.size(), 1U);  // hook only fires on real switches

  engine.set_plan_swap_hook(nullptr);
  const SwitchReport unhooked = engine.switch_to(2);
  EXPECT_DOUBLE_EQ(unhooked.plan_swap_wall_ms, 0.0);
  EXPECT_EQ(cache.active_level(), 1);  // cleared hook no longer swaps
}

TEST(MeasuredBackend, RejectsNonPositiveThreads) {
  Rng rng(67);
  std::vector<std::unique_ptr<Linear>> owned;
  std::vector<Linear*> layers;
  owned.push_back(std::make_unique<Linear>(8, 8, rng));
  layers.push_back(owned.back().get());
  MeasuredBackendConfig cfg;
  cfg.mode = ExecMode::kDense;
  for (std::int64_t threads : {std::int64_t{0}, std::int64_t{-3}}) {
    cfg.threads = threads;
    EXPECT_THROW(MeasuredBackend(cfg, layers, {}, {}, {1000.0}),
                 CheckError);
  }
}

TEST(ThreadPool, PinnedPoolMatchesFloatingBitwiseWithBoundedJitter) {
  ThreadPool floating(2);
  EXPECT_FALSE(floating.pinned());  // not requested
  ThreadPool pinned(2, /*pin_to_cores=*/true);
#if defined(__linux__)
  EXPECT_TRUE(pinned.pinned());
#endif
  Rng rng(71);
  const Tensor w = Tensor::randn({32, 32}, rng);
  const Tensor x = Tensor::randn({32, 16}, rng);
  const Tensor reference = naive_dense_matmul(w, x);
  // Pinning changes where work runs, never what it computes.
  expect_bitwise_equal(dense_gemm(w, x, &pinned, tiny_tiles()), reference);
  expect_bitwise_equal(dense_gemm(w, x, &floating, tiny_tiles()), reference);
  // Loose jitter sanity on the pinned pool: across repeats the p90 stays
  // within a very generous multiple of the median.  The bound tolerates
  // 1-core CI runners and sanitizer slowdowns; it exists to catch a
  // pinning implementation that serializes or livelocks workers, not to
  // benchmark.
  std::vector<double> walls;
  for (int rep = 0; rep < 20; ++rep) {
    const auto t0 = wall_now();
    const Tensor out = dense_gemm(w, x, &pinned, tiny_tiles());
    walls.push_back(wall_ms_since(t0) +
                    static_cast<double>(out[0] != out[0]));  // keep out live
  }
  std::sort(walls.begin(), walls.end());
  const double median = std::max(walls[walls.size() / 2], 1e-6);
  const double p90 = walls[(walls.size() * 9) / 10];
  EXPECT_LT(p90, median * 200.0);
}

TEST(Autotuner, BitDeterministicForFixedSeedWithInjectedCost) {
  // Injected deterministic cost: a smooth bowl over the knob space whose
  // location depends on (layer, level).  With it, the whole search —
  // seeded sampling, least-squares fit, finalist re-measures, tie-breaks
  // — must reproduce byte-identical records for the same seed.
  const Autotuner::CostFn cost = [](std::int64_t layer, std::int64_t level,
                                    const KernelOptions& o) {
    const double kt =
        std::log2(static_cast<double>(o.k_tile == 0 ? 64 : o.k_tile));
    const double t =
        static_cast<double>(o.threads == 0 ? 4 : o.threads);
    return 1.0 + 0.05 * static_cast<double>(layer + level) +
           std::abs(kt - 5.0) +
           0.3 * std::abs(static_cast<double>(o.unroll) - 2.0) +
           0.2 * std::abs(t - 2.0);
  };
  TunerConfig cfg;
  cfg.samples = 12;
  cfg.finalists = 3;
  cfg.repeats = 2;
  cfg.seed = 77;
  Autotuner a(cfg, ExecMode::kPattern, 2, 3, cost);
  Autotuner b(cfg, ExecMode::kPattern, 2, 3, cost);
  const TuningRecord ra = a.tune();
  const TuningRecord rb = b.tune();
  EXPECT_EQ(ra.serialize(), rb.serialize());
  ASSERT_EQ(ra.entries.size(), 6U);  // 2 layers x 3 levels
  for (const TuningEntry& e : ra.entries) {
    // The winner's recorded cost is its injected cost (median of a
    // deterministic function is the function).
    EXPECT_DOUBLE_EQ(e.measured_ms, cost(e.layer, e.level, e.options));
  }
  // Text round-trip is bit-exact, so re-serialization is byte-identical.
  EXPECT_EQ(TuningRecord::parse(ra.serialize()).serialize(),
            ra.serialize());
  EXPECT_THROW(TuningRecord::parse("not a tuning file"), CheckError);
}

TEST(TuningRecord, HandEditedUnrollOutsideLadderIsRejected) {
  TuningRecord record;
  record.mode = ExecMode::kPattern;
  record.isa = "avx2";
  record.batch = 1;
  TuningEntry e;
  e.options.unroll = 4;
  record.entries.push_back(e);
  const std::string text = record.serialize();
  ASSERT_EQ(TuningRecord::parse(text).entries[0].options.unroll, 4);
  // A hand edit to an unroll the kernels do not compile must fail by
  // name, not be clamped to a neighbouring factor.
  for (const std::string bad : {"3", "8", "0"}) {
    std::string edited = text;
    const std::size_t at = edited.find("unroll=4");
    ASSERT_NE(at, std::string::npos);
    edited.replace(at, 8, "unroll=" + bad);
    try {
      TuningRecord::parse(edited);
      ADD_FAILURE() << "unroll=" << bad << " was accepted";
    } catch (const CheckError& err) {
      EXPECT_NE(std::string(err.what()).find("unroll=" + bad),
                std::string::npos)
          << err.what();
    }
  }
}

TEST(PlanCache, ApplyTuningInstallsPerPlanOptions) {
  Rng rng(73);
  std::vector<std::unique_ptr<Linear>> owned;
  std::vector<Linear*> layers;
  owned.push_back(std::make_unique<Linear>(16, 16, rng));
  layers.push_back(owned.back().get());
  std::vector<PatternSet> sets;
  sets.push_back(random_pattern_set(4, 0.25, 2, rng));
  sets.push_back(random_pattern_set(4, 0.5, 2, rng));
  PlanCache cache(ExecMode::kPattern, layers, {}, sets, 2, 4);
  ASSERT_FALSE(cache.plan(0, 0).tuned.has_value());

  TuningRecord record;
  record.mode = ExecMode::kPattern;
  TuningEntry e;
  e.layer = 0;
  e.level = 1;
  e.options.k_tile = 32;
  e.options.unroll = 4;
  e.options.threads = 2;
  record.entries.push_back(e);
  TuningEntry oob = e;  // out-of-range entries are skipped, not fatal
  oob.layer = 9;
  record.entries.push_back(oob);
  EXPECT_EQ(cache.apply_tuning(record), 1);
  ASSERT_TRUE(cache.plan(0, 1).tuned.has_value());
  EXPECT_EQ(cache.plan(0, 1).tuned->k_tile, 32);
  EXPECT_EQ(cache.plan(0, 1).tuned->unroll, 4);
  EXPECT_EQ(cache.plan(0, 1).tuned->threads, 2);
  EXPECT_FALSE(cache.plan(0, 0).tuned.has_value());

  // A record for another kernel family is a mix-up, not data.
  record.mode = ExecMode::kDense;
  EXPECT_THROW(cache.apply_tuning(record), CheckError);
  // Invalid options are rejected by set_tuned's validation.
  KernelOptions bad;
  bad.unroll = 0;
  EXPECT_THROW(cache.set_tuned(0, 0, bad), CheckError);
  bad.unroll = 3;
  EXPECT_THROW(cache.set_tuned(0, 0, bad), CheckError);
}

TEST(ExecBackendNames, RoundTrip) {
  EXPECT_EQ(exec_backend_from_name("analytic"), ExecBackendKind::kAnalytic);
  EXPECT_EQ(exec_backend_from_name("measured"), ExecBackendKind::kMeasured);
  EXPECT_EQ(exec_backend_name(ExecBackendKind::kMeasured),
            std::string("measured"));
  EXPECT_THROW(exec_backend_from_name("quantum"), CheckError);
}

}  // namespace
}  // namespace rt3
