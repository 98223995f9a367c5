// Correctness tests for the measured execution backend: kernels must be
// BITWISE equal to the naive dense reference (dense, block-pruned, and
// pattern-masked weights, including non-multiple-of-psize edge shapes),
// the PlanCache swap must be a cheap pointer swap, the AnalyticBackend
// must reproduce the Server's historical numbers exactly, and the
// Calibrator fit must recover known parameters.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdint>
#include <cstring>
#include <iostream>
#include <limits>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <vector>

#if defined(__linux__)
#include <pthread.h>
#include <sched.h>
#include <sys/resource.h>
#endif

#include "common/check.hpp"
#include "common/rng.hpp"
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
#include "serve/server.hpp"
#include "serve/session.hpp"
#include "serve/traffic.hpp"

#include "heap_counter.hpp"

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

/// X copied into a NaN-filled buffer with `pad_cols` extra columns per
/// row and `pad_rows` extra rows, read through a strided view: a kernel
/// that reads outside X's window, or mixes a lane it does not own, turns
/// its output NaN.
struct PaddedActivation {
  std::vector<float> buffer;
  ActivationView view;
};

PaddedActivation nan_padded(const Tensor& x, std::int64_t pad_cols = 3,
                            std::int64_t pad_rows = 17) {
  const std::int64_t rows = x.size(0);
  const std::int64_t n = x.size(1);
  const std::int64_t stride = n + pad_cols;
  PaddedActivation a;
  a.buffer.assign(static_cast<std::size_t>((rows + pad_rows) * stride),
                  std::numeric_limits<float>::quiet_NaN());
  for (std::int64_t r = 0; r < rows; ++r) {
    std::copy(x.data() + r * n, x.data() + (r + 1) * n,
              a.buffer.begin() + r * stride);
  }
  a.view = {a.buffer.data(), rows, n, stride};
  return a;
}

/// A rows x n output buffer full of NaN: a kernel that leaves any element
/// unwritten (or accumulates onto it) fails the bitwise check.
std::vector<float> nan_output(std::int64_t rows, std::int64_t n) {
  return std::vector<float>(static_cast<std::size_t>(rows * n),
                            std::numeric_limits<float>::quiet_NaN());
}

Tensor as_tensor(std::int64_t rows, std::int64_t n,
                 const std::vector<float>& data) {
  return Tensor({rows, n}, data);
}

/// The rows x n window of an activation view, copied.
Tensor as_tensor(const ActivationView& v) {
  Tensor t({v.rows, v.n});
  for (std::int64_t r = 0; r < v.rows; ++r) {
    std::copy(v.data + r * v.stride, v.data + r * v.stride + v.n,
              t.data() + r * v.n);
  }
  return t;
}

KernelOptions tiny_tiles() {
  KernelOptions options;
  options.k_tile = 5;  // deliberately awkward: exercises tile remainders
  return options;
}

/// Activation widths at which every table's ladder head runs at each
/// unroll U in {1, 2, 4} (the largest U with W * U <= n): 1, 3, 5+ on
/// scalar (W = 1); 5, 13, 20+ on neon (4); 13, 20, 45+ on avx2 (8); and
/// 20, 45, 77 on avx512 (16), whose ladder gets the whole 16-lane
/// vectors (16, 32, 64) and hands the rest to avx2.
constexpr std::array<std::int64_t, 7> kEveryUnrollWidths = {1,  3,  5, 13,
                                                            20, 45, 77};

/// Forces one kernel table for a scope, restoring the previous ISA on
/// exit.
class ScopedIsa {
 public:
  explicit ScopedIsa(SimdIsa isa) : prev_(active_simd_isa()) {
    set_simd_isa(isa);
  }
  ~ScopedIsa() { set_simd_isa(prev_); }

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
  for (SimdIsa isa : {SimdIsa::kScalar, SimdIsa::kNeon, SimdIsa::kAvx2,
                      SimdIsa::kAvx512}) {
    EXPECT_EQ(simd_isa_from_name(simd_isa_name(isa)), isa);
  }
  EXPECT_THROW(simd_isa_from_name("avx1024"), CheckError);
  EXPECT_GE(simd_isa_width(detect_simd_isa()), 1);
  EXPECT_TRUE(simd_isa_supported(SimdIsa::kScalar));
  EXPECT_TRUE(simd_isa_supported(detect_simd_isa()));
  EXPECT_GE(cpu_cores(), 1);
  // Forcing scalar is always allowed; the guard restores detection.
  {
    ScopedIsa guard(SimdIsa::kScalar);
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
  // The widths run every unroll on each table (kEveryUnrollWidths), and
  // the ragged ones every code path past it (W*U chunks, single-vector
  // tail, narrower rungs, single lanes); 19 x 23 weights keep row
  // partitioning and k-tiling ragged too.  The SIMD table must match the
  // forced-scalar table AND the naive reference bitwise, lane-wise.
  Rng rng(51);
  const Tensor w = Tensor::randn({19, 23}, rng);
  ThreadPool pool(3);
  const KernelOptions o = tiny_tiles();
  for (const std::int64_t n : kEveryUnrollWidths) {
    SCOPED_TRACE("n=" + std::to_string(n));
    const Tensor x = Tensor::randn({23, n}, rng);
    const Tensor reference = naive_dense_matmul(w, x);
    {
      ScopedIsa guard(SimdIsa::kScalar);
      expect_bitwise_equal(dense_gemm(w, x, &pool, o), reference);
    }
    expect_bitwise_equal(dense_gemm(w, x, &pool, o), reference);
    expect_bitwise_equal(dense_gemm(w, x, nullptr, o), reference);
  }
}

TEST(SimdKernels, BlockAndPatternFamiliesMatchScalarOnRaggedShapes) {
  Rng rng(53);
  // Block family: 14 rows over 2 blocks.
  Tensor bw = Tensor::randn({14, 10}, rng);
  for (std::int64_t i = 0; i < bw.numel(); ++i) {
    if (rng.bernoulli(0.4)) {
      bw[i] = 0.0F;
    }
  }
  const BlockPrunedMatrix bp = BlockPrunedMatrix::from_dense(bw, 2);
  // Pattern family: 10 x 13 with psize 4 (clipped edge tiles).
  const PatternSet set = random_pattern_set(4, 0.4, 2, rng);
  const Tensor pw = Tensor::randn({10, 13}, rng);
  const PatternPlan plan = PatternPlan::build(pw, set);
  ThreadPool pool(2);
  const KernelOptions o = tiny_tiles();
  for (const std::int64_t n : kEveryUnrollWidths) {
    SCOPED_TRACE("n=" + std::to_string(n));
    const Tensor bx = Tensor::randn({10, n}, rng);
    const Tensor bref = naive_dense_matmul(bp.to_dense(), bx);
    const Tensor px = Tensor::randn({13, n}, rng);
    const Tensor pref = naive_dense_matmul(plan.to_dense(), px);
    {
      ScopedIsa guard(SimdIsa::kScalar);
      expect_bitwise_equal(block_gemm(bp, bx, &pool, o), bref);
      expect_bitwise_equal(pattern_gemm(plan, px, &pool, o), pref);
    }
    expect_bitwise_equal(block_gemm(bp, bx, &pool, o), bref);
    expect_bitwise_equal(pattern_gemm(plan, px, &pool, o), pref);
  }
}

TEST(SimdKernels, EveryActivationWidthBitwiseMatchesNaive) {
  // Every activation width from 1 to 4W + W/2 + 1 walks the rungs of the
  // width ladder (W*U, W, the narrower vectors, single lanes) alone and
  // in every combination, at every unroll U (4 from n = 4W), serially and
  // on a pool.  Pattern shapes are not psize multiples, so clipped edge
  // tiles run, and psize 16 sweeps its tile rows in two resident row
  // groups.
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
  for (std::int64_t n = 1; n <= 4 * width + width / 2 + 1; ++n) {
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
    const KernelOptions o = tiny_tiles();
    for (ThreadPool* p : {static_cast<ThreadPool*>(nullptr), &pool}) {
      SCOPED_TRACE("n=" + std::to_string(n) +
                   (p == nullptr ? " serial" : " pool"));
      for (const bool scalar : {false, true}) {
        std::optional<ScopedIsa> guard;
        if (scalar) {
          guard.emplace(SimdIsa::kScalar);
        }
        expect_bitwise_equal(dense_gemm(dw, dx, p, o), dref);
        expect_bitwise_equal(block_gemm(bp, bx, p, o), bref);
        for (std::size_t i = 0; i < plans.size(); ++i) {
          expect_bitwise_equal(pattern_gemm(plans[i], px[i], p, o), pref[i]);
        }
      }
    }
  }
}

TEST(SimdKernels, EveryHostIsaBitwiseMatchesNaiveAndTheOthers) {
  // Every table this host can execute runs dense, block and pattern
  // (psize 4, and psize 8, whose 8-row groups keep 8 x 4 accumulators of
  // 16 lanes at unroll 4) at widths that walk each rung of every ladder
  // (16*U, 16, 8, 4, 1 lanes) alone and combined, and run each ladder's
  // head at U = 1, 2 and 4 (U = 4 from 4 vectors); avx512 hands the lanes
  // past its last whole 16-lane vector (20, 31, 36, 45, 95) to avx2
  // through a column window, and narrower calls wholly.  Each output must
  // be bitwise equal to naive_dense_matmul and to the scalar table's.
  std::vector<SimdIsa> isas;
  std::string skipped;
  for (SimdIsa isa : {SimdIsa::kScalar, SimdIsa::kNeon, SimdIsa::kAvx2,
                      SimdIsa::kAvx512}) {
    if (simd_isa_supported(isa)) {
      isas.push_back(isa);
    } else {
      skipped += std::string(" ") + simd_isa_name(isa);
    }
  }
  if (!skipped.empty()) {
    std::cout << "note: this host cannot execute, so not tested:" << skipped
              << "\n";
  }
  ASSERT_EQ(isas.front(), SimdIsa::kScalar);
  Rng rng(61);
  const Tensor dw = Tensor::randn({13, 11}, rng);
  Tensor bw = Tensor::randn({12, 10}, rng);
  for (std::int64_t i = 0; i < bw.numel(); ++i) {
    if (rng.bernoulli(0.4)) {
      bw[i] = 0.0F;
    }
  }
  const BlockPrunedMatrix bp = BlockPrunedMatrix::from_dense(bw, 3);
  std::vector<PatternPlan> plans;
  for (const std::int64_t psize : {4, 8}) {
    const PatternSet set = random_pattern_set(psize, 0.5, 3, rng);
    plans.push_back(PatternPlan::build(
        Tensor::randn({2 * psize + 3, psize + 5}, rng), set));
  }
  ThreadPool pool(2);
  for (const std::int64_t n :
       {1, 3, 4, 7, 8, 12, 16, 20, 31, 32, 36, 45, 64, 95}) {
    std::vector<Tensor> xs = {Tensor::randn({11, n}, rng),
                              Tensor::randn({10, n}, rng)};
    std::vector<Tensor> refs = {naive_dense_matmul(dw, xs[0]),
                                naive_dense_matmul(bp.to_dense(), xs[1])};
    for (const PatternPlan& plan : plans) {
      xs.push_back(Tensor::randn({plan.cols, n}, rng));
      refs.push_back(naive_dense_matmul(plan.to_dense(), xs.back()));
    }
    const KernelOptions o = tiny_tiles();
    std::vector<Tensor> scalar_outs;
    for (const SimdIsa isa : isas) {
      SCOPED_TRACE(std::string(simd_isa_name(isa)) +
                   " n=" + std::to_string(n));
      ScopedIsa guard(isa);
      std::vector<Tensor> outs = {dense_gemm(dw, xs[0], &pool, o),
                                  block_gemm(bp, xs[1], &pool, o)};
      for (std::size_t i = 0; i < plans.size(); ++i) {
        outs.push_back(pattern_gemm(plans[i], xs[i + 2], &pool, o));
      }
      if (scalar_outs.empty()) {
        scalar_outs = outs;
      }
      for (std::size_t i = 0; i < outs.size(); ++i) {
        expect_bitwise_equal(outs[i], refs[i]);
        expect_bitwise_equal(outs[i], scalar_outs[i]);
      }
    }
  }
}

TEST(SimdKernels, Psize4TileBodyBitwiseMatchesAvx2AndNaive) {
  // On AVX-512, a psize-4 pattern call's 4 leftover lanes (all of a
  // 4-column call) run on the 4 x 4 tile body, one output tile per 16-lane
  // register.  Ragged shapes clip tiles in both directions, sparsities
  // give rows 1 to 4 slots, and tile-row counts leave every sweep
  // remainder.  X is read contiguously (n = 4) and through a NaN-padded
  // strided view (every n; at 20 and 36 through the leftover-lane
  // window), once finite and once with inf, -inf and NaN inside it.
  // Each output must be bitwise the AVX2 table's, and the naive
  // reference's where X is finite.  A psize-8 plan at n = 4 keeps the
  // AVX2 ladder and must match too.
  if (!simd_isa_supported(SimdIsa::kAvx512)) {
    GTEST_SKIP() << "note: this host cannot execute avx512, so the 4 x 4 "
                    "tile body is not tested";
  }
  ASSERT_NE(kernel_table_for(SimdIsa::kAvx512).pattern_tile4_range, nullptr);
  Rng rng(73);
  std::vector<PatternPlan> plans;
  using Shape = std::array<std::int64_t, 2>;
  for (const auto& [rows, cols] :
       {Shape{10, 13}, Shape{17, 22}, Shape{23, 9}, Shape{67, 50}}) {
    for (const double sparsity : {0.2, 0.5, 0.75, 0.9}) {
      plans.push_back(
          PatternPlan::build(Tensor::randn({rows, cols}, rng),
                             random_pattern_set(4, sparsity, 3, rng)));
      const PatternPlan& plan = plans.back();
      const std::int64_t slots =
          *std::max_element(plan.row_slots.begin(), plan.row_slots.end());
      const auto blocks =
          static_cast<std::int64_t>(plan.slot_cols.size()) / plan.slot_stride;
      EXPECT_EQ(static_cast<std::int64_t>(plan.x_lanes.size()),
                blocks * slots * 16);
    }
  }
  plans.push_back(PatternPlan::build(Tensor::randn({19, 21}, rng),
                                     random_pattern_set(8, 0.5, 2, rng)));
  EXPECT_TRUE(plans.back().x_lanes.empty());
  ThreadPool pool1(1);
  ThreadPool pool2(2);
  for (const std::int64_t n : {4, 20, 36}) {
    for (const PatternPlan& plan : plans) {
      const Tensor x = Tensor::randn({plan.cols, n}, rng);
      const Tensor ref = naive_dense_matmul(plan.to_dense(), x);
      Tensor nonfinite = x;
      nonfinite[rng.uniform_int(x.numel())] =
          std::numeric_limits<float>::infinity();
      nonfinite[rng.uniform_int(x.numel())] =
          -std::numeric_limits<float>::infinity();
      nonfinite[rng.uniform_int(x.numel())] =
          std::numeric_limits<float>::quiet_NaN();
      for (const bool finite : {true, false}) {
        const Tensor& xs = finite ? x : nonfinite;
        const PaddedActivation px = nan_padded(xs);
        std::vector<ActivationView> views = {px.view};
        if (n == 4) {
          views.push_back({xs.data(), plan.cols, n, n});
        }
        for (const ActivationView& view : views) {
          for (ThreadPool* pool : {&pool1, &pool2}) {
            SCOPED_TRACE("psize=" + std::to_string(plan.psize) + " shape=" +
                         std::to_string(plan.rows) + "x" +
                         std::to_string(plan.cols) + " n=" +
                         std::to_string(n) + " ldx=" +
                         std::to_string(view.stride) + " threads=" +
                         std::to_string(pool->num_threads()) +
                         (finite ? "" : " non-finite X"));
            std::vector<Tensor> outs;
            for (const SimdIsa isa : {SimdIsa::kAvx2, SimdIsa::kAvx512}) {
              ScopedIsa guard(isa);
              std::vector<float> out = nan_output(plan.rows, n);
              pattern_gemm_into(plan, view, out.data(), pool, tiny_tiles());
              outs.push_back(as_tensor(plan.rows, n, out));
            }
            expect_bitwise_equal(outs[1], outs[0]);
            if (finite) {
              expect_bitwise_equal(outs[1], ref);
            }
          }
        }
      }
    }
  }
}

TEST(SimdKernels, PatternRowGroupsUnrollsAndThreadsBitwiseMatchNaive) {
  // The pattern kernel's accumulators are templated on the row-group
  // height: psize 8 with 8k + h rows runs every height h in 1..8 (the
  // last tile row is h high), psize 9 and 16 split each tile row into
  // several groups, and every shape leaves clipped edge tiles in both
  // directions.  A pass takes two whole tile rows where their
  // accumulators fit the table's budget (psize 2 and 4 on every table,
  // psize 8 on AVX-512 and NEON) and one otherwise: a clipped last tile
  // row, or the odd tile row left at the end of a thread's piece (psize 2
  // and 4 plans of 2 to 5 tile rows, wide enough that their work splits
  // them over the pools) or of a leftover-lane window block (n = 20 and
  // 36 on AVX-512).  X sits in a NaN-padded strided buffer and the output
  // is NaN-prefilled, so a pad cell at a column outside a clipped tile, a
  // lane read past n or an unwritten output element all break the bitwise
  // match.  Every unroll, pool size and host ISA runs.
  std::vector<SimdIsa> isas;
  for (SimdIsa isa : {SimdIsa::kScalar, SimdIsa::kNeon, SimdIsa::kAvx2,
                      SimdIsa::kAvx512}) {
    if (simd_isa_supported(isa)) {
      isas.push_back(isa);
    }
  }
  Rng rng(59);
  std::vector<PatternPlan> plans;
  for (std::int64_t h = 1; h <= 8; ++h) {
    const PatternSet set = random_pattern_set(8, 0.3 + 0.08 * h, 2, rng);
    plans.push_back(PatternPlan::build(Tensor::randn({16 + h, 21}, rng), set));
  }
  for (const auto& [psize, rows, cols] :
       {std::array<std::int64_t, 3>{9, 22, 20},
        std::array<std::int64_t, 3>{16, 43, 37},
        std::array<std::int64_t, 3>{3, 10, 8},
        std::array<std::int64_t, 3>{5, 13, 11}}) {
    for (const double sparsity : {0.2, 0.6, 0.9}) {
      const PatternSet set = random_pattern_set(psize, sparsity, 3, rng);
      plans.push_back(
          PatternPlan::build(Tensor::randn({rows, cols}, rng), set));
    }
  }
  for (const std::int64_t psize : {2, 4}) {
    for (std::int64_t tile_rows = 1; tile_rows <= 5; ++tile_rows) {
      for (const std::int64_t clip : {0, 1}) {
        const PatternSet set =
            random_pattern_set(psize, 0.25 + 0.1 * tile_rows, 3, rng);
        plans.push_back(PatternPlan::build(
            Tensor::randn({tile_rows * psize - clip, 3 * psize - clip}, rng),
            set));
      }
    }
  }
  // Wide plans whose work splits them, into pieces of 1 to 3 tile rows.
  const std::size_t first_wide = plans.size();
  for (const std::int64_t psize : {2, 4}) {
    for (const std::int64_t tile_rows : {7, 11}) {
      for (const std::int64_t clip : {0, 1}) {
        const PatternSet set = random_pattern_set(psize, 0.5, 3, rng);
        plans.push_back(PatternPlan::build(
            Tensor::randn({tile_rows * psize - clip, 1024 - clip}, rng),
            set));
      }
    }
  }
  ThreadPool pool1(1);
  ThreadPool pool2(2);
  ThreadPool pool3(3);
  std::int64_t split_launches = 0;
  for (const std::int64_t n : {1, 3, 4, 8, 13, 16, 20, 32, 36, 45, 48, 64}) {
    for (std::size_t i = 0; i < plans.size(); ++i) {
      const PatternPlan& plan = plans[i];
      const Tensor x = Tensor::randn({plan.cols, n}, rng);
      const Tensor ref = naive_dense_matmul(plan.to_dense(), x);
      const PaddedActivation px = nan_padded(x);
      LayerPlan layer;
      layer.mode = ExecMode::kPattern;
      layer.rows = plan.rows;
      layer.cols = plan.cols;
      layer.pattern = plan;
      std::vector<ThreadPool*> pools = {&pool2, &pool3};
      if (i < first_wide) {
        pools = {nullptr, &pool1, &pool2, &pool3};
      }
      for (ThreadPool* p : pools) {
        const std::int64_t threads = p == nullptr ? 1 : p->num_threads() + 1;
        for (const SimdIsa isa : isas) {
          SCOPED_TRACE(std::string(simd_isa_name(isa)) +
                       " psize=" + std::to_string(plan.psize) +
                       " shape=" + std::to_string(plan.rows) + "x" +
                       std::to_string(plan.cols) +
                       " n=" + std::to_string(n) + " threads=" +
                       std::to_string(threads));
          ScopedIsa guard(isa);
          std::vector<float> out = nan_output(plan.rows, n);
          pattern_gemm_into(plan, px.view, out.data(), p, tiny_tiles());
          expect_bitwise_equal(as_tensor(plan.rows, n, out), ref);
          split_launches +=
              launch_chunks({&layer, px.view, out.data(), tiny_tiles()},
                            threads) > 1
                  ? 1
                  : 0;
        }
      }
    }
  }
  // The wide plans really split: a good share of the launches ran on
  // more than one chunk.
  EXPECT_GT(split_launches, 100);
}

TEST(Kernels, IntoFormsOverwriteStaleBuffersBitwise) {
  // Every `_into` kernel overwrites a NaN-prefilled output and reads X
  // through a strided, NaN-padded view; each must equal the naive
  // reference bitwise, serially and on a pool, and again when the same
  // buffer is reused with its previous result in it.
  Rng rng(67);
  const Tensor dw = Tensor::randn({19, 23}, rng);
  Tensor sparse = Tensor::randn({18, 23}, rng);
  for (std::int64_t i = 0; i < sparse.numel(); ++i) {
    if (rng.bernoulli(0.5)) {
      sparse[i] = 0.0F;
    }
  }
  const BlockPrunedMatrix bp = BlockPrunedMatrix::from_dense(sparse, 3);
  const IrregularPlan coo = IrregularPlan::build(sparse);
  const PatternPlan pp =
      PatternPlan::build(dw, random_pattern_set(4, 0.5, 2, rng));
  ThreadPool pool(3);
  for (const std::int64_t n : {1, 6, 37}) {
    const Tensor x = Tensor::randn({23, n}, rng);
    const PaddedActivation px = nan_padded(x);
    for (ThreadPool* p : {static_cast<ThreadPool*>(nullptr), &pool}) {
      SCOPED_TRACE("n=" + std::to_string(n) +
                   (p == nullptr ? " serial" : " pool"));
      const auto run = [&](std::int64_t rows, const Tensor& ref,
                           const auto& into) {
        std::vector<float> out = nan_output(rows, n);
        for (int pass = 0; pass < 2; ++pass) {  // 2nd pass: stale result
          into(out.data());
          expect_bitwise_equal(as_tensor(rows, n, out), ref);
        }
      };
      run(19, naive_dense_matmul(dw, x), [&](float* out) {
        dense_gemm_into(dw, px.view, out, p, tiny_tiles());
      });
      run(18, naive_dense_matmul(bp.to_dense(), x), [&](float* out) {
        block_gemm_into(bp, px.view, out, p, tiny_tiles());
      });
      run(18, naive_dense_matmul(coo.to_dense(), x), [&](float* out) {
        coo_gemm_into(coo, px.view, out, p, tiny_tiles());
      });
      run(19, naive_dense_matmul(pp.to_dense(), x), [&](float* out) {
        pattern_gemm_into(pp, px.view, out, p, tiny_tiles());
      });
    }
  }
}

TEST(Kernels, ManyCallLaunchBitwiseMatchesSerialCalls) {
  // A launch splits each call by its work into at most W + 1 chunks on a
  // W-worker pool (chunk 0 on the caller).  With no pool and on pools of
  // 1, 2 and 3 workers, one many-call plan_gemm_into over every mode's
  // plans of a 24 x 24 and a ragged 18 x 14 layer (one chunk each) and
  // of a 28 x 1200 and a ragged 18 x 1030 layer (7 and 5 psize-4 tile
  // rows, whose work splits them 1 to 4 ways as the width grows, so the
  // chunks of tile rows leave remainders) must leave every output bitwise
  // equal to a serial plan_gemm of that call alone and to
  // naive_dense_matmul.  The widths run AVX-512's ladder at U = 1, 2 and
  // 4 (20, 32, 64).  Every call reads a NaN-padded strided view and
  // overwrites a NaN-prefilled output, so a chunk that one call's split
  // leaves unrun, or a lane one call writes into another's buffer, breaks
  // the match.  A thread that finishes its own chunks takes the unclaimed
  // pieces of the others'; one more launch per pool puts a slow piece
  // first: a COO call whose nonzeros all sit in its first piece's rows.
  Rng rng(71);
  std::vector<std::unique_ptr<Linear>> owned;
  std::vector<Linear*> layers;
  owned.push_back(std::make_unique<Linear>(24, 24, rng));
  owned.push_back(std::make_unique<Linear>(18, 14, rng));
  owned.push_back(std::make_unique<Linear>(28, 1200, rng));
  owned.push_back(std::make_unique<Linear>(18, 1030, rng));
  for (auto& l : owned) {
    layers.push_back(l.get());
  }
  ModelPruner pruner(layers);
  BpConfig bp;
  bp.num_blocks = 2;
  bp.prune_fraction = 0.25;
  pruner.apply_bp(bp);
  const std::vector<PatternSet> sets = {random_pattern_set(4, 0.5, 2, rng)};
  std::vector<std::unique_ptr<PlanCache>> caches;
  for (const ExecMode mode : {ExecMode::kDense, ExecMode::kBlock,
                              ExecMode::kPattern, ExecMode::kIrregular}) {
    const bool prune_to_set =
        mode == ExecMode::kPattern || mode == ExecMode::kIrregular;
    caches.push_back(std::make_unique<PlanCache>(
        mode, layers, pruner.backbone_masks(),
        prune_to_set ? sets : std::vector<PatternSet>{}, 1));
  }
  std::vector<const LayerPlan*> plans;
  for (const auto& cache : caches) {
    for (std::int64_t li = 0; li < cache->num_layers(); ++li) {
      plans.push_back(&cache->plan(li, 0));
    }
  }
  // The slow call: 8 dense rows of 16384 columns over 64 rows, so its
  // work splits it on any pool and its first piece holds every nonzero.
  Tensor skewed({64, 16384});
  for (std::int64_t i = 0; i < 8 * 16384; ++i) {
    skewed[i] = static_cast<float>(rng.normal(0.0, 1.0));
  }
  LayerPlan slow;
  slow.mode = ExecMode::kIrregular;
  slow.rows = 64;
  slow.cols = 16384;
  slow.irregular = IrregularPlan::build(skewed);
  std::optional<ThreadPool> pool;
  for (const std::int64_t workers : {0, 1, 2, 3}) {
    if (workers > 0) {
      pool.emplace(workers);
    }
    ThreadPool* const p = workers > 0 ? &*pool : nullptr;
    std::int64_t split_calls = 0;
    for (const std::int64_t n : {1, 4, 20, 32, 64}) {
      SCOPED_TRACE("workers=" + std::to_string(workers) +
                   " n=" + std::to_string(n));
      std::vector<PaddedActivation> xs;
      std::vector<Tensor> refs;
      std::vector<std::vector<float>> outs;
      std::vector<GemmCall> calls;
      for (const LayerPlan* plan : plans) {
        const Tensor x = Tensor::randn({plan->cols, n}, rng);
        xs.push_back(nan_padded(x));
        refs.push_back(naive_dense_matmul(plan->dense_equivalent(), x));
        outs.push_back(nan_output(plan->rows, n));
      }
      for (std::size_t i = 0; i < plans.size(); ++i) {
        calls.push_back({plans[i], xs[i].view, outs[i].data(), tiny_tiles()});
        split_calls += launch_chunks(calls.back(), workers + 1) > 1 ? 1 : 0;
      }
      plan_gemm_into(calls, p);
      for (std::size_t i = 0; i < plans.size(); ++i) {
        const LayerPlan& plan = *plans[i];
        SCOPED_TRACE(std::string(exec_mode_name(plan.mode)) + " " +
                     std::to_string(plan.rows) + "x" +
                     std::to_string(plan.cols));
        const Tensor out = as_tensor(plan.rows, n, outs[i]);
        expect_bitwise_equal(out, plan_gemm(plan, as_tensor(xs[i].view),
                                            nullptr, tiny_tiles()));
        expect_bitwise_equal(out, refs[i]);
      }
      if (n == 64 && workers > 0) {
        // The slow call first: the thread that claims its first piece is
        // held while the others run every other piece, its own chunk's
        // included.
        SCOPED_TRACE("slow first piece");
        const Tensor x = Tensor::randn({slow.cols, n}, rng);
        const PaddedActivation px = nan_padded(x);
        std::vector<float> slow_out = nan_output(slow.rows, n);
        calls.insert(calls.begin(),
                     GemmCall{&slow, px.view, slow_out.data(), tiny_tiles()});
        EXPECT_GT(launch_chunks(calls.front(), workers + 1), 1);
        for (std::vector<float>& out : outs) {
          std::fill(out.begin(), out.end(),
                    std::numeric_limits<float>::quiet_NaN());
        }
        plan_gemm_into(calls, p);
        expect_bitwise_equal(as_tensor(slow.rows, n, slow_out),
                             plan_gemm(slow, x, nullptr, tiny_tiles()));
        for (std::size_t i = 0; i < plans.size(); ++i) {
          expect_bitwise_equal(as_tensor(plans[i]->rows, n, outs[i]),
                               refs[i]);
        }
      }
    }
    // With a pool, the wide layers' work splits them; alone, nothing does.
    if (workers == 0) {
      EXPECT_EQ(split_calls, 0);
    } else {
      EXPECT_GT(split_calls, 0);
    }
  }

  ThreadPool three(3);
  // Every call is validated before any runs: a bad call at the end of
  // the list throws and leaves the first call's output untouched.
  const PaddedActivation x =
      nan_padded(Tensor::randn({plans[0]->cols, 4}, rng));
  std::vector<float> untouched = nan_output(plans[0]->rows, 4);
  std::vector<GemmCall> calls = {
      {plans[0], x.view, untouched.data(), tiny_tiles()}};
  calls.push_back(calls.front());
  calls.back().options.k_tile = 0;
  EXPECT_THROW(plan_gemm_into(calls, &three), CheckError);
  EXPECT_TRUE(std::all_of(untouched.begin(), untouched.end(),
                          [](float v) { return std::isnan(v); }));
  plan_gemm_into(std::span<const GemmCall>{}, &three);  // no calls: no-op
}

TEST(Kernels, WorkSetsEachCallsSplit) {
  // A call splits into the fewest chunks of bounded work, at most one per
  // thread.  The default `rt3 serve --backend measured` deployment's
  // 64 x 64 pattern layers stay whole on the caller at batch 1 and 8
  // (4 columns per request) on any SIMD table, and kernel-levels' 512-row
  // layers (d x d attention, d x 4d FFN) split over every thread of a
  // 4-thread launch at each level.
  Rng rng(5);
  std::vector<std::unique_ptr<Linear>> owned;
  std::vector<Linear*> layers;
  owned.push_back(std::make_unique<Linear>(64, 64, rng));
  owned.push_back(std::make_unique<Linear>(512, 512, rng));
  owned.push_back(std::make_unique<Linear>(512, 2048, rng));
  for (auto& l : owned) {
    layers.push_back(l.get());
  }
  ModelPruner pruner(layers);
  BpConfig bp;
  bp.num_blocks = 4;
  bp.prune_fraction = 0.25;
  pruner.apply_bp(bp);
  std::vector<PatternSet> sets;
  for (const double s : {0.25, 0.5, 0.75}) {
    sets.push_back(random_pattern_set(4, s, 2, rng));
  }
  const PlanCache cache(ExecMode::kPattern, layers, pruner.backbone_masks(),
                        sets, 3);
  const bool simd = kernel_table_for(active_simd_isa()).width >= 8;
  for (std::int64_t level = 0; level < 3; ++level) {
    for (const std::int64_t batch : {1, 8}) {
      for (std::int64_t li = 0; li < 3; ++li) {
        const LayerPlan& plan = cache.plan(li, level);
        const std::int64_t n = 4 * batch;
        std::vector<float> x(static_cast<std::size_t>(plan.cols * n));
        const GemmCall call{&plan, {x.data(), plan.cols, n, n}, nullptr, {}};
        SCOPED_TRACE("layer " + std::to_string(li) + " level " +
                     std::to_string(level) + " batch " +
                     std::to_string(batch));
        EXPECT_EQ(launch_chunks(call, 1), 1);
        if (li == 0) {
          if (simd) {
            EXPECT_EQ(launch_chunks(call, 4), 1);
          }
        } else {
          EXPECT_EQ(launch_chunks(call, 4), 4);
          EXPECT_EQ(launch_chunks(call, 3), 3);
        }
        EXPECT_LE(launch_chunks(call, 64), plan.rows / 4);
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

TEST(Kernels, OptionValidationRejectsKTileBelowOne) {
  // k_tile is the one launch option: it must be >= 1, and the error names
  // it; any valid value leaves the bits unchanged.
  Rng rng(63);
  const Tensor w = Tensor::randn({4, 4}, rng);
  const Tensor x = Tensor::randn({4, 4}, rng);
  for (const std::int64_t k_tile : {0, -3}) {
    try {
      dense_gemm(w, x, nullptr, KernelOptions{k_tile});
      ADD_FAILURE() << "k_tile=" << k_tile << " was accepted";
    } catch (const CheckError& e) {
      EXPECT_NE(std::string(e.what()).find("k_tile=" +
                                           std::to_string(k_tile)),
                std::string::npos)
          << e.what();
    }
  }
  for (const std::int64_t k_tile : {1, 3, 64}) {
    expect_bitwise_equal(dense_gemm(w, x, nullptr, KernelOptions{k_tile}),
                         naive_dense_matmul(w, x));
  }
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
                        {set}, 1);
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
  PlanCache cache(ExecMode::kPattern, layers, {}, sets, 3);
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

/// Three pruned layers under a MeasuredBackend in `mode` with three
/// pattern-set levels: two small ones (one ragged) that run whole on the
/// caller and a 512 x 256 one whose work splits it over the pool.
struct MeasuredRig {
  std::vector<std::unique_ptr<Linear>> owned;
  std::vector<Linear*> layers;
  std::unique_ptr<MeasuredBackend> backend;
};

MeasuredRig measured_rig(ExecMode mode, std::int64_t threads,
                         std::int64_t max_batch) {
  MeasuredRig rig;
  Rng rng(29);
  rig.owned.push_back(std::make_unique<Linear>(24, 24, rng));
  rig.owned.push_back(std::make_unique<Linear>(18, 14, rng));
  rig.owned.push_back(std::make_unique<Linear>(512, 256, rng));
  for (auto& l : rig.owned) {
    rig.layers.push_back(l.get());
  }
  ModelPruner pruner(rig.layers);
  BpConfig bp;
  bp.num_blocks = 2;
  bp.prune_fraction = 0.25;
  pruner.apply_bp(bp);
  std::vector<PatternSet> sets;
  for (const double s : {0.25, 0.5, 0.75}) {
    sets.push_back(random_pattern_set(4, s, 2, rng));
  }
  MeasuredBackendConfig cfg;
  cfg.mode = mode;
  cfg.threads = threads;
  cfg.max_batch = max_batch;
  cfg.kernel = tiny_tiles();
  const bool prune_to_set =
      mode == ExecMode::kPattern || mode == ExecMode::kIrregular;
  rig.backend = std::make_unique<MeasuredBackend>(
      cfg, rig.layers, pruner.backbone_masks(),
      prune_to_set ? sets : std::vector<PatternSet>{},
      std::vector<double>{1400.0, 1000.0, 600.0});
  return rig;
}

TEST(MeasuredBackend, ReusedWorkspacesStayBitwiseAcrossBatchSizes) {
  // run_batch writes every layer into a workspace reused across calls:
  // alternating widths 8 -> 1 -> 8 -> 3 at every level must leave each
  // layer's output bitwise equal to the naive product of that level's
  // plan and the batch's activation, with nothing stale from a wider or
  // sparser earlier call.
  for (ExecMode mode : {ExecMode::kDense, ExecMode::kBlock,
                        ExecMode::kPattern, ExecMode::kIrregular}) {
    MeasuredRig rig = measured_rig(mode, 3, 8);
    MeasuredBackend& backend = *rig.backend;
    for (std::int64_t level = 0; level < backend.num_levels(); ++level) {
      backend.activate_level(level);
      for (const std::int64_t batch : {8, 1, 8, 3}) {
        SCOPED_TRACE(std::string(exec_mode_name(mode)) +
                     " level=" + std::to_string(level) +
                     " batch=" + std::to_string(batch));
        const BatchExecution exec = backend.run_batch(batch, level);
        EXPECT_GT(exec.kernel_wall_ms, 0.0);
        for (std::int64_t li = 0; li < backend.plans().num_layers(); ++li) {
          const Tensor x = as_tensor(backend.batch_input(li, batch));
          EXPECT_EQ(x.size(1), batch * backend.config().cols_per_request);
          expect_bitwise_equal(
              backend.last_output(li),
              naive_dense_matmul(
                  backend.plans().plan(li, level).dense_equivalent(), x));
        }
      }
    }
  }
}

TEST(MeasuredBackend, BatchInputsAreCacheLineAlignedAndTunedLayersBitwise) {
  // Every layer's activation starts on a 64-byte cache line at every batch
  // width (the output workspaces are checked at construction).  With a
  // different tuned k_tile per layer, the batch's one launch still leaves
  // every layer bitwise equal to the naive product.
  MeasuredRig rig = measured_rig(ExecMode::kPattern, 3, 8);
  MeasuredBackend& backend = *rig.backend;
  for (std::int64_t li = 0; li < backend.plans().num_layers(); ++li) {
    for (std::int64_t batch = 1; batch <= 8; ++batch) {
      const float* data = backend.batch_input(li, batch).data;
      EXPECT_EQ(reinterpret_cast<std::uintptr_t>(data) % 64, 0U)
          << "layer " << li << " batch " << batch;
    }
  }
  TuningRecord record;
  record.mode = ExecMode::kPattern;
  for (std::int64_t level = 0; level < backend.num_levels(); ++level) {
    for (std::int64_t li = 0; li < backend.plans().num_layers(); ++li) {
      TuningEntry e;
      e.layer = li;
      e.level = level;
      e.options.k_tile = 1 + li + 2 * level;
      record.entries.push_back(e);
    }
  }
  ASSERT_EQ(backend.apply_tuning(record),
            backend.plans().num_layers() * backend.num_levels());
  for (std::int64_t level = 0; level < backend.num_levels(); ++level) {
    backend.activate_level(level);
    for (const std::int64_t batch : {1, 5, 8}) {
      SCOPED_TRACE("level=" + std::to_string(level) +
                   " batch=" + std::to_string(batch));
      backend.run_batch(batch, level);
      for (std::int64_t li = 0; li < backend.plans().num_layers(); ++li) {
        expect_bitwise_equal(
            backend.last_output(li),
            naive_dense_matmul(
                backend.plans().plan(li, level).dense_equivalent(),
                as_tensor(backend.batch_input(li, batch))));
      }
    }
  }
}

TEST(MeasuredBackend, SteadyStateRunBatchAllocatesNoBuffers) {
  // After warm-up a batch reads its activations in place, writes
  // construction-time workspaces and publishes its launch in the pool's
  // own descriptor and cursors: no call allocates anything, whatever the
  // level or width.  The rig's large layer splits, so batches do launch
  // on the pool.
  MeasuredRig rig = measured_rig(ExecMode::kPattern, 3, 8);
  MeasuredBackend& backend = *rig.backend;
  for (const std::int64_t batch : {1, 8}) {
    const GemmCall big{&backend.plans().plan(2, 0),
                       backend.batch_input(2, batch), nullptr, {}};
    EXPECT_GT(launch_chunks(big, 4), 1) << "batch " << batch;
  }
  for (std::int64_t level = 0; level < backend.num_levels(); ++level) {
    backend.activate_level(level);
    backend.run_batch(1, level);
    backend.run_batch(8, level);
  }
  const std::int64_t allocs_before = g_heap_allocs.load();
  const std::int64_t large_before = g_large_heap_allocs.load();
  std::int64_t calls = 0;
  for (int rep = 0; rep < 50; ++rep) {
    for (std::int64_t level = 0; level < backend.num_levels(); ++level) {
      backend.activate_level(level);
      for (const std::int64_t batch : {1, 8, 3}) {
        backend.run_batch(batch, level);
        ++calls;
      }
    }
  }
  EXPECT_EQ(g_large_heap_allocs.load() - large_before, 0);
  const double per_call =
      static_cast<double>(g_heap_allocs.load() - allocs_before) /
      static_cast<double>(calls);
  RecordProperty("allocations_per_run_batch", std::to_string(per_call));
  EXPECT_EQ(per_call, 0.0);

  // The counter does see allocations: the Tensor-returning run_layer
  // allocates its output.
  Rng rng(3);
  const Tensor x = Tensor::randn({24, 64}, rng);
  const std::int64_t layer_before = g_large_heap_allocs.load();
  backend.run_layer(0, x);
  EXPECT_GT(g_large_heap_allocs.load() - layer_before, 0);
}

TEST(AnalyticBackend, AttachedBackendReproducesDefaultServerExactly) {
  const LatencyModel latency = paper_transformer_latency();
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

TEST(AnalyticBackend, LevelTableIsBitwiseEqualToTheLatencyModel) {
  const LatencyModel latency = paper_transformer_latency();
  const ModelSpec spec = ModelSpec::paper_transformer();
  const std::vector<double> sparsities =
      paper_ladder_sparsities(latency, 115.0);
  const VfTable table = VfTable::odroid_xu3_a7();
  std::vector<double> freqs;
  for (std::int64_t li : paper_serve_ladder()) {
    freqs.push_back(table.level(li).freq_mhz);
  }
  for (ExecMode mode : {ExecMode::kDense, ExecMode::kBlock, ExecMode::kPattern,
                        ExecMode::kIrregular}) {
    AnalyticBackend backend(latency, spec, mode, freqs, sparsities);
    ASSERT_EQ(backend.num_levels(), static_cast<std::int64_t>(freqs.size()));
    for (std::size_t pos = 0; pos < freqs.size(); ++pos) {
      const double cycles_one = latency.cycles(spec, sparsities[pos], mode);
      const double fixed = latency.config().fixed_cycles;
      for (std::int64_t b = 1; b <= 16; ++b) {
        const double expected =
            (fixed + (cycles_one - fixed) * static_cast<double>(b)) /
            (freqs[pos] * 1000.0);
        const double got =
            backend.batch_latency_ms(b, static_cast<std::int64_t>(pos));
        EXPECT_EQ(got, expected) << "level " << pos << " batch " << b;
        EXPECT_EQ(
            backend.run_batch(b, static_cast<std::int64_t>(pos)).latency_ms,
            got);
      }
    }
  }
}

TEST(AnalyticBackend, OutOfRangeSparsityThrowsAtConstruction) {
  const LatencyModel latency = paper_transformer_latency();
  const ModelSpec spec = ModelSpec::paper_transformer();
  for (double bad : {1.0, -0.1}) {
    EXPECT_THROW(AnalyticBackend(latency, spec, ExecMode::kPattern,
                                 {1000.0, 800.0}, {0.5, bad}),
                 CheckError)
        << bad;
  }
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

TEST(MeasuredBackend, RejectsNonPositiveThreads) {
  Rng rng(67);
  std::vector<std::unique_ptr<Linear>> owned;
  std::vector<Linear*> layers;
  owned.push_back(std::make_unique<Linear>(8, 8, rng));
  layers.push_back(owned.back().get());
  MeasuredBackendConfig cfg;
  cfg.mode = ExecMode::kDense;
  // Above the cap is refused by value before any worker thread starts.
  for (std::int64_t threads :
       {std::int64_t{0}, std::int64_t{-3}, std::int64_t{100000}}) {
    cfg.threads = threads;
    try {
      MeasuredBackend backend(cfg, layers, {}, {}, {1000.0});
      ADD_FAILURE() << "threads=" << threads << " was accepted";
    } catch (const CheckError& e) {
      EXPECT_NE(std::string(e.what()).find("threads=" +
                                           std::to_string(threads)),
                std::string::npos)
          << e.what();
    }
  }
}

TEST(MeasuredBackend, DefaultPoolFillsTheHostsOtherCores) {
  // A launch runs on the calling thread plus every pool worker, so the
  // default pool takes every core but one; the serving session's
  // measured pool defaults to the same count.
  Rng rng(67);
  std::vector<std::unique_ptr<Linear>> owned;
  std::vector<Linear*> layers;
  owned.push_back(std::make_unique<Linear>(8, 8, rng));
  layers.push_back(owned.back().get());
  MeasuredBackendConfig cfg;
  cfg.mode = ExecMode::kDense;
  const MeasuredBackend backend(cfg, layers, {}, {}, {1000.0});
  const auto cores =
      static_cast<std::int64_t>(std::thread::hardware_concurrency());
  const std::int64_t expected = std::min<std::int64_t>(
      std::max<std::int64_t>(1, cores - 1),
      MeasuredBackendConfig::kMaxThreads);
  EXPECT_EQ(backend.config().threads, expected);
  EXPECT_EQ(ServeSessionConfig{}.measured_threads, expected);
}

TEST(MeasuredBackend, IdleDefaultBackendBurnsNoCpuAfterALaunch) {
  // Workers sleep between launches and only the caller's join spins, for
  // a bounded time, so once a batch has launched on the whole default
  // pool, an idle backend costs no CPU: the process's CPU time across a
  // 1 s sleep stays under 100 ms, where one spinning worker would add
  // about a second.
  Rng rng(67);
  std::vector<std::unique_ptr<Linear>> owned;
  std::vector<Linear*> layers;
  owned.push_back(std::make_unique<Linear>(512, 512, rng));
  layers.push_back(owned.back().get());
  MeasuredBackendConfig cfg;
  cfg.mode = ExecMode::kDense;
  MeasuredBackend backend(cfg, layers, {}, {}, {1000.0});
  const GemmCall call{&backend.plans().plan(0, 0), backend.batch_input(0, 8),
                      nullptr, {}};
  EXPECT_GT(launch_chunks(call, cfg.threads + 1), 1);
  backend.run_batch(8, 0);
#if defined(__linux__)
  const auto cpu_s = [] {
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    const auto s = [](const timeval& t) {
      return static_cast<double>(t.tv_sec) +
             static_cast<double>(t.tv_usec) * 1e-6;
    };
    return s(usage.ru_utime) + s(usage.ru_stime);
  };
  const double before = cpu_s();
  std::this_thread::sleep_for(std::chrono::seconds(1));
  const double burned = cpu_s() - before;
  RecordProperty("idle_cpu_s", std::to_string(burned));
  EXPECT_LT(burned, 0.1);
#endif
}

TEST(ThreadPool, KernelLaunchAfterAThrowingLaunchIsBitwise) {
  // A launch whose pieces throw, on the caller's queue and a worker's,
  // surfaces the error and leaves the pool whole: the next kernel launch
  // on it splits over every thread and runs every piece, bitwise equal to
  // the naive product.
  Rng rng(73);
  LayerPlan plan;
  plan.rows = 256;
  plan.cols = 256;
  plan.dense_weight = Tensor::randn({256, 256}, rng);
  const Tensor x = Tensor::randn({256, 32}, rng);
  const PaddedActivation px = nan_padded(x);
  const Tensor reference = naive_dense_matmul(plan.dense_weight, x);
  ThreadPool pool(3);
  for (const std::int64_t bad_queue : {0, 2}) {
    SCOPED_TRACE("throwing queue " + std::to_string(bad_queue));
    EXPECT_THROW(pool.run(4, 2,
                          [&](std::int64_t q, std::int64_t) {
                            if (q == bad_queue) {
                              throw CheckError("piece failed");
                            }
                          }),
                 CheckError);
    std::vector<float> out = nan_output(plan.rows, x.size(1));
    const GemmCall call{&plan, px.view, out.data(), tiny_tiles()};
    EXPECT_EQ(launch_chunks(call, 4), 4);
    plan_gemm_into(std::span<const GemmCall>(&call, 1), &pool);
    expect_bitwise_equal(as_tensor(plan.rows, x.size(1), out), reference);
  }
}

TEST(ThreadPool, PinnedPoolMatchesFloatingBitwiseAndPinsOneCorePerWorker) {
  ThreadPool floating(2);
  EXPECT_FALSE(floating.pinned());  // not requested
  ThreadPool pinned(2, /*pin_to_cores=*/true);
#if defined(__linux__)
  EXPECT_TRUE(pinned.pinned());
#endif
  Rng rng(71);
  const Tensor w = Tensor::randn({256, 256}, rng);  // enough work to split
  const Tensor x = Tensor::randn({256, 16}, rng);
  const Tensor reference = naive_dense_matmul(w, x);
  // Pinning changes where work runs, never what it computes.
  expect_bitwise_equal(dense_gemm(w, x, &pinned, tiny_tiles()), reference);
  expect_bitwise_equal(dense_gemm(w, x, &floating, tiny_tiles()), reference);
#if defined(__linux__)
  // Worker i runs on core i % hardware_concurrency and nowhere else.  One
  // launch gives each thread one piece, and each piece holds its thread
  // until every thread has started one, so the masks read below come from
  // distinct, concurrently running workers (the caller's is left out);
  // the deadline only bounds a pool that fails to run them at once, so
  // host load cannot fail the check.
  const std::int64_t threads = pinned.num_threads() + 1;
  const std::thread::id caller = std::this_thread::get_id();
  std::mutex mu;
  std::condition_variable all_started;
  std::int64_t started = 0;
  bool concurrent = true;
  std::vector<int> cpus;  // each worker's one CPU, or -1 for a wider mask
  pinned.run(threads, 1, [&](std::int64_t, std::int64_t) {
    std::unique_lock<std::mutex> lock(mu);
    ++started;
    all_started.notify_all();
    if (!all_started.wait_for(lock, std::chrono::seconds(60),
                              [&] { return started == threads; })) {
      concurrent = false;
    }
    if (std::this_thread::get_id() == caller) {
      return;
    }
    cpu_set_t set;
    CPU_ZERO(&set);
    int cpu = -1;
    if (pthread_getaffinity_np(pthread_self(), sizeof(set), &set) == 0 &&
        CPU_COUNT(&set) == 1) {
      for (int c = 0; c < CPU_SETSIZE; ++c) {
        cpu = CPU_ISSET(c, &set) ? c : cpu;
      }
    }
    cpus.push_back(cpu);
  });
  EXPECT_TRUE(concurrent) << "the pinned workers never ran at once";
  const auto cores = static_cast<int>(
      std::max(1U, std::thread::hardware_concurrency()));
  std::vector<int> expected;
  for (std::int64_t i = 0; i < threads - 1; ++i) {
    expected.push_back(static_cast<int>(i) % cores);
  }
  std::sort(cpus.begin(), cpus.end());
  std::sort(expected.begin(), expected.end());
  EXPECT_EQ(cpus, expected);
#endif
}

TEST(Autotuner, PicksTheGridMinimumOfEveryCellWithInjectedCost) {
  // Injected deterministic cost: a bowl over the k_tile ladder whose
  // bottom moves with (layer, level).
  const Autotuner::CostFn bowl = [](std::int64_t layer, std::int64_t level,
                                    const KernelOptions& o) {
    const double kt = std::log2(static_cast<double>(o.k_tile));
    return 1.0 + std::abs(kt - static_cast<double>(4 + (layer + level) % 4));
  };
  const auto same = [](const KernelOptions& a, const KernelOptions& b) {
    return a.k_tile == b.k_tile;
  };
  // Only the dense kernel reads k_tile: the k_tile ladder for it, the one
  // default launch for every other family.
  EXPECT_EQ(Autotuner::candidate_grid(ExecMode::kDense).size(), 5U);
  for (const ExecMode mode :
       {ExecMode::kBlock, ExecMode::kPattern, ExecMode::kIrregular}) {
    const std::vector<KernelOptions> grid = Autotuner::candidate_grid(mode);
    ASSERT_EQ(grid.size(), 1U) << exec_mode_name(mode);
    EXPECT_EQ(grid[0].k_tile, KernelOptions{}.k_tile) << exec_mode_name(mode);
  }
  TunerConfig cfg;
  cfg.repeats = 2;
  for (const ExecMode mode : {ExecMode::kDense, ExecMode::kPattern}) {
    SCOPED_TRACE(exec_mode_name(mode));
    const std::vector<KernelOptions> grid = Autotuner::candidate_grid(mode);
    std::int64_t calls = 0;
    Autotuner tuner(cfg, mode, 2, 3,
                    [&](std::int64_t layer, std::int64_t level,
                        const KernelOptions& o) {
                      ++calls;
                      return bowl(layer, level, o);
                    });
    const TuningRecord record = tuner.tune();
    ASSERT_EQ(record.entries.size(), 6U);  // 2 layers x 3 levels
    // One warm-up plus `repeats` measurements of every point of every cell.
    EXPECT_EQ(calls, static_cast<std::int64_t>(6 * grid.size()) *
                         (cfg.repeats + 1));
    for (const TuningEntry& e : record.entries) {
      std::size_t best = 0;
      for (std::size_t g = 1; g < grid.size(); ++g) {
        if (bowl(e.layer, e.level, grid[g]) <
            bowl(e.layer, e.level, grid[best])) {
          best = g;
        }
      }
      EXPECT_TRUE(same(e.options, grid[best]))
          << "layer " << e.layer << " level " << e.level;
      // The median of a deterministic cost is the cost.
      EXPECT_EQ(e.measured_ms, bowl(e.layer, e.level, grid[best]));
    }
    // Text round-trip is bit-exact, so re-serialization is byte-identical.
    EXPECT_EQ(TuningRecord::parse(record.serialize()).serialize(),
              record.serialize());
  }
  // A flat cost ties everywhere, so every cell keeps the first grid point.
  Autotuner flat(cfg, ExecMode::kDense, 2, 3,
                 [](std::int64_t, std::int64_t, const KernelOptions&) {
                   return 1.0;
                 });
  for (const TuningEntry& e : flat.tune().entries) {
    EXPECT_TRUE(same(e.options, Autotuner::candidate_grid(ExecMode::kDense)[0]));
  }
  EXPECT_THROW(TuningRecord::parse("not a tuning file"), CheckError);
}

TEST(TuningRecord, MalformedRecordsAreRejectedByFieldName) {
  TuningRecord record;
  record.mode = ExecMode::kPattern;
  record.isa = "avx2";
  record.batch = 1;
  TuningEntry e;
  e.measured_ms = 0.25;
  record.entries.push_back(e);
  const std::string text = record.serialize();
  const auto edit = [&](const std::string& from, const std::string& to) {
    std::string edited = text;
    const std::size_t at = edited.find(from);
    EXPECT_NE(at, std::string::npos) << from;
    return edited.replace(at, from.size(), to);
  };
  const std::string entry_line =
      text.substr(text.find("entry layer=0"));  // ends in '\n'
  // Each record must fail with a CheckError naming the field, never with
  // std::stoll/std::stod's own exceptions or by loading a non-finite value.
  const std::pair<std::string, std::string> bad[] = {
      {edit("layer=0", "layer=abc"), "layer: bad integer 'abc'"},
      {edit("measured_ms=0.25", "measured_ms=1e999"),
       "measured_ms: bad number '1e999'"},
      {edit("measured_ms=0.25", "measured_ms=nan"),
       "measured_ms: non-finite value 'nan'"},
      {edit("entries 1", "entries 999999999999999"),
       "entry 1: expected an entry line (entries 999999999999999)"},
      {edit("batch 1", "batch -5"), "batch: must be >= 1"},
      {edit("batch 1", "batch 0"), "batch: must be >= 1"},
      {edit("layer=0", "layer=-1"), "entry 0 layer: must be >= 0"},
      {edit("level=0", "level=-2"), "entry 0 level: must be >= 0"},
      {edit("measured_ms=0.25", "measured_ms=-1"),
       "entry 0 measured_ms: must be >= 0"},
      // Nothing may follow the last counted entry: neither an uncounted
      // entry line nor garbage.
      {text + entry_line + "garbage\n",
       "TuningRecord: unexpected 'entry' after the last field"},
      {text + "garbage\n",
       "TuningRecord: unexpected 'garbage' after the last field"},
      // A repeated (layer, level) would let the last entry silently win.
      {edit("entries 1", "entries 2") + entry_line,
       "entry 1: duplicate entry for layer=0 level=0"},
      // A v1 record, whose entries carried an unroll factor, a v2 record,
      // whose entries carried a fitted-model prediction, and a v3 record,
      // whose entries carried row_grain and threads, fail by version.
      {"rt3-tuning v1\nmode pattern\nisa avx2\nbatch 1\nentries 1\n"
       "entry layer=0 level=0 k_tile=64 row_grain=16 unroll=2 threads=0 "
       "predicted_ms=0.5 measured_ms=0.25\n",
       "version v1 is not supported (need v4)"},
      {"rt3-tuning v2\nmode pattern\nisa avx2\nbatch 1\nentries 1\n"
       "entry layer=0 level=0 k_tile=64 row_grain=16 threads=0 "
       "predicted_ms=0.5 measured_ms=0.25\n",
       "version v2 is not supported (need v4)"},
      {"rt3-tuning v3\nmode pattern\nisa avx2\nbatch 1\nentries 1\n"
       "entry layer=0 level=0 k_tile=64 row_grain=16 threads=0 "
       "measured_ms=0.25\n",
       "version v3 is not supported (need v4)"},
      {edit("k_tile=64", "k_tile=0"), "kernel option k_tile=0 is invalid"},
  };
  for (const auto& [edited, expected] : bad) {
    try {
      TuningRecord::parse(edited);
      ADD_FAILURE() << "accepted: " << edited;
    } catch (const CheckError& err) {
      EXPECT_NE(std::string(err.what()).find(expected), std::string::npos)
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
  PlanCache cache(ExecMode::kPattern, layers, {}, sets, 2);
  ASSERT_FALSE(cache.plan(0, 0).tuned.has_value());

  TuningRecord record;
  record.mode = ExecMode::kPattern;
  TuningEntry e;
  e.layer = 0;
  e.level = 1;
  e.options.k_tile = 32;
  record.entries.push_back(e);
  TuningEntry oob = e;  // out-of-range entries are skipped, not fatal
  oob.layer = 9;
  record.entries.push_back(oob);
  EXPECT_EQ(cache.apply_tuning(record), 1);
  ASSERT_TRUE(cache.plan(0, 1).tuned.has_value());
  EXPECT_EQ(cache.plan(0, 1).tuned->k_tile, 32);
  EXPECT_FALSE(cache.plan(0, 0).tuned.has_value());

  // A record for another kernel family is a mix-up, not data.
  record.mode = ExecMode::kDense;
  EXPECT_THROW(cache.apply_tuning(record), CheckError);
  // Invalid options are rejected by set_tuned's validation.
  EXPECT_THROW(cache.set_tuned(0, 0, KernelOptions{0}), CheckError);
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
