// Kernel microbenchmarks (google-benchmark): dense vs COO vs CSR vs
// block-pruned vs pattern-masked SpMM, plus pattern-set switch cost.
//
// Not a paper exhibit per se, but the executable evidence behind the
// paper's hardware-efficiency claims: block/pattern formats keep regular
// inner loops (fast), COO pays per-element indexing (slow), and a pattern
// switch touches kilobytes, not megabytes.
#include <benchmark/benchmark.h>

#include "common/rng.hpp"
#include "exec/kernels.hpp"
#include "exec/simd.hpp"
#include "pruning/model_pruner.hpp"
#include "pruning/pattern_prune.hpp"
#include "sparse/block_format.hpp"
#include "sparse/formats.hpp"
#include "tensor/tensor.hpp"

namespace {

using namespace rt3;

constexpr std::int64_t kRows = 256;
constexpr std::int64_t kCols = 256;
constexpr std::int64_t kBatch = 32;
constexpr double kSparsity = 0.75;

Tensor make_block_sparse_weight() {
  Rng rng(1);
  Tensor w = Tensor::randn({kRows, kCols}, rng);
  // Block-structured column pruning, 4 blocks.
  BpConfig cfg;
  cfg.num_blocks = 4;
  cfg.prune_fraction = kSparsity;
  const Tensor mask = bp_mask(w, cfg);
  return mul(w, mask);
}

Tensor make_activation() {
  Rng rng(2);
  return Tensor::randn({kCols, kBatch}, rng);
}

void BM_DenseMatmul(benchmark::State& state) {
  Rng rng(3);
  const Tensor w = Tensor::randn({kRows, kCols}, rng);
  const Tensor x = make_activation();
  for (auto _ : state) {
    benchmark::DoNotOptimize(matmul2d(w, x));
  }
}
BENCHMARK(BM_DenseMatmul);

void BM_CooSpmm(benchmark::State& state) {
  const CooMatrix coo = CooMatrix::from_dense(make_block_sparse_weight());
  const Tensor x = make_activation();
  for (auto _ : state) {
    benchmark::DoNotOptimize(coo.multiply(x));
  }
}
BENCHMARK(BM_CooSpmm);

void BM_CsrSpmm(benchmark::State& state) {
  const CsrMatrix csr = CsrMatrix::from_dense(make_block_sparse_weight());
  const Tensor x = make_activation();
  for (auto _ : state) {
    benchmark::DoNotOptimize(csr.multiply(x));
  }
}
BENCHMARK(BM_CsrSpmm);

void BM_BlockSpmm(benchmark::State& state) {
  const BlockPrunedMatrix blocked =
      BlockPrunedMatrix::from_dense(make_block_sparse_weight(), 4);
  const Tensor x = make_activation();
  for (auto _ : state) {
    benchmark::DoNotOptimize(blocked.multiply(x));
  }
}
BENCHMARK(BM_BlockSpmm);

void BM_PatternSpmm(benchmark::State& state) {
  Rng rng(4);
  const Tensor w = make_block_sparse_weight();
  const PatternSet set = random_pattern_set(16, 0.5, 4, rng);
  const PatternMaskedMatrix pm = PatternMaskedMatrix::from_dense(w, set);
  const Tensor x = make_activation();
  for (auto _ : state) {
    benchmark::DoNotOptimize(pm.multiply(x));
  }
}
BENCHMARK(BM_PatternSpmm);

// SIMD-vs-scalar pairs over the measured-backend kernel entry points.
// Same inputs, same bitwise outputs — the delta is pure vectorization.
// The ISA is forced around the timing loop and restored afterwards so
// later benchmarks in the binary see the detected ISA again.

void run_dense_gemm_with_isa(benchmark::State& state, SimdIsa isa) {
  Rng rng(3);
  const Tensor w = Tensor::randn({kRows, kCols}, rng);
  const Tensor x = make_activation();
  const KernelOptions opts;
  set_simd_isa(isa);
  for (auto _ : state) {
    benchmark::DoNotOptimize(dense_gemm(w, x, nullptr, opts));
  }
  set_simd_isa(detect_simd_isa());
}

void BM_DenseGemmScalar(benchmark::State& state) {
  run_dense_gemm_with_isa(state, SimdIsa::kScalar);
}
BENCHMARK(BM_DenseGemmScalar);

void BM_DenseGemmSimd(benchmark::State& state) {
  run_dense_gemm_with_isa(state, detect_simd_isa());
}
BENCHMARK(BM_DenseGemmSimd);

void run_block_gemm_with_isa(benchmark::State& state, SimdIsa isa) {
  const BlockPrunedMatrix blocked =
      BlockPrunedMatrix::from_dense(make_block_sparse_weight(), 4);
  const Tensor x = make_activation();
  const KernelOptions opts;
  set_simd_isa(isa);
  for (auto _ : state) {
    benchmark::DoNotOptimize(block_gemm(blocked, x, nullptr, opts));
  }
  set_simd_isa(detect_simd_isa());
}

void BM_BlockGemmScalar(benchmark::State& state) {
  run_block_gemm_with_isa(state, SimdIsa::kScalar);
}
BENCHMARK(BM_BlockGemmScalar);

void BM_BlockGemmSimd(benchmark::State& state) {
  run_block_gemm_with_isa(state, detect_simd_isa());
}
BENCHMARK(BM_BlockGemmSimd);

// Pattern pairs at the serving widths: batch 1 (4 activation columns,
// narrower than an AVX2 vector) and batch 8 (32 columns).  psize 4 with
// 2 patterns per set matches the measured backend's pattern sets.
void run_pattern_gemm_with_isa(benchmark::State& state, SimdIsa isa) {
  Rng rng(4);
  const PatternSet set = random_pattern_set(4, 0.5, 2, rng);
  const PatternPlan plan = PatternPlan::build(make_block_sparse_weight(), set);
  const Tensor x = Tensor::randn({kCols, state.range(0)}, rng);
  const KernelOptions opts;
  set_simd_isa(isa);
  for (auto _ : state) {
    benchmark::DoNotOptimize(pattern_gemm(plan, x, nullptr, opts));
  }
  set_simd_isa(detect_simd_isa());
}

void BM_PatternGemmScalar(benchmark::State& state) {
  run_pattern_gemm_with_isa(state, SimdIsa::kScalar);
}
BENCHMARK(BM_PatternGemmScalar)->Arg(4)->Arg(32);

void BM_PatternGemmSimd(benchmark::State& state) {
  run_pattern_gemm_with_isa(state, detect_simd_isa());
}
BENCHMARK(BM_PatternGemmSimd)->Arg(4)->Arg(32);

void BM_MaskComposition(benchmark::State& state) {
  // The wall-clock cost of an RT3 pattern-set switch at host scale: mask
  // re-composition over all prunable layers of a small Transformer.
  Rng rng(5);
  std::vector<std::unique_ptr<Linear>> layers;
  std::vector<Linear*> raw;
  for (int i = 0; i < 8; ++i) {
    layers.push_back(std::make_unique<Linear>(64, 64, rng));
    raw.push_back(layers.back().get());
  }
  ModelPruner pruner(raw);
  BpConfig bp;
  bp.num_blocks = 4;
  bp.prune_fraction = 0.35;
  pruner.apply_bp(bp);
  const PatternSet set = random_pattern_set(8, 0.5, 4, rng);
  for (auto _ : state) {
    pruner.apply_pattern_set(set);
    benchmark::DoNotOptimize(pruner.overall_sparsity());
  }
}
BENCHMARK(BM_MaskComposition);

void BM_StorageAccounting(benchmark::State& state) {
  const Tensor w = make_block_sparse_weight();
  for (auto _ : state) {
    const auto coo = CooMatrix::from_dense(w);
    const auto blocked = BlockPrunedMatrix::from_dense(w, 4);
    benchmark::DoNotOptimize(coo.storage_bytes());
    benchmark::DoNotOptimize(blocked.storage_bytes());
  }
}
BENCHMARK(BM_StorageAccounting);

}  // namespace

BENCHMARK_MAIN();
