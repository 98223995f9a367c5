#include "exec/kernels.hpp"

#include <algorithm>
#include <cmath>
#include <functional>

#include "common/check.hpp"
#include "exec/kernels_dispatch.hpp"
#include "exec/simd.hpp"

namespace rt3 {
namespace {

/// Splits [0, total) into at most min(pool workers, options.threads) row
/// chunks — never more chunks than can run concurrently, so no worker
/// queues behind another while its siblings idle.  Chunk boundaries are
/// multiples of `align` rows; the remainder is spread one align-unit at a
/// time across the leading chunks so sizes differ by at most one unit.
/// Serial when the pool is absent, capped to one thread, or the matrix is
/// too small to amortize dispatch.
void parallel_rows(ThreadPool* pool, std::int64_t total,
                   const KernelOptions& options, std::int64_t align,
                   const std::function<void(std::int64_t, std::int64_t)>& body) {
  if (total <= 0) {
    return;
  }
  std::int64_t max_chunks = pool == nullptr ? 1 : pool->num_threads();
  if (options.threads > 0) {
    max_chunks = std::min(max_chunks, options.threads);
  }
  if (max_chunks <= 1 || total < 2 * options.row_grain) {
    body(0, total);
    return;
  }
  const std::int64_t units = (total + align - 1) / align;
  const std::int64_t grain_units =
      std::max<std::int64_t>(1, options.row_grain / align);
  std::int64_t chunks = std::min(max_chunks, units / grain_units);
  if (chunks <= 1) {
    body(0, total);
    return;
  }
  const std::int64_t base = units / chunks;
  const std::int64_t rem = units % chunks;
  std::int64_t begin = 0;
  for (std::int64_t c = 0; c < chunks && begin < total; ++c) {
    const std::int64_t take = (base + (c < rem ? 1 : 0)) * align;
    const std::int64_t end = std::min(begin + take, total);
    pool->submit([&body, begin, end] { body(begin, end); });
    begin = end;
  }
  pool->wait_idle();
}

void check_matmul_shapes(std::int64_t w_cols, const Tensor& x) {
  check(x.dim() == 2 && x.size(0) == w_cols,
        "exec kernel: activation shape mismatch");
}

}  // namespace

const KernelTable& kernel_table_for(SimdIsa isa) {
  const KernelTable* table = nullptr;
  switch (isa) {
    case SimdIsa::kScalar:
      table = scalar_kernel_table();
      break;
    case SimdIsa::kAvx2:
      table = avx2_kernel_table();
      break;
    case SimdIsa::kNeon:
      table = neon_kernel_table();
      break;
  }
  check(table != nullptr, "kernel_table_for: ISA not available in this build");
  return *table;
}

Tensor naive_dense_matmul(const Tensor& w, const Tensor& x) {
  check(w.dim() == 2, "naive_dense_matmul: need a 2-D weight");
  check_matmul_shapes(w.size(1), x);
  const std::int64_t rows = w.size(0);
  const std::int64_t cols = w.size(1);
  const std::int64_t n = x.size(1);
  Tensor out({rows, n});
  const float* wd = w.data();
  const float* xd = x.data();
  float* od = out.data();
  for (std::int64_t r = 0; r < rows; ++r) {
    for (std::int64_t j = 0; j < n; ++j) {
      float acc = 0.0F;
      for (std::int64_t k = 0; k < cols; ++k) {
        acc = std::fma(wd[r * cols + k], xd[k * n + j], acc);
      }
      od[r * n + j] = acc;
    }
  }
  return out;
}

std::int64_t resolve_k_tile(const KernelOptions& options, std::int64_t cols,
                            std::int64_t n) {
  if (options.k_tile > 0) {
    return options.k_tile;
  }
  // Auto: keep the active X slice (k_tile rows of n floats) within half
  // the per-core L1d so it survives the row sweep; the floor of 16 keeps
  // tiles from degenerating when n alone overflows L1 (the slice then
  // lives in L2, which the probe also sizes).
  const std::int64_t budget =
      std::max<std::int64_t>(cpu_l1d_bytes() / 2, 8 * 1024);
  const std::int64_t kt =
      budget / std::max<std::int64_t>(1, n * static_cast<std::int64_t>(
                                              sizeof(float)));
  return std::max<std::int64_t>(16, std::min(kt, cols));
}

Tensor dense_gemm(const Tensor& w, const Tensor& x, ThreadPool* pool,
                  const KernelOptions& options) {
  check(w.dim() == 2, "dense_gemm: need a 2-D weight");
  check_matmul_shapes(w.size(1), x);
  check_kernel_options(options, "exec kernel");
  const std::int64_t rows = w.size(0);
  const std::int64_t cols = w.size(1);
  const std::int64_t n = x.size(1);
  Tensor out({rows, n});
  const KernelTable& table = kernel_table_for(active_simd_isa());
  DenseRangeArgs args;
  args.w = w.data();
  args.x = x.data();
  args.out = out.data();
  args.cols = cols;
  args.n = n;
  args.k_tile = resolve_k_tile(options, cols, n);
  args.unroll = options.unroll;
  parallel_rows(pool, rows, options, 1,
                [&](std::int64_t r0, std::int64_t r1) {
                  table.dense_range(args, r0, r1);
                });
  return out;
}

Tensor block_gemm(const BlockPrunedMatrix& w, const Tensor& x,
                  ThreadPool* pool, const KernelOptions& options) {
  check_matmul_shapes(w.cols(), x);
  check_kernel_options(options, "exec kernel");
  const std::int64_t rows = w.rows();
  const std::int64_t n = x.size(1);
  Tensor out({rows, n});
  const KernelTable& table = kernel_table_for(active_simd_isa());
  BlockRangeArgs args;
  args.w = &w;
  args.x = x.data();
  args.out = out.data();
  args.n = n;
  args.unroll = options.unroll;
  parallel_rows(pool, rows, options, 1,
                [&](std::int64_t r0, std::int64_t r1) {
                  table.block_range(args, r0, r1);
                });
  return out;
}

Tensor pattern_gemm(const PatternPlan& plan, const Tensor& x,
                    ThreadPool* pool, const KernelOptions& options) {
  check_matmul_shapes(plan.cols, x);
  check_kernel_options(options, "exec kernel");
  const std::int64_t n = x.size(1);
  Tensor out({plan.rows, n});
  const KernelTable& table = kernel_table_for(active_simd_isa());
  PatternRangeArgs args;
  args.plan = &plan;
  args.x = x.data();
  args.out = out.data();
  args.n = n;
  args.unroll = options.unroll;
  // Partition aligned to tile rows: each worker owns whole tile-rows.
  parallel_rows(pool, plan.rows, options, plan.psize,
                [&](std::int64_t r0, std::int64_t r1) {
                  table.pattern_range(args, r0, r1);
                });
  return out;
}

Tensor coo_gemm(const IrregularPlan& plan, const Tensor& x, ThreadPool* pool,
                const KernelOptions& options) {
  check_matmul_shapes(plan.cols, x);
  check_kernel_options(options, "exec kernel");
  check(plan.row_start.size() ==
            static_cast<std::size_t>(plan.rows) + 1,
        "coo_gemm: plan missing row_start partition");
  const std::int64_t n = x.size(1);
  Tensor out({plan.rows, n});
  const float* xd = x.data();
  float* od = out.data();
  // Deliberately element-at-a-time: every triple re-loads its row/col
  // indices and round-trips the output row through memory, with no
  // vectorization and no accumulator reuse across triples.  Triples are
  // row-major sorted, so each output lane still sees ascending-k fma
  // order and the result is bitwise equal to the dense reference.
  parallel_rows(pool, plan.rows, options, 1,
                [&](std::int64_t r0, std::int64_t r1) {
    const std::int64_t e0 = plan.row_start[static_cast<std::size_t>(r0)];
    const std::int64_t e1 = plan.row_start[static_cast<std::size_t>(r1)];
    for (std::int64_t e = e0; e < e1; ++e) {
      const auto ei = static_cast<std::size_t>(e);
      const float v = plan.values[ei];
      const float* xrow = xd + plan.col_idx[ei] * n;
      float* orow = od + plan.row_idx[ei] * n;
      for (std::int64_t j = 0; j < n; ++j) {
        orow[j] = std::fma(v, xrow[j], orow[j]);
      }
    }
  });
  return out;
}

Tensor plan_gemm(const LayerPlan& plan, const Tensor& x, ThreadPool* pool,
                 const KernelOptions& options) {
  switch (plan.mode) {
    case ExecMode::kDense:
      return dense_gemm(plan.dense_weight, x, pool, options);
    case ExecMode::kBlock:
      return block_gemm(*plan.block, x, pool, options);
    case ExecMode::kPattern:
      return pattern_gemm(*plan.pattern, x, pool, options);
    case ExecMode::kIrregular:
      return coo_gemm(*plan.irregular, x, pool, options);
  }
  throw CheckError("plan_gemm: unsupported mode");
}

}  // namespace rt3
