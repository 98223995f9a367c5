#include "exec/kernels.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <exception>

#include "common/check.hpp"
#include "exec/kernels_dispatch.hpp"
#include "exec/simd.hpp"

namespace rt3 {
namespace {

/// Spin-wait budget, in cpu_relax() calls, before a join blocks: ~100 us
/// on a current x86 core, less where pause is cheaper.
constexpr std::int64_t kJoinSpins = 1 << 12;

/// Tells the core this thread is spin-waiting (x86 pause, arm yield).
inline void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield");
#endif
}

/// Splits [0, total) into at most min(pool workers, options.threads) row
/// chunks — never more chunks than can run concurrently, so no worker
/// queues behind another while its siblings idle.  Chunk boundaries are
/// multiples of `align` rows; the remainder is spread one align-unit at a
/// time across the leading chunks so sizes differ by at most one unit.
/// The calling thread runs chunk 0 itself while the pool runs the rest,
/// then waits for them.  Serial when the pool is absent, capped to one
/// thread, or the matrix is too small to amortize dispatch.
template <class Body>
void parallel_rows(ThreadPool* pool, std::int64_t total,
                   const KernelOptions& options, std::int64_t align,
                   const Body& body) {
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
  const std::int64_t chunks = std::min(max_chunks, units / grain_units);
  if (chunks <= 1) {
    body(0, total);
    return;
  }
  // Each task captures only this frame and its chunk index, which keeps
  // the std::function in its small-object buffer (no allocation).  Tasks
  // catch their own exceptions and count themselves down, so the caller
  // can return as soon as the count reaches zero.
  struct Fork {
    const Body* body;
    std::int64_t total, align, base, rem;
    std::atomic<std::int64_t> pending;
    std::atomic<bool> failed{false};
    std::exception_ptr error{};
    void run(std::int64_t c) const {
      const std::int64_t begin =
          std::min(total, (c * base + std::min(c, rem)) * align);
      const std::int64_t take = (base + (c < rem ? 1 : 0)) * align;
      (*body)(begin, std::min(begin + take, total));
    }
    void fail() {
      if (!failed.exchange(true)) {
        error = std::current_exception();
      }
    }
  };
  Fork fork{&body, total, align, units / chunks, units % chunks, chunks - 1};
  for (std::int64_t c = 1; c < chunks; ++c) {
    pool->submit([f = &fork, c] {
      try {
        f->run(c);
      } catch (...) {
        f->fail();
      }
      // Last touch of `fork`: the caller may return right after this.
      f->pending.fetch_sub(1, std::memory_order_release);
    });
  }
  try {
    fork.run(0);
  } catch (...) {
    fork.fail();
  }
  // The pool's chunks are as long as ours, so they finish about now: spin
  // briefly rather than pay a sleep/wake round trip, and fall back to
  // blocking if a worker was descheduled.
  std::int64_t spins = 0;
  while (fork.pending.load(std::memory_order_acquire) != 0) {
    if (++spins > kJoinSpins) {
      pool->wait_idle();
      break;
    }
    cpu_relax();
  }
  if (fork.error != nullptr) {
    std::rethrow_exception(fork.error);
  }
}

/// The active ISA's table for an n-column activation (see
/// KernelTable::narrow).
const KernelTable& active_table(std::int64_t n) {
  const KernelTable& table = kernel_table_for(active_simd_isa());
  const KernelTable* narrow =
      n < table.width && table.narrow != nullptr ? table.narrow() : nullptr;
  return narrow != nullptr ? *narrow : table;
}

ActivationView activation_view(const Tensor& x) {
  check(x.dim() == 2, "exec kernel: need a 2-D activation");
  return {x.data(), x.size(0), x.size(1), x.size(1)};
}

void check_matmul_shapes(std::int64_t w_cols, const ActivationView& x) {
  check(x.rows == w_cols && x.n >= 0 && x.stride >= x.n,
        "exec kernel: activation shape mismatch");
}

/// The Tensor form of an `_into` kernel: a fresh rows x n output.
template <class Into>
Tensor into_tensor(std::int64_t rows, const Tensor& x, Into&& into) {
  const ActivationView view = activation_view(x);
  Tensor out({rows, view.n});
  into(view, out.data());
  return out;
}

}  // namespace

const KernelTable* built_kernel_table(SimdIsa isa) {
  switch (isa) {
    case SimdIsa::kScalar:
      return scalar_kernel_table();
    case SimdIsa::kNeon:
      return neon_kernel_table();
    case SimdIsa::kAvx2:
      return avx2_kernel_table();
    case SimdIsa::kAvx512:
      return avx512_kernel_table();
  }
  return nullptr;
}

const KernelTable& kernel_table_for(SimdIsa isa) {
  const KernelTable* table = built_kernel_table(isa);
  check(table != nullptr, "kernel_table_for: ISA not available in this build");
  return *table;
}

Tensor naive_dense_matmul(const Tensor& w, const Tensor& x) {
  check(w.dim() == 2, "naive_dense_matmul: need a 2-D weight");
  check_matmul_shapes(w.size(1), activation_view(x));
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
  return into_tensor(w.size(0), x, [&](const ActivationView& v, float* out) {
    dense_gemm_into(w, v, out, pool, options);
  });
}

void dense_gemm_into(const Tensor& w, const ActivationView& x, float* out,
                     ThreadPool* pool, const KernelOptions& options) {
  check(w.dim() == 2, "dense_gemm: need a 2-D weight");
  check_matmul_shapes(w.size(1), x);
  check_kernel_options(options, "exec kernel");
  const std::int64_t cols = w.size(1);
  const KernelTable& table = active_table(x.n);
  DenseRangeArgs args;
  args.w = w.data();
  args.x = x.data;
  args.out = out;
  args.cols = cols;
  args.n = x.n;
  args.ldx = x.stride;
  args.k_tile = resolve_k_tile(options, cols, x.n);
  args.unroll = options.unroll;
  parallel_rows(pool, w.size(0), options, 1,
                [&](std::int64_t r0, std::int64_t r1) {
                  table.dense_range(args, r0, r1);
                });
}

Tensor block_gemm(const BlockPrunedMatrix& w, const Tensor& x,
                  ThreadPool* pool, const KernelOptions& options) {
  return into_tensor(w.rows(), x, [&](const ActivationView& v, float* out) {
    block_gemm_into(w, v, out, pool, options);
  });
}

void block_gemm_into(const BlockPrunedMatrix& w, const ActivationView& x,
                     float* out, ThreadPool* pool,
                     const KernelOptions& options) {
  check_matmul_shapes(w.cols(), x);
  check_kernel_options(options, "exec kernel");
  const KernelTable& table = active_table(x.n);
  BlockRangeArgs args;
  args.w = &w;
  args.x = x.data;
  args.out = out;
  args.n = x.n;
  args.ldx = x.stride;
  args.unroll = options.unroll;
  parallel_rows(pool, w.rows(), options, 1,
                [&](std::int64_t r0, std::int64_t r1) {
                  table.block_range(args, r0, r1);
                });
}

Tensor pattern_gemm(const PatternPlan& plan, const Tensor& x,
                    ThreadPool* pool, const KernelOptions& options) {
  return into_tensor(plan.rows, x, [&](const ActivationView& v, float* out) {
    pattern_gemm_into(plan, v, out, pool, options);
  });
}

void pattern_gemm_into(const PatternPlan& plan, const ActivationView& x,
                       float* out, ThreadPool* pool,
                       const KernelOptions& options) {
  check_matmul_shapes(plan.cols, x);
  check_kernel_options(options, "exec kernel");
  const KernelTable& table = active_table(x.n);
  PatternRangeArgs args;
  args.plan = &plan;
  args.x = x.data;
  args.out = out;
  args.n = x.n;
  args.ldx = x.stride;
  args.unroll = options.unroll;
  // Partition aligned to tile rows: each worker owns whole tile-rows.
  parallel_rows(pool, plan.rows, options, plan.psize,
                [&](std::int64_t r0, std::int64_t r1) {
                  table.pattern_range(args, r0, r1);
                });
}

Tensor coo_gemm(const IrregularPlan& plan, const Tensor& x, ThreadPool* pool,
                const KernelOptions& options) {
  return into_tensor(plan.rows, x, [&](const ActivationView& v, float* out) {
    coo_gemm_into(plan, v, out, pool, options);
  });
}

void coo_gemm_into(const IrregularPlan& plan, const ActivationView& x,
                   float* out, ThreadPool* pool,
                   const KernelOptions& options) {
  check_matmul_shapes(plan.cols, x);
  check_kernel_options(options, "exec kernel");
  check(plan.row_start.size() ==
            static_cast<std::size_t>(plan.rows) + 1,
        "coo_gemm: plan missing row_start partition");
  const std::int64_t n = x.n;
  // Deliberately element-at-a-time: every triple re-loads its row/col
  // indices and round-trips the output row through memory, with no
  // vectorization and no accumulator reuse across triples.  Triples are
  // row-major sorted, so each output lane still sees ascending-k fma
  // order and the result is bitwise equal to the dense reference.
  parallel_rows(pool, plan.rows, options, 1,
                [&](std::int64_t r0, std::int64_t r1) {
    std::fill(out + r0 * n, out + r1 * n, 0.0F);
    const std::int64_t e0 = plan.row_start[static_cast<std::size_t>(r0)];
    const std::int64_t e1 = plan.row_start[static_cast<std::size_t>(r1)];
    for (std::int64_t e = e0; e < e1; ++e) {
      const auto ei = static_cast<std::size_t>(e);
      const float v = plan.values[ei];
      const float* xrow = x.data + plan.col_idx[ei] * x.stride;
      float* orow = out + plan.row_idx[ei] * n;
      for (std::int64_t j = 0; j < n; ++j) {
        orow[j] = std::fma(v, xrow[j], orow[j]);
      }
    }
  });
}

Tensor plan_gemm(const LayerPlan& plan, const Tensor& x, ThreadPool* pool,
                 const KernelOptions& options) {
  return into_tensor(plan.rows, x, [&](const ActivationView& v, float* out) {
    plan_gemm_into(plan, v, out, pool, options);
  });
}

void plan_gemm_into(const LayerPlan& plan, const ActivationView& x,
                    float* out, ThreadPool* pool,
                    const KernelOptions& options) {
  switch (plan.mode) {
    case ExecMode::kDense:
      return dense_gemm_into(plan.dense_weight, x, out, pool, options);
    case ExecMode::kBlock:
      return block_gemm_into(*plan.block, x, out, pool, options);
    case ExecMode::kPattern:
      return pattern_gemm_into(*plan.pattern, x, out, pool, options);
    case ExecMode::kIrregular:
      return coo_gemm_into(*plan.irregular, x, out, pool, options);
  }
  throw CheckError("plan_gemm: unsupported mode");
}

}  // namespace rt3
