// Multi-threaded, cache-tiled, SIMD-dispatched CPU kernels for the
// measured backend.
//
// All kernels compute out[R,N] = W[R,C] x X[C,N] and accumulate every
// output element in ascending-k order through a single fused-multiply-add
// chain.  Vectorization happens across the activation (j) dimension only:
// a width-W kernel advances W independent per-lane chains per
// instruction, and hardware FMA rounds once per step exactly like
// std::fma — so kernel outputs are BITWISE equal to the naive reference
// lane by lane, regardless of ISA (exec/simd.hpp), tiling, unroll factor,
// thread count, or the compiler's FP-contraction choice.  Sparse kernels
// only skip terms whose stored weight is zero, which under fma
// contributes exactly nothing for finite activations.
//
// The inner loops (exec/kernels_inner.hpp) cover a row's n activation
// columns with a width ladder of W*U, W, half-width and single-lane
// chunks, so narrow batches still vectorize, and the pattern kernel
// sweeps each tile row once per chunk, applying every tile's kept cells
// to all of the tile's rows, so its cost follows the kept weights.
//
// Parallelism partitions output rows across at most num_threads() chunks
// (each element is written by exactly one thread), so results are also
// independent of the thread count.  Cache tiling blocks the k-dimension
// so the active slice of X stays resident; k_tile = 0 auto-sizes it to
// the per-core L1/L2 budget.
#pragma once

#include <cstdint>

#include "exec/plan.hpp"
#include "serve/thread_pool.hpp"
#include "tensor/tensor.hpp"

namespace rt3 {

/// Textbook triple loop (r, j, then k ascending), fma-accumulated: the
/// correctness reference every kernel must match bitwise.
Tensor naive_dense_matmul(const Tensor& w, const Tensor& x);

/// Resolves k_tile = 0 to a cache-sized tile: the largest k span whose
/// X slice (k_tile x n floats) fits the per-core L1/L2 budget.
std::int64_t resolve_k_tile(const KernelOptions& options, std::int64_t cols,
                            std::int64_t n);

/// Dense GEMM, k-tiled, rows parallelized over `pool` (nullptr = serial).
Tensor dense_gemm(const Tensor& w, const Tensor& x, ThreadPool* pool,
                  const KernelOptions& options);

/// Kept-column GEMM over a block-pruned matrix: dense inner loops over
/// each block's kept columns (the paper's hardware-friendly layout).
Tensor block_gemm(const BlockPrunedMatrix& w, const Tensor& x,
                  ThreadPool* pool, const KernelOptions& options);

/// Pattern-masked GEMM driven by a precompiled PatternPlan: per-tile CSR
/// kept-index lists, no per-cell mask tests at execution time.
Tensor pattern_gemm(const PatternPlan& plan, const Tensor& x,
                    ThreadPool* pool, const KernelOptions& options);

/// Irregular COO GEMM: every nonzero pays per-element row/col index loads
/// and an output-row round trip (deliberately never vectorized or
/// accumulator-cached) — the measured form of the paper's Challenge-1
/// overhead argument.  Triples are row-major sorted, so per-lane
/// contributions still arrive in ascending-k order and the output is
/// bitwise equal to the dense reference.
Tensor coo_gemm(const IrregularPlan& plan, const Tensor& x, ThreadPool* pool,
                const KernelOptions& options);

/// Dispatches on the plan's ExecMode using exactly `options`; callers
/// that want the plan's autotuned options merge them in first (the
/// MeasuredBackend does), which lets the autotuner measure candidate
/// options against an already-tuned plan.
Tensor plan_gemm(const LayerPlan& plan, const Tensor& x, ThreadPool* pool,
                 const KernelOptions& options);

}  // namespace rt3
