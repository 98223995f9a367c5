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
// only skip terms whose stored weight is zero, and the pattern kernel's
// padding only adds zero-weight terms at columns the reference also visits
// with weight zero.  Both rest on fma(+0, x, acc) == acc for finite x and
// any acc but -0, which a chain started at +0 reaches only when a product
// underflows to zero.
//
// The inner loops (exec/kernels_inner.hpp) cover a row's n activation
// columns with a width ladder of W*U, W, half-width and single-lane
// chunks, so narrow batches still vectorize; the unroll U is the largest
// of 4, 2 and 1 with W*U <= n, derived per call, not a launch option.
// The AVX-512 table runs whole 16-lane vectors only; the lanes left over
// run on the AVX2 table through a column window (KernelTable::narrow),
// except a psize-4 pattern call's 4 leftover lanes (all of batch 1),
// which run on an AVX-512 body holding each 4 x 4 output tile in one
// register (KernelTable::pattern_tile4_range).  The pattern kernel
// sweeps whole tile rows per chunk over the plan's padded slot layout
// (PatternPlan::row_slots): a row has the same number of cells in every
// tile, so row indices are compile-time constants and each row group's
// accumulators stay in registers.  Where the vector type's register
// budget holds them (psize 4 at batch 8 on AVX-512 among them), one
// pass takes two tile rows, which then share each tile column's X rows
// in L1.
//
// Every kernel has an `_into` form that OVERWRITES a caller-owned output
// buffer and reads X through an ActivationView, so a caller can reuse
// workspaces and read a window of a wider buffer in place, with no
// allocation or copy (MeasuredBackend reuses per-layer workspaces).  The
// Tensor forms allocate the output and call the `_into` form.
//
// Parallelism partitions output rows into chunks (each element is
// written by exactly one thread), so results are also independent of the
// thread count.  A call's work (the weight cells its kernel visits, slot
// padding included, times the vector passes over its n columns) sets
// its split: one chunk up to a constant measured where splitting stops
// paying for the launch, one more per such amount after, and never more
// than the caller plus the pool's workers, so small layers stay on the
// calling thread.  A split launch is one ThreadPool::run: the calling
// thread starts on chunk 0 while pool workers start on the rest, one
// chunk each.  A chunk is cut into a few pieces that threads claim, so a
// thread done with its own chunk takes the unclaimed pieces of a slower
// thread's and a launch ends when its pieces do.  A many-call launch
// (plan_gemm_into over a span of GemmCalls) splits each call as it would
// alone and thread t starts on chunk t of every call, so a whole batch of
// layers pays one worker wake-up and one join.  The dense kernel blocks
// the k-dimension in k_tile rows of X so the active slice stays resident.
#pragma once

#include <cstdint>
#include <span>

#include "exec/plan.hpp"
#include "exec/thread_pool.hpp"
#include "tensor/tensor.hpp"

namespace rt3 {

/// Read-only row-major view of an activation X[rows, n]: row k starts at
/// data + k * stride (stride >= n).
struct ActivationView {
  const float* data = nullptr;
  std::int64_t rows = 0;
  std::int64_t n = 0;
  std::int64_t stride = 0;
};

/// Textbook triple loop (r, j, then k ascending), fma-accumulated: the
/// correctness reference every kernel must match bitwise.
Tensor naive_dense_matmul(const Tensor& w, const Tensor& x);

/// Dense GEMM, k-tiled, rows parallelized over `pool` (nullptr = the
/// calling thread alone).
Tensor dense_gemm(const Tensor& w, const Tensor& x, ThreadPool* pool,
                  const KernelOptions& options);
/// `out` holds w.size(0) x x.n floats and is overwritten.
void dense_gemm_into(const Tensor& w, const ActivationView& x, float* out,
                     ThreadPool* pool, const KernelOptions& options);

/// Kept-column GEMM over a block-pruned matrix: dense inner loops over
/// each block's kept columns (the paper's hardware-friendly layout).
Tensor block_gemm(const BlockPrunedMatrix& w, const Tensor& x,
                  ThreadPool* pool, const KernelOptions& options);
void block_gemm_into(const BlockPrunedMatrix& w, const ActivationView& x,
                     float* out, ThreadPool* pool,
                     const KernelOptions& options);

/// Pattern-masked GEMM driven by a precompiled PatternPlan's slot layout:
/// per-pattern column lists shared by every tile assigned that pattern,
/// no per-cell mask tests at execution time.
Tensor pattern_gemm(const PatternPlan& plan, const Tensor& x,
                    ThreadPool* pool, const KernelOptions& options);
void pattern_gemm_into(const PatternPlan& plan, const ActivationView& x,
                       float* out, ThreadPool* pool,
                       const KernelOptions& options);

/// Irregular COO GEMM: every nonzero pays per-element row/col index loads
/// and an output-row round trip (deliberately never vectorized or
/// accumulator-cached) — the measured form of the paper's Challenge-1
/// overhead argument.  Triples are row-major sorted, so per-lane
/// contributions still arrive in ascending-k order and the output is
/// bitwise equal to the dense reference.
Tensor coo_gemm(const IrregularPlan& plan, const Tensor& x, ThreadPool* pool,
                const KernelOptions& options);
void coo_gemm_into(const IrregularPlan& plan, const ActivationView& x,
                   float* out, ThreadPool* pool, const KernelOptions& options);

/// Dispatches on the plan's ExecMode using exactly `options`; callers
/// that want the plan's autotuned options merge them in first (the
/// MeasuredBackend does), which lets the autotuner measure candidate
/// options against an already-tuned plan.
Tensor plan_gemm(const LayerPlan& plan, const Tensor& x, ThreadPool* pool,
                 const KernelOptions& options);
/// `out` holds plan.rows x x.n floats and is overwritten.  The many-call
/// form below with one call.
void plan_gemm_into(const LayerPlan& plan, const ActivationView& x,
                    float* out, ThreadPool* pool,
                    const KernelOptions& options);

/// One call of a many-call launch: `out` (plan->rows x x.n floats,
/// overwritten) = *plan x X under exactly `options`.
struct GemmCall {
  const LayerPlan* plan = nullptr;
  ActivationView x;
  float* out = nullptr;
  KernelOptions options;
};

/// Runs every call in ONE launch.  Each call's rows split exactly as
/// they would for that call alone and pool thread t runs its chunk of
/// every call, in list order, so the outputs are bitwise those of running
/// the calls one by one.  There is no barrier between calls: no call may
/// read or write another's output.  Every call is validated before any
/// runs.
void plan_gemm_into(std::span<const GemmCall> calls, ThreadPool* pool);

/// The chunks `call` splits into on a launch over `threads` threads (the
/// caller plus the pool's workers) on the active ISA: 1 for a call too
/// small to share, at most `threads`, 0 for a call with no rows.
std::int64_t launch_chunks(const GemmCall& call, std::int64_t threads);

}  // namespace rt3
