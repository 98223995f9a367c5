// Internal dispatch seam between the public kernel entry points
// (exec/kernels.hpp) and the per-ISA inner-loop instantiations.
//
// Each ISA contributes one KernelTable of row-range functions; the tables
// are built from the SAME templated bodies (exec/kernels_inner.hpp), so
// every ISA executes the identical per-lane ascending-k accumulation
// sequence and differs only in how many lanes advance per instruction.
// Tables for ISAs the build cannot produce are nullptr and detection
// (exec/simd.hpp) skips them.
#pragma once

#include <cstdint>

#include "exec/plan.hpp"
#include "exec/simd.hpp"

namespace rt3 {

/// Every range function OVERWRITES lanes [0, n) of its output rows (out
/// row r starts at out + r * ldo, ldo >= n) and reads X row k at
/// x + k * ldx (ldx >= n), so callers can run on a column window of wider
/// activation and output buffers and reuse an output workspace without
/// clearing it.

/// Dense GEMM row-range arguments: out[R,N] = W[R,C] x X[C,N] over rows
/// [r0, r1), k-tiled by `k_tile`.  Each range function picks its unroll
/// factor from `n` (inner::with_unroll).
struct DenseRangeArgs {
  const float* w = nullptr;
  const float* x = nullptr;
  float* out = nullptr;
  std::int64_t cols = 0;
  std::int64_t n = 0;
  std::int64_t ldx = 0;
  std::int64_t ldo = 0;
  std::int64_t k_tile = 64;
};

/// Kept-column block GEMM row-range arguments.
struct BlockRangeArgs {
  const BlockPrunedMatrix* w = nullptr;
  const float* x = nullptr;
  float* out = nullptr;
  std::int64_t n = 0;
  std::int64_t ldx = 0;
  std::int64_t ldo = 0;
};

/// Pattern GEMM arguments; ranges are tile-row aligned (multiples of
/// the plan's psize) so each worker owns whole tile rows.
struct PatternRangeArgs {
  const PatternPlan* plan = nullptr;
  const float* x = nullptr;
  float* out = nullptr;
  std::int64_t n = 0;
  std::int64_t ldx = 0;
  std::int64_t ldo = 0;
};

struct KernelTable;
/// Fetches the table that runs a wider table's leftover lanes.
using NarrowTable = const KernelTable* (*)();

/// One ISA's kernel family.  All functions process output rows [r0, r1)
/// and are safe to run concurrently on disjoint ranges.
struct KernelTable {
  const char* name = "scalar";
  std::int64_t width = 1;
  void (*dense_range)(const DenseRangeArgs&, std::int64_t r0,
                      std::int64_t r1) = nullptr;
  void (*block_range)(const BlockRangeArgs&, std::int64_t r0,
                      std::int64_t r1) = nullptr;
  void (*pattern_range)(const PatternRangeArgs&, std::int64_t r0,
                        std::int64_t r1) = nullptr;
  /// When set, the table's ladder stops at whole `width`-lane vectors:
  /// the lanes past the last of them (all of them when n < width) run on
  /// the table this returns, or on the scalar table if that is nullptr.
  NarrowTable narrow = nullptr;
  /// Optional (AVX-512 only): a psize-4 pattern call at exactly 4 lanes,
  /// one 4 x 4 output tile per 16-lane register (PatternPlan::x_lanes).
  /// When set, dispatch runs a psize-4 call's 4 lanes left over past the
  /// last whole vector (all of a 4-column call) here instead of on the
  /// narrow table.  Same terms in the same order per lane, so the output
  /// is bitwise the narrow table's.
  void (*pattern_tile4_range)(const PatternRangeArgs&, std::int64_t r0,
                              std::int64_t r1) = nullptr;
};

/// Always available.
const KernelTable* scalar_kernel_table();
/// nullptr unless the build produced AVX2+FMA code (x86 only).
const KernelTable* avx2_kernel_table();
/// nullptr unless the build produced AVX-512F code (x86 only).
const KernelTable* avx512_kernel_table();
/// nullptr off aarch64.
const KernelTable* neon_kernel_table();

/// Table for an ISA, or nullptr when the build lacks it.  A table that
/// exists may still need instructions this host lacks: only run one that
/// simd_isa_supported() accepts.
const KernelTable* built_kernel_table(SimdIsa isa);
/// built_kernel_table, but throws CheckError when the build lacks it.
const KernelTable& kernel_table_for(SimdIsa isa);

}  // namespace rt3
