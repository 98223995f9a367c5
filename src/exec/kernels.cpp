#include "exec/kernels.hpp"

#include <algorithm>
#include <cmath>
#include <utility>
#include <variant>

#include "common/check.hpp"
#include "exec/kernels_dispatch.hpp"
#include "exec/simd.hpp"

namespace rt3 {
namespace {

/// Pieces a chunk is cut into (fewer where the chunk has fewer row
/// units): the unit a thread claims.  With one of four vCPUs running its
/// work twice over, 2, 4 and 8 pieces recovered the same batch-8
/// throughput on 512-row layers; 2 makes the fewest claims.
constexpr std::int64_t kPiecesPerChunk = 2;

/// Work per chunk, in cells times vector passes over the call's n
/// columns (RowSplit): a call of up to this much runs whole on one
/// thread.  On a 4-vCPU Sapphire Rapids VM, pattern calls of about this
/// much work took as long on the caller alone (10-14 us) as split over
/// the caller and 3 pinned workers, and smaller ones ran faster alone.
constexpr std::int64_t kChunkWork = 25'000;

/// Units [first, second) of part p of `units` cut into `parts` runs whose
/// sizes differ by at most one, the leading parts taking the remainder.
std::pair<std::int64_t, std::int64_t> even_part(std::int64_t units,
                                                std::int64_t parts,
                                                std::int64_t p) {
  const std::int64_t base = units / parts;
  const std::int64_t rem = units % parts;
  const std::int64_t begin = p * base + std::min(p, rem);
  return {begin, begin + base + (p < rem ? 1 : 0)};
}

/// A call's output rows, the row multiple a chunk keeps (whole tile rows
/// for the pattern kernel) and the weight cells its kernel visits (slot
/// padding included).
struct Extent {
  std::int64_t rows = 0;
  std::int64_t align = 1;
  std::int64_t cells = 0;
};

/// How one call's output rows split across threads: into the fewest
/// chunks that each carry at most kChunkWork, but no more chunks than
/// `threads` (the caller plus the pool's workers) or row units.  Chunk c
/// is thread c's own share (chunk 0 the calling thread's).  Each chunk of
/// a split call is cut into up to kPiecesPerChunk pieces, the unit a
/// thread claims, so a thread that finishes its own chunk can take the
/// unclaimed pieces of a slower one (run_calls).  Boundaries are
/// multiples of `align` rows, the remainder spread one align-unit at a
/// time across the leading chunks (and pieces) so sizes differ by at most
/// one unit.  One chunk of one piece when the work is small; none when
/// the call has no rows.
struct RowSplit {
  std::int64_t total = 0;
  std::int64_t align = 1;
  std::int64_t units = 0;  // align-units of rows
  std::int64_t chunks = 0;

  RowSplit(std::int64_t threads, const Extent& e, std::int64_t work)
      : total(e.rows), align(e.align) {
    if (total <= 0) {
      return;
    }
    units = (total + align - 1) / align;
    chunks = std::clamp<std::int64_t>((work + kChunkWork - 1) / kChunkWork, 1,
                                      std::min(threads, units));
  }

  /// Pieces of chunk c < chunks.
  std::int64_t pieces(std::int64_t c) const {
    if (chunks == 1) {
      return 1;  // too little work to share
    }
    const auto [u0, u1] = even_part(units, chunks, c);
    return std::min(u1 - u0, kPiecesPerChunk);
  }

  /// Rows [first, second) of piece p < pieces(c) of chunk c < chunks.
  std::pair<std::int64_t, std::int64_t> rows(std::int64_t c,
                                             std::int64_t p) const {
    const auto [u0, u1] = even_part(units, chunks, c);
    const auto [v0, v1] = even_part(u1 - u0, pieces(c), p);
    return {std::min(total, (u0 + v0) * align),
            std::min(total, (u0 + v1) * align)};
  }
};

/// One kernel call of any family: `out` (rows x x.n floats, overwritten)
/// = the weight times X, under `options`.
struct Call {
  std::variant<const Tensor*, const BlockPrunedMatrix*, const PatternPlan*,
               const IrregularPlan*>
      weight;
  ActivationView x;
  float* out = nullptr;
  KernelOptions options;
};

void check_matmul_shapes(std::int64_t w_cols, const ActivationView& x) {
  check(x.rows == w_cols && x.n >= 0 && x.stride >= x.n,
        "exec kernel: activation shape mismatch");
}

// Per family: the weight's checks against X, and its Extent.

void check_weight(const Tensor& w, const ActivationView& x) {
  check(w.dim() == 2, "dense_gemm: need a 2-D weight");
  check_matmul_shapes(w.size(1), x);
}

void check_weight(const BlockPrunedMatrix& w, const ActivationView& x) {
  check_matmul_shapes(w.cols(), x);
}

void check_weight(const PatternPlan& p, const ActivationView& x) {
  check_matmul_shapes(p.cols, x);
}

void check_weight(const IrregularPlan& p, const ActivationView& x) {
  check_matmul_shapes(p.cols, x);
  check(p.row_start.size() == static_cast<std::size_t>(p.rows) + 1,
        "coo_gemm: plan missing row_start partition");
}

Extent extent(const Tensor& w) {
  return {w.size(0), 1, w.size(0) * w.size(1)};
}

Extent extent(const BlockPrunedMatrix& w) {
  return {w.rows(), 1, w.nnz_values()};
}

Extent extent(const PatternPlan& p) {
  return {p.rows, p.psize,
          static_cast<std::int64_t>(p.tiles.size()) * p.slot_stride};
}

Extent extent(const IrregularPlan& p) { return {p.rows, 1, p.nnz()}; }

void check_call(const Call& c) {
  std::visit([&](const auto* w) { check_weight(*w, c.x); }, c.weight);
  check_kernel_options(c.options, "exec kernel");
}

/// A call's split on `threads` threads whose widest table has `width`
/// lanes: its work is its cells times ceil(n / width) vector passes.
RowSplit row_split(std::int64_t threads, std::int64_t width, const Call& c) {
  const Extent e =
      std::visit([](const auto* w) { return extent(*w); }, c.weight);
  return RowSplit(threads, e, e.cells * ((c.x.n + width - 1) / width));
}

/// The tables a launch runs on: `wide` covers whole width-lane vectors
/// and `rest` the lanes left over (nullptr: `wide` runs every lane).  See
/// KernelTable::narrow.
struct Tables {
  const KernelTable* wide = nullptr;
  const KernelTable* rest = nullptr;
};

Tables active_tables() {
  const KernelTable& table = kernel_table_for(active_simd_isa());
  if (table.narrow == nullptr) {
    return {&table, nullptr};
  }
  const KernelTable* rest = table.narrow();
  return {&table, rest != nullptr ? rest : scalar_kernel_table()};
}

template <class Args>
using RangeFn = void (*)(const Args&, std::int64_t, std::int64_t);

/// Rows per block when both tables share a row range: the rest table
/// then re-reads a block's weights from L1/L2, not from memory.
constexpr std::int64_t kSplitRowBlock = 8;

/// Rows [r0, r1) of one family's range function over all n lanes: the
/// wide table's whole vectors, then the lanes left over through a column
/// window of X and the output, on `rest_range` when given and on the
/// rest table otherwise.  When both run, they alternate over blocks of
/// about kSplitRowBlock rows, each a multiple of `align` (a range
/// function's rows must start on its own row multiple).
template <class Args>
void run_lanes(const Tables& tables, RangeFn<Args> KernelTable::*range,
               const Args& a, std::int64_t align, std::int64_t r0,
               std::int64_t r1, RangeFn<Args> rest_range = nullptr) {
  const std::int64_t n = a.n;
  const std::int64_t whole =
      tables.rest == nullptr ? n : n - n % tables.wide->width;
  if (whole != n && rest_range == nullptr) {
    rest_range = tables.rest->*range;
  }
  if (whole == n || whole == 0) {
    (whole == n ? tables.wide->*range : rest_range)(a, r0, r1);
    return;
  }
  Args wide = a;
  wide.n = whole;
  Args rest = a;
  rest.x += whole;
  rest.out += whole;
  rest.n = n - whole;
  const std::int64_t block = (kSplitRowBlock + align - 1) / align * align;
  for (std::int64_t b0 = r0; b0 < r1; b0 += block) {
    const std::int64_t b1 = std::min(b0 + block, r1);
    (tables.wide->*range)(wide, b0, b1);
    rest_range(rest, b0, b1);
  }
}

// Per family: rows [r0, r1) of a validated call.

void run_rows(const Tensor& w, const Call& c, const Tables& tables,
              std::int64_t r0, std::int64_t r1) {
  DenseRangeArgs a;
  a.w = w.data();
  a.x = c.x.data;
  a.out = c.out;
  a.cols = w.size(1);
  a.n = c.x.n;
  a.ldx = c.x.stride;
  a.ldo = c.x.n;
  a.k_tile = c.options.k_tile;
  run_lanes(tables, &KernelTable::dense_range, a, 1, r0, r1);
}

void run_rows(const BlockPrunedMatrix& w, const Call& c, const Tables& tables,
              std::int64_t r0, std::int64_t r1) {
  BlockRangeArgs a;
  a.w = &w;
  a.x = c.x.data;
  a.out = c.out;
  a.n = c.x.n;
  a.ldx = c.x.stride;
  a.ldo = c.x.n;
  run_lanes(tables, &KernelTable::block_range, a, 1, r0, r1);
}

void run_rows(const PatternPlan& p, const Call& c, const Tables& tables,
              std::int64_t r0, std::int64_t r1) {
  PatternRangeArgs a;
  a.plan = &p;
  a.x = c.x.data;
  a.out = c.out;
  a.n = c.x.n;
  a.ldx = c.x.stride;
  a.ldo = c.x.n;
  // 4 leftover lanes of a psize-4 plan fill one 16-lane register per tile.
  const auto tile4 = tables.wide->pattern_tile4_range;
  const bool to_tile4 = tile4 != nullptr && !p.x_lanes.empty() &&
                        a.n % tables.wide->width == 4;
  run_lanes(tables, &KernelTable::pattern_range, a, p.psize, r0, r1,
            to_tile4 ? tile4 : nullptr);
}

/// Deliberately element-at-a-time: every triple re-loads its row/col
/// indices and round-trips the output row through memory, with no
/// vectorization and no accumulator reuse across triples.  Triples are
/// row-major sorted, so each output lane still sees ascending-k fma order
/// and the result is bitwise equal to the dense reference.
void run_rows(const IrregularPlan& p, const Call& c, const Tables&,
              std::int64_t r0, std::int64_t r1) {
  const std::int64_t n = c.x.n;
  std::fill(c.out + r0 * n, c.out + r1 * n, 0.0F);
  const std::int64_t e0 = p.row_start[static_cast<std::size_t>(r0)];
  const std::int64_t e1 = p.row_start[static_cast<std::size_t>(r1)];
  for (std::int64_t e = e0; e < e1; ++e) {
    const auto ei = static_cast<std::size_t>(e);
    const float v = p.values[ei];
    const float* xrow = c.x.data + p.col_idx[ei] * c.x.stride;
    float* orow = c.out + p.row_idx[ei] * n;
    for (std::int64_t j = 0; j < n; ++j) {
      orow[j] = std::fma(v, xrow[j], orow[j]);
    }
  }
}

/// Runs call_at(0) .. call_at(count - 1), none of which may write what
/// another reads or writes, in one launch on the active ISA's tables.
/// Each call's rows split as a lone call's would (RowSplit, from its
/// work).  Launch queue h holds the (call, piece) items of chunk h of
/// every call, in list order, so thread t first runs its own chunk of
/// every call (each core keeps re-reading the same weight rows from its
/// own L2 across batches), then takes the unclaimed pieces of the others
/// (ThreadPool::run).  A launch whose calls are all one chunk runs on
/// the caller alone and wakes no worker.  Every call is validated before
/// any runs.
template <class CallAt>
void run_calls(ThreadPool* pool, std::int64_t count, const CallAt& call_at) {
  const Tables tables = active_tables();
  const std::int64_t width = tables.wide->width;
  const std::int64_t threads = pool == nullptr ? 1 : pool->num_threads() + 1;
  std::int64_t chunks = 0;
  for (std::int64_t i = 0; i < count; ++i) {
    const Call c = call_at(i);
    check_call(c);
    chunks = std::max(chunks, row_split(threads, width, c).chunks);
  }
  const auto piece = [&](std::int64_t h, std::int64_t item) {
    const Call c = call_at(item / kPiecesPerChunk);
    const RowSplit split = row_split(threads, width, c);
    const std::int64_t p = item % kPiecesPerChunk;
    if (h < split.chunks && p < split.pieces(h)) {
      const auto [r0, r1] = split.rows(h, p);
      std::visit([&](const auto* w) { run_rows(*w, c, tables, r0, r1); },
                 c.weight);
    }
  };
  const std::int64_t items = count * kPiecesPerChunk;
  if (chunks > 1) {
    pool->run(chunks, items, piece);
    return;
  }
  for (std::int64_t item = 0; item < items; ++item) {
    piece(0, item);
  }
}

void run_call(ThreadPool* pool, const Call& call) {
  run_calls(pool, 1, [&call](std::int64_t) { return call; });
}

/// A plan's call, on the payload of its mode.
Call plan_call(const GemmCall& g) {
  const LayerPlan& plan = *g.plan;
  const auto call = [&g](auto weight) {
    return Call{weight, g.x, g.out, g.options};
  };
  switch (plan.mode) {
    case ExecMode::kDense:
      return call(&plan.dense_weight);
    case ExecMode::kBlock:
      return call(&*plan.block);
    case ExecMode::kPattern:
      return call(&*plan.pattern);
    case ExecMode::kIrregular:
      return call(&*plan.irregular);
  }
  throw CheckError("plan_gemm: unsupported mode");
}

ActivationView activation_view(const Tensor& x) {
  check(x.dim() == 2, "exec kernel: need a 2-D activation");
  return {x.data(), x.size(0), x.size(1), x.size(1)};
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

Tensor dense_gemm(const Tensor& w, const Tensor& x, ThreadPool* pool,
                  const KernelOptions& options) {
  check(w.dim() == 2, "dense_gemm: need a 2-D weight");
  return into_tensor(w.size(0), x, [&](const ActivationView& v, float* out) {
    dense_gemm_into(w, v, out, pool, options);
  });
}

void dense_gemm_into(const Tensor& w, const ActivationView& x, float* out,
                     ThreadPool* pool, const KernelOptions& options) {
  run_call(pool, {&w, x, out, options});
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
  run_call(pool, {&w, x, out, options});
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
  run_call(pool, {&plan, x, out, options});
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
  run_call(pool, {&plan, x, out, options});
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
  const GemmCall call{&plan, x, out, options};
  plan_gemm_into(std::span<const GemmCall>(&call, 1), pool);
}

void plan_gemm_into(std::span<const GemmCall> calls, ThreadPool* pool) {
  run_calls(pool, static_cast<std::int64_t>(calls.size()),
            [calls](std::int64_t i) {
              return plan_call(calls[static_cast<std::size_t>(i)]);
            });
}

std::int64_t launch_chunks(const GemmCall& call, std::int64_t threads) {
  check(threads >= 1, "launch_chunks: need at least one thread");
  const Call c = plan_call(call);
  check_call(c);
  return row_split(threads, active_tables().wide->width, c).chunks;
}

}  // namespace rt3
