#include "exec/kernels.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <exception>
#include <memory>
#include <utility>
#include <variant>

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

/// Runs task(t) for every t in [0, tasks): the calling thread runs task
/// 0 itself while pool workers run the rest, then waits for them and
/// rethrows the first exception a task threw.  The kernel engine's only
/// fork/join.
template <class Task>
void fork_join(ThreadPool* pool, std::int64_t tasks, const Task& task) {
  if (tasks <= 1) {
    if (tasks == 1) {
      task(0);
    }
    return;
  }
  // Each pool task captures only this frame and its index, which keeps
  // the std::function in its small-object buffer (no allocation).  Tasks
  // catch their own exceptions and count themselves down, so the caller
  // can return as soon as the count reaches zero.
  struct Fork {
    const Task* task;
    std::atomic<std::int64_t> pending;
    std::atomic<bool> failed{false};
    std::exception_ptr error{};
    void run(std::int64_t t) {
      try {
        (*task)(t);
      } catch (...) {
        if (!failed.exchange(true)) {
          error = std::current_exception();
        }
      }
    }
  };
  Fork fork{&task, tasks - 1};
  for (std::int64_t t = 1; t < tasks; ++t) {
    pool->submit([f = &fork, t] {
      f->run(t);
      // Last touch of `fork`: the caller may return right after this.
      f->pending.fetch_sub(1, std::memory_order_release);
    });
  }
  fork.run(0);
  // The pool's tasks are as long as ours, so they finish about now: spin
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

/// Pieces a chunk is cut into (fewer where a piece would fall below
/// row_grain rows): the unit a thread claims.  With one of four vCPUs
/// running its work twice over, 2, 4 and 8 pieces recovered the same
/// batch-8 throughput on 512-row layers; 2 makes the fewest claims.
constexpr std::int64_t kPiecesPerChunk = 2;

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

/// How one call's output rows split across threads: into at most
/// min(pool workers + 1, options.threads) chunks, chunk c being thread
/// c's own share (chunk 0 the calling thread's), never more than can run
/// concurrently.  Each chunk is cut into up to kPiecesPerChunk pieces,
/// the unit a thread claims, so a thread that finishes its own chunk can
/// take the unclaimed pieces of a slower one (run_calls).  Boundaries are
/// multiples of `align` rows, the remainder spread one align-unit at a
/// time across the leading chunks (and pieces) so sizes differ by at
/// most one unit.  One chunk of one piece when there is no pool, the
/// call is capped to one thread or the matrix is too small to amortize
/// dispatch; none when it has no rows.
struct RowSplit {
  std::int64_t total = 0;
  std::int64_t align = 1;
  std::int64_t units = 0;  // align-units of rows
  std::int64_t grain_units = 1;
  std::int64_t chunks = 0;

  /// `threads`: the caller plus the pool's workers.
  RowSplit(std::int64_t threads, std::int64_t rows,
           const KernelOptions& options, std::int64_t unit)
      : total(rows), align(unit) {
    if (total <= 0) {
      return;
    }
    std::int64_t max_chunks = threads;
    if (options.threads > 0) {
      max_chunks = std::min(max_chunks, options.threads);
    }
    units = (total + align - 1) / align;
    grain_units = std::max<std::int64_t>(1, options.row_grain / align);
    chunks = 1;
    if (max_chunks > 1 && total >= 2 * options.row_grain) {
      chunks = std::max<std::int64_t>(
          1, std::min(max_chunks, units / grain_units));
    }
  }

  /// Pieces of chunk c < chunks.
  std::int64_t pieces(std::int64_t c) const {
    if (chunks == 1) {
      return 1;  // only the calling thread runs it: nothing to share
    }
    const auto [u0, u1] = even_part(units, chunks, c);
    return std::clamp<std::int64_t>((u1 - u0) / grain_units, 1,
                                    kPiecesPerChunk);
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

// Per family: the weight's checks against X, and its output rows with the
// row multiple a chunk keeps (whole tile rows for the pattern kernel).

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

std::pair<std::int64_t, std::int64_t> rows_and_align(const Tensor& w) {
  return {w.size(0), 1};
}

std::pair<std::int64_t, std::int64_t> rows_and_align(
    const BlockPrunedMatrix& w) {
  return {w.rows(), 1};
}

std::pair<std::int64_t, std::int64_t> rows_and_align(const PatternPlan& p) {
  return {p.rows, p.psize};
}

std::pair<std::int64_t, std::int64_t> rows_and_align(const IrregularPlan& p) {
  return {p.rows, 1};
}

void check_call(const Call& c) {
  std::visit([&](const auto* w) { check_weight(*w, c.x); }, c.weight);
  check_kernel_options(c.options, "exec kernel");
}

RowSplit row_split(std::int64_t threads, const Call& c) {
  const auto [rows, align] =
      std::visit([](const auto* w) { return rows_and_align(*w); }, c.weight);
  return RowSplit(threads, rows, c.options, align);
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
  a.k_tile = resolve_k_tile(c.options, a.cols, c.x.n);
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
/// another reads or writes, in one fork/join on the active ISA's tables.
/// Each call's rows split as a lone call's would (RowSplit, under its own
/// options).  Thread t first claims, in order, the pieces of chunk t of
/// every call, then the unclaimed pieces of the other threads' chunks, so
/// a launch ends at the threads' combined pace rather than waiting on a
/// slow or late one (a vCPU sharing its core, a worker woken late).  A
/// thread only takes another's pieces when every call's split admits it
/// (t < chunks), so a call capped to c threads still runs on threads
/// 0 .. c-1.  Every call is validated before any runs.
template <class CallAt>
void run_calls(ThreadPool* pool, std::int64_t count, const CallAt& call_at) {
  const Tables tables = active_tables();
  const std::int64_t threads = pool == nullptr ? 1 : pool->num_threads() + 1;
  std::int64_t tasks = 0;
  std::int64_t thieves = threads;  // threads admitted by every call
  for (std::int64_t i = 0; i < count; ++i) {
    const Call c = call_at(i);
    check_call(c);
    const std::int64_t chunks = row_split(threads, c).chunks;
    tasks = std::max(tasks, chunks);
    if (chunks > 0) {
      thieves = std::min(thieves, chunks);
    }
  }
  // Claim cursor h walks the (call, piece) items of chunk h, one cache
  // line each so the threads' claims do not contend; a launch of up to
  // kInlineCursors threads keeps them on the caller's stack.
  struct alignas(64) Cursor {
    std::atomic<std::int64_t> next{0};
  };
  constexpr std::int64_t kInlineCursors = 16;
  std::array<Cursor, kInlineCursors> inline_cursors;
  std::unique_ptr<Cursor[]> heap_cursors;
  Cursor* cursors = inline_cursors.data();
  if (tasks > kInlineCursors) {
    heap_cursors = std::make_unique<Cursor[]>(static_cast<std::size_t>(tasks));
    cursors = heap_cursors.get();
  }
  const std::int64_t items = count * kPiecesPerChunk;
  fork_join(pool, tasks, [&](std::int64_t t) {
    const std::int64_t homes = t < thieves ? tasks : 1;
    for (std::int64_t v = 0; v < homes; ++v) {
      const std::int64_t h = (t + v) % tasks;
      std::atomic<std::int64_t>& next = cursors[h].next;
      for (std::int64_t item = next.fetch_add(1, std::memory_order_relaxed);
           item < items;
           item = next.fetch_add(1, std::memory_order_relaxed)) {
        const Call c = call_at(item / kPiecesPerChunk);
        const RowSplit split = row_split(threads, c);
        const std::int64_t piece = item % kPiecesPerChunk;
        if (h < split.chunks && piece < split.pieces(h)) {
          const auto [r0, r1] = split.rows(h, piece);
          std::visit([&](const auto* w) { run_rows(*w, c, tables, r0, r1); },
                     c.weight);
        }
      }
    }
  });
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

}  // namespace rt3
