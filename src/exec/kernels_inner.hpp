// Templated inner-loop bodies shared by every ISA instantiation.
//
// A vector type V models W = V::kWidth adjacent activation lanes:
//   load/store  : W contiguous floats
//   broadcast   : one weight splat across lanes
//   fma(a,b,c)  : per-lane fused multiply-add, SINGLE rounding per step
// Each output element's accumulation is one per-lane fma chain over
// ascending k, identical to the scalar reference (std::fma is also a
// single-rounding fused op), so kernels built from these bodies are
// bitwise equal to naive_dense_matmul lane by lane — for any W, any
// unroll factor, any tiling, and any thread count.
//
// Width ladder: a chunk body templated on <Vec, U> (one shared by dense
// and block, one for pattern) updates Vec::kWidth * U adjacent lanes,
// keeping U independent accumulator chains in flight (chains never mix
// lanes).  A row's n lanes are covered by chunks of W*U lanes, then W,
// then each of the table's narrower rungs in turn down to single lanes,
// so narrow activations (batch 1 is 4 columns) still run vector code on
// an 8-lane ISA.  A table with a `narrow` table (AVX-512) has no narrower
// rungs: its ladder covers whole W-lane vectors only, and dispatch hands
// the lanes left over to the narrow table through a column window
// (exec/kernels.cpp), except that a psize-4 pattern call's 4 leftover
// lanes go to the AVX-512 file's own 4 x 4 tile body, which runs the
// same terms per lane in the same order.
//
// Tile-row pattern sweep: the pattern body walks one tile row once per
// j-chunk and row group, over the plan's slot layout
// (PatternPlan::row_slots), which gives a row the same number of cells in
// every tile.  The group's row count is a template parameter, so every
// accumulator index is a compile-time constant and the group's Rows x U
// accumulators live in registers (a runtime row index would force them
// onto the stack and cost a load and a store per kept cell), and the
// per-row trip counts repeat identically from tile to tile, so branches
// predict.  Tiles ascend in tc and each row's cells ascend by column, so
// each lane still sees its terms in ascending global column order; pad
// cells are zero-weight terms at columns the reference also visits with
// weight zero.
//
// Every body overwrites its output: chains start at +0 (or, for the
// dense kernel's later k-tiles, at the partial sums the first wrote), so
// stale workspace contents never leak into a result.  X and output rows
// are addressed at caller-given strides (ldx, ldo), so a column window of
// wider buffers runs in place.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <type_traits>
#include <utility>

#include "exec/kernels_dispatch.hpp"

namespace rt3 {
namespace inner {

/// Portable reference lanes (width 1): the scalar table's only rung and
/// the NEON ladder's last.  The AVX2 ladder ends in a file-local copy
/// (exec/kernels_avx2.cpp).
struct VecScalar {
  static constexpr std::int64_t kWidth = 1;
  using Reg = float;
  static Reg load(const float* p) { return *p; }
  static void store(float* p, Reg r) { *p = r; }
  static Reg broadcast(float v) { return v; }
  static Reg fma(Reg a, Reg b, Reg c) { return std::fma(a, b, c); }
};

/// One rung of the width ladder: U registers of V.
template <class V, int U>
struct Chunk {
  using Vec = V;
  static constexpr int kU = U;
  static constexpr std::int64_t kLanes = V::kWidth * U;
};

/// Covers lanes [0, n) with chunks of W*U lanes, then W, then each
/// Narrower rung in order, calling body(Chunk<Vec, U>{}, j) for each
/// chunk starting at lane j.
template <class V, int U, class... Narrower, class Body>
void ladder(std::int64_t n, Body& body) {
  std::int64_t j = 0;
  const auto rung = [&]<class C>(C chunk) {
    for (; j + C::kLanes <= n; j += C::kLanes) {
      body(chunk, j);
    }
  };
  rung(Chunk<V, U>{});
  rung(Chunk<V, 1>{});
  (rung(Chunk<Narrower, 1>{}), ...);
}

/// Runs the ladder at a validated unroll factor (1, 2 or 4).
template <class V, class... Narrower, class Body>
void for_each_chunk(std::int64_t n, std::int64_t unroll, Body&& body) {
  switch (unroll) {
    case 4:
      ladder<V, 4, Narrower...>(n, body);
      return;
    case 2:
      ladder<V, 2, Narrower...>(n, body);
      return;
    default:
      ladder<V, 1, Narrower...>(n, body);
  }
}

/// Dense and block chunk body: out[lanes] = (accumulate ? out[lanes] : 0)
/// + sum over t in [t0, t1) of weight(t) * x_row(t)[lanes], one fma per
/// term in ascending t.  The families differ only in how a term finds its
/// weight and X row.
template <class V, int U, class Weight, class XRow>
void row_chunk(float* out, bool accumulate, std::int64_t t0, std::int64_t t1,
               const Weight& weight, const XRow& x_row) {
  constexpr std::int64_t w = V::kWidth;
  typename V::Reg acc[U];
  for (int u = 0; u < U; ++u) {
    acc[u] = accumulate ? V::load(out + u * w) : V::broadcast(0.0F);
  }
  for (std::int64_t t = t0; t < t1; ++t) {
    const auto v = V::broadcast(weight(t));
    const float* xp = x_row(t);
    for (int u = 0; u < U; ++u) {
      acc[u] = V::fma(v, V::load(xp + u * w), acc[u]);
    }
  }
  for (int u = 0; u < U; ++u) {
    V::store(out + u * w, acc[u]);
  }
}

template <class V, class... Narrower>
void dense_range(const DenseRangeArgs& a, std::int64_t r0, std::int64_t r1) {
  const std::int64_t n = a.n;
  for (std::int64_t kk = 0; kk < a.cols; kk += a.k_tile) {
    const std::int64_t kend = std::min(kk + a.k_tile, a.cols);
    for (std::int64_t r = r0; r < r1; ++r) {
      const float* wrow = a.w + r * a.cols;
      float* orow = a.out + r * a.ldo;
      const auto weight = [wrow](std::int64_t k) { return wrow[k]; };
      const auto chunk = [&]<class C>(C, std::int64_t j) {
        const auto x_row = [&](std::int64_t k) { return a.x + k * a.ldx + j; };
        row_chunk<typename C::Vec, C::kU>(orow + j, kk > 0, kk, kend, weight,
                                          x_row);
      };
      for_each_chunk<V, Narrower...>(n, a.unroll, chunk);
    }
  }
  if (a.cols == 0) {  // no k-tile ran: the product is all zeros
    // A loop, not std::fill: a standard template instantiated in an ISA
    // TU could be merged into code that runs on narrower hosts.
    for (std::int64_t r = r0; r < r1; ++r) {
      for (std::int64_t j = 0; j < n; ++j) {
        a.out[r * a.ldo + j] = 0.0F;
      }
    }
  }
}

template <class V, class... Narrower>
void block_range(const BlockRangeArgs& a, std::int64_t r0, std::int64_t r1) {
  const std::int64_t n = a.n;
  const std::int64_t rows_per_block = a.w->block_rows();
  for (std::int64_t r = r0; r < r1; ++r) {
    const std::int64_t b = r / rows_per_block;
    const std::int64_t* kept = a.w->kept_cols(b).data();
    const auto kc = static_cast<std::int64_t>(a.w->kept_cols(b).size());
    const float* vrow =
        a.w->block_values(b).data() + (r - b * rows_per_block) * kc;
    float* orow = a.out + r * a.ldo;
    const auto weight = [vrow](std::int64_t c) { return vrow[c]; };
    const auto chunk = [&]<class C>(C, std::int64_t j) {
      const auto x_row = [&](std::int64_t c) {
        return a.x + kept[c] * a.ldx + j;
      };
      row_chunk<typename C::Vec, C::kU>(orow + j, false, 0, kc, weight, x_row);
    };
    for_each_chunk<V, Narrower...>(n, a.unroll, chunk);
  }
}

/// Most tile rows whose accumulators one pattern chunk keeps resident;
/// larger psizes sweep their tile row in several groups.
constexpr std::int64_t kRowGroup = 8;

/// Calls f(std::integral_constant<int, I>{}) for I = 0 .. N-1 in order:
/// a loop whose index is a compile-time constant in every iteration.
template <int N, class F>
[[gnu::always_inline]] inline void unrolled(const F& f) {
  [&]<int... I>(std::integer_sequence<int, I...>) {
    (f(std::integral_constant<int, I>{}), ...);
  }(std::make_integer_sequence<int, N>{});
}

/// One row group of one tile row in the slot layout.
struct PatternGroup {
  std::int64_t tile_row = 0;
  /// Offset of the group's first cell within a tile's slot cells.
  std::int64_t offset = 0;
  /// Cells per tile of each of the group's rows (PatternPlan::row_slots).
  const std::int64_t* slots = nullptr;
  /// Output row of the group's first row.
  float* out = nullptr;
};

/// Pattern chunk body: lanes [j, j + V::kWidth * U) of the Rows rows of
/// one row group.  Each tile streams every row's cells, in slot order,
/// into that row's accumulators.
template <class V, int U, int Rows>
void pattern_chunk(const PatternRangeArgs& a, const PatternGroup& g,
                   std::int64_t j) {
  constexpr std::int64_t w = V::kWidth;
  const PatternPlan& plan = *a.plan;
  const std::int64_t stride = plan.slot_stride;
  const std::int64_t ldx = a.ldx;
  const std::int32_t* tiles = plan.tiles.data() + g.tile_row * plan.tiles_c;
  const std::int32_t* cols0 = plan.slot_cols.data() + g.offset;
  const float* vals = plan.slot_values.data() +
                      g.tile_row * plan.tiles_c * stride + g.offset;
  const float* xt = a.x + j;
  std::int64_t slots[Rows];
  typename V::Reg acc[Rows][U];
  for (int r = 0; r < Rows; ++r) {
    slots[r] = g.slots[r];
    for (int u = 0; u < U; ++u) {
      acc[r][u] = V::broadcast(0.0F);
    }
  }
  for (std::int64_t tc = 0; tc < plan.tiles_c;
       ++tc, vals += stride, xt += plan.psize * ldx) {
    const std::int32_t* cols = cols0 + tiles[tc] * stride;
    const float* v = vals;
    unrolled<Rows>([&](auto r) {
      for (std::int64_t s = 0; s < slots[r]; ++s) {
        const auto wv = V::broadcast(v[s]);
        const float* xp = xt + cols[s] * ldx;
        for (int u = 0; u < U; ++u) {
          acc[r][u] = V::fma(wv, V::load(xp + u * w), acc[r][u]);
        }
      }
      cols += slots[r];
      v += slots[r];
    });
  }
  for (int r = 0; r < Rows; ++r) {
    for (int u = 0; u < U; ++u) {
      V::store(g.out + r * a.ldo + j + u * w, acc[r][u]);
    }
  }
}

/// Calls f.template operator()<Rows>() with the compile-time Rows == h,
/// for h in [1, kRowGroup].
template <int Rows = 1, class F>
void with_rows(std::int64_t h, const F& f) {
  if constexpr (Rows < kRowGroup) {
    if (h != Rows) {
      with_rows<Rows + 1>(h, f);
      return;
    }
  }
  f.template operator()<Rows>();
}

/// Rows [row0, row1) are tile-row aligned (see PatternRangeArgs).
template <class V, class... Narrower>
void pattern_range(const PatternRangeArgs& a, std::int64_t row0,
                   std::int64_t row1) {
  const PatternPlan& plan = *a.plan;
  const std::int64_t p = plan.psize;
  for (std::int64_t tr = row0 / p; tr < (row1 + p - 1) / p; ++tr) {
    const std::int64_t rmax = std::min(p, plan.rows - tr * p);
    PatternGroup g;
    g.tile_row = tr;
    for (std::int64_t g0 = 0; g0 < rmax; g0 += kRowGroup) {
      const std::int64_t h = std::min(kRowGroup, rmax - g0);
      g.slots = plan.row_slots.data() + g0;
      g.out = a.out + (tr * p + g0) * a.ldo;
      with_rows(h, [&]<int Rows>() {
        const auto chunk = [&]<class C>(C, std::int64_t j) {
          pattern_chunk<typename C::Vec, C::kU, Rows>(a, g, j);
        };
        for_each_chunk<V, Narrower...>(a.n, a.unroll, chunk);
      });
      for (std::int64_t r = 0; r < h; ++r) {
        g.offset += g.slots[r];
      }
    }
  }
}

/// The table whose range functions run the ladder V, Narrower...
template <class V, class... Narrower>
constexpr KernelTable ladder_table(const char* name) {
  KernelTable t;
  t.name = name;
  t.width = V::kWidth;
  t.dense_range = &dense_range<V, Narrower...>;
  t.block_range = &block_range<V, Narrower...>;
  t.pattern_range = &pattern_range<V, Narrower...>;
  return t;
}

/// Kernel table over full-width V whose ladder then walks the Narrower
/// rungs, widest first; the narrowest rung is one lane, so every n is
/// covered.  constexpr, so a table is constant-initialized: fetching it
/// runs none of the table's (possibly host-unsupported) code.
template <class V, class... Narrower>
constexpr KernelTable make_kernel_table(const char* name) {
  static_assert(std::min({V::kWidth, Narrower::kWidth...}) == 1,
                "the ladder must end in a single-lane rung, or the table "
                "needs a narrow table");
  return ladder_table<V, Narrower...>(name);
}

/// Kernel table over V alone: its ladder covers whole V vectors only,
/// and dispatch runs the lanes left over on `narrow`'s table
/// (KernelTable::narrow).
template <class V>
constexpr KernelTable make_kernel_table(const char* name,
                                        NarrowTable narrow) {
  KernelTable t = ladder_table<V>(name);
  t.narrow = narrow;
  return t;
}

}  // namespace inner
}  // namespace rt3
