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
// lanes).  U follows from the call's width alone (with_unroll): the
// largest of 4, 2 and 1 whose W*U-lane chunk fits in n.  A row's n lanes
// are covered by chunks of W*U lanes, then W, then each of the table's
// narrower rungs in turn down to single lanes, so narrow activations
// (batch 1 is 4 columns) still run vector code on an 8-lane ISA.  A
// table with a `narrow` table (AVX-512) has no narrower rungs: its
// ladder covers whole W-lane vectors only (and its U follows from those
// lanes alone), and dispatch hands the lanes left over to the narrow
// table through a column window (exec/kernels.cpp), except that a
// psize-4 pattern call's 4 leftover lanes go to the AVX-512 file's own
// 4 x 4 tile body, which runs the same terms per lane in the same order.
//
// Tile-row pattern sweep: one pass of the pattern body walks T whole
// tile rows at once, per j-chunk and row group, over the plan's slot
// layout (PatternPlan::row_slots), which gives a row the same number of
// cells in every tile.  The T tile rows take each tile column in turn,
// so they share its X rows while those are in L1 (with one tile row per
// pass, each tile row streamed the whole X from L2).  T and the group's
// row count are template parameters, so every accumulator index is a
// compile-time constant and the pass's T x Rows x U accumulators live in
// registers (a runtime row index would force them onto the stack and
// cost a load and a store per kept cell), and the per-row trip counts
// repeat identically from tile to tile, so branches predict.  T is 2
// where the vector type's accumulator budget (V::kAccumulators) holds
// two tile rows, else 1 (pass_tile_rows); a tile row that cannot pair
// runs alone.  Each output row sums its tiles in ascending tc and each
// row's cells ascend by column, so each lane still sees its terms in
// ascending global column order whatever T is; pad cells are zero-weight
// terms at columns the reference also visits with weight zero.
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
  /// Accumulator budget as the scalar table's ladder head: half of
  /// x86-64's 16 xmm registers (aarch64's 32 would allow more).
  static constexpr std::int64_t kAccumulators = 8;
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

/// Calls f.template operator()<U>() at the unroll factor of an n-lane
/// call on a ladder headed by V: the largest U in {4, 2, 1} with
/// V::kWidth * U <= n, so a W*U chunk runs whenever the ladder's head
/// runs at all.  The kernels' only choice of U.
template <class V, class F>
void with_unroll(std::int64_t n, const F& f) {
  if (n >= 4 * V::kWidth) {
    f.template operator()<4>();
  } else if (n >= 2 * V::kWidth) {
    f.template operator()<2>();
  } else {
    f.template operator()<1>();
  }
}

/// Runs the ladder at the call's unroll factor.
template <class V, class... Narrower, class Body>
void for_each_chunk(std::int64_t n, Body&& body) {
  with_unroll<V>(n, [&]<int U>() { ladder<V, U, Narrower...>(n, body); });
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
      for_each_chunk<V, Narrower...>(n, chunk);
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
    for_each_chunk<V, Narrower...>(n, chunk);
  }
}

/// Most rows of one tile row whose accumulators one pattern chunk keeps
/// resident; larger psizes sweep their tile row in several groups, one
/// tile row per pass.  A pass holds T tile rows x Rows rows of one group.
constexpr std::int64_t kRowGroup = 8;

/// Calls f(std::integral_constant<int, I>{}) for I = 0 .. N-1 in order:
/// a loop whose index is a compile-time constant in every iteration.
template <int N, class F>
[[gnu::always_inline]] inline void unrolled(const F& f) {
  [&]<int... I>(std::integer_sequence<int, I...>) {
    (f(std::integral_constant<int, I>{}), ...);
  }(std::make_integer_sequence<int, N>{});
}

/// One pass of the pattern sweep in the slot layout: the same row group
/// of T consecutive tile rows (the pattern chunk's template parameter).
struct PatternGroup {
  /// The first of the pass's tile rows.
  std::int64_t tile_row = 0;
  /// Offset of the group's first cell within a tile's slot cells.
  std::int64_t offset = 0;
  /// Cells per tile of each of the group's rows (PatternPlan::row_slots).
  const std::int64_t* slots = nullptr;
  /// Output row of the first tile row's first group row; tile row t's
  /// sits psize * t rows further.
  float* out = nullptr;
};

/// Pattern chunk body: lanes [j, j + V::kWidth * U) of the Rows rows of
/// one row group in each of T tile rows.  Each tile column streams every
/// row's cells, in slot order, into that row's accumulators, one tile
/// row after another, so the T tile rows share the column's X rows while
/// they are in L1.
template <class V, int U, int T, int Rows>
void pattern_chunk(const PatternRangeArgs& a, const PatternGroup& g,
                   std::int64_t j) {
  constexpr std::int64_t w = V::kWidth;
  const PatternPlan& plan = *a.plan;
  const std::int64_t stride = plan.slot_stride;
  const std::int64_t ldx = a.ldx;
  const std::int64_t tile_step = plan.tiles_c;  // tiles per tile row
  const std::int32_t* tiles = plan.tiles.data() + g.tile_row * tile_step;
  const std::int32_t* cols0 = plan.slot_cols.data() + g.offset;
  const float* vals =
      plan.slot_values.data() + g.tile_row * tile_step * stride + g.offset;
  const float* xt = a.x + j;
  // Row r's cells are [ends[r - 1], ends[r]) of a tile's group cells.
  std::int64_t ends[Rows];
  typename V::Reg acc[T][Rows][U];
  for (int r = 0; r < Rows; ++r) {
    ends[r] = (r == 0 ? 0 : ends[r - 1]) + g.slots[r];
  }
  for (int t = 0; t < T; ++t) {
    for (int r = 0; r < Rows; ++r) {
      for (int u = 0; u < U; ++u) {
        acc[t][r][u] = V::broadcast(0.0F);
      }
    }
  }
  for (std::int64_t tc = 0; tc < plan.tiles_c;
       ++tc, vals += stride, xt += plan.psize * ldx) {
    unrolled<T>([&](auto t) {
      const std::int32_t* cols = cols0 + tiles[t * tile_step + tc] * stride;
      const float* v = vals + t * tile_step * stride;
      std::int64_t s = 0;
      unrolled<Rows>([&](auto r) {
        for (; s < ends[r]; ++s) {
          const auto wv = V::broadcast(v[s]);
          const float* xp = xt + cols[s] * ldx;
          for (int u = 0; u < U; ++u) {
            acc[t][r][u] = V::fma(wv, V::load(xp + u * w), acc[t][r][u]);
          }
        }
      });
    });
  }
  for (int t = 0; t < T; ++t) {
    float* out = g.out + t * plan.psize * a.ldo + j;
    for (int r = 0; r < Rows; ++r) {
      for (int u = 0; u < U; ++u) {
        V::store(out + r * a.ldo + u * w, acc[t][r][u]);
      }
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

/// Most tile rows one pattern pass takes.  Four (psize 4, unroll 1: 16
/// of 32 zmm) ran 8% slower than two on a Sapphire Rapids Xeon: each
/// tile row adds live pointers, and the slot loops' general registers
/// spill.
constexpr int kPassTileRows = 2;

/// Tile rows one pattern pass covers with Rows-row groups at the call's
/// unroll U (with_unroll): kPassTileRows when that many tile rows'
/// Rows x U accumulators fit the ladder head's budget (V::kAccumulators,
/// about half the register file), else one.  The narrower rungs hold one
/// register per row in the same register file, so the head's budget
/// bounds them too.  On the Xeon above, single-threaded at 32 columns
/// over 512 x 512 to 2048 x 512 layers with U set by hand, every pairing
/// this admits on AVX-512 beat one tile row per pass: psize 2 at U = 1,
/// 2 and 4, psize 4 at 1 and 2, and psize 8 at 1.  On AVX-512, U is 1
/// below 32 columns, 2 up to 63 and 4 from 64.
template <class V, int U, int Rows>
constexpr int pass_tile_rows() {
  return kPassTileRows * Rows * U <= V::kAccumulators ? kPassTileRows : 1;
}

/// Rows [row0, row1) are tile-row aligned (see PatternRangeArgs).  A
/// pass takes pass_tile_rows whole tile rows when the range has them
/// left and one otherwise, so a clipped last tile row, a tile row of
/// several groups (psize > kRowGroup) and the tile rows left at the end
/// of the range run alone.
template <class V, int U, class... Narrower>
void pattern_rows(const PatternRangeArgs& a, std::int64_t row0,
                  std::int64_t row1) {
  const PatternPlan& plan = *a.plan;
  const std::int64_t p = plan.psize;
  const std::int64_t tr1 = (row1 + p - 1) / p;
  // Tile rows below `whole` are full height and one group each.
  const std::int64_t whole = p <= kRowGroup ? std::min(tr1, plan.rows / p) : 0;
  for (std::int64_t tr = row0 / p; tr < tr1;) {
    const std::int64_t rmax = std::min(p, plan.rows - tr * p);
    std::int64_t pass = 1;
    PatternGroup g;
    g.tile_row = tr;
    for (std::int64_t g0 = 0; g0 < rmax; g0 += kRowGroup) {
      const std::int64_t h = std::min(kRowGroup, rmax - g0);
      g.slots = plan.row_slots.data() + g0;
      g.out = a.out + (tr * p + g0) * a.ldo;
      with_rows(h, [&]<int Rows>() {
        const auto sweep = [&]<int T>() {
          pass = T;
          const auto chunk = [&]<class C>(C, std::int64_t j) {
            pattern_chunk<typename C::Vec, C::kU, T, Rows>(a, g, j);
          };
          ladder<V, U, Narrower...>(a.n, chunk);
        };
        constexpr int kTileRows = pass_tile_rows<V, U, Rows>();
        if (whole - tr >= kTileRows) {
          sweep.template operator()<kTileRows>();
        } else {
          sweep.template operator()<1>();
        }
      });
      for (std::int64_t r = 0; r < h; ++r) {
        g.offset += g.slots[r];
      }
    }
    tr += pass;
  }
}

template <class V, class... Narrower>
void pattern_range(const PatternRangeArgs& a, std::int64_t row0,
                   std::int64_t row1) {
  with_unroll<V>(a.n, [&]<int U>() {
    pattern_rows<V, U, Narrower...>(a, row0, row1);
  });
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
