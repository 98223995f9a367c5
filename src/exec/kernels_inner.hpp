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
// then a half-width vector H, then single lanes, so narrow activations
// (batch 1 is 4 columns) still run vector code on an 8-lane ISA.
//
// Tile-row pattern sweep: the pattern body walks one tile row once per
// j-chunk, fetching each tile's CSR and values once and applying them to
// every row of the tile, whose accumulators stay resident in groups of at
// most kRowGroup rows.  Tiles ascend in tc and kept columns ascend within
// a row, so each lane still sees its terms in ascending global column
// order and the cost tracks kept weights, not (row, tile) visits.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "exec/kernels_dispatch.hpp"

namespace rt3 {
namespace inner {

/// Portable reference lanes (width 1): the last rung of every ladder.
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

/// Covers lanes [0, n) with chunks of W*U, W, H and 1 lanes, calling
/// body(Chunk<Vec, U>{}, j) for each chunk starting at lane j.
template <class V, class H, int U, class Body>
void ladder(std::int64_t n, Body& body) {
  std::int64_t j = 0;
  const auto rung = [&]<class C>(C chunk) {
    for (; j + C::kLanes <= n; j += C::kLanes) {
      body(chunk, j);
    }
  };
  rung(Chunk<V, U>{});
  rung(Chunk<V, 1>{});
  rung(Chunk<H, 1>{});
  rung(Chunk<VecScalar, 1>{});
}

/// Runs the ladder at a validated unroll factor (1, 2 or 4).
template <class V, class H, class Body>
void for_each_chunk(std::int64_t n, std::int64_t unroll, Body&& body) {
  switch (unroll) {
    case 4:
      ladder<V, H, 4>(n, body);
      return;
    case 2:
      ladder<V, H, 2>(n, body);
      return;
    default:
      ladder<V, H, 1>(n, body);
  }
}

/// Dense and block chunk body: out[lanes] += sum over t in [t0, t1) of
/// weight(t) * x_row(t)[lanes], one fma per term in ascending t.  The
/// families differ only in how a term finds its weight and X row.
template <class V, int U, class Weight, class XRow>
void row_chunk(float* out, std::int64_t t0, std::int64_t t1,
               const Weight& weight, const XRow& x_row) {
  constexpr std::int64_t w = V::kWidth;
  typename V::Reg acc[U];
  for (int u = 0; u < U; ++u) {
    acc[u] = V::load(out + u * w);
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

template <class V, class H>
void dense_range(const DenseRangeArgs& a, std::int64_t r0, std::int64_t r1) {
  const std::int64_t n = a.n;
  for (std::int64_t kk = 0; kk < a.cols; kk += a.k_tile) {
    const std::int64_t kend = std::min(kk + a.k_tile, a.cols);
    for (std::int64_t r = r0; r < r1; ++r) {
      const float* wrow = a.w + r * a.cols;
      float* orow = a.out + r * n;
      const auto weight = [wrow](std::int64_t k) { return wrow[k]; };
      for_each_chunk<V, H>(n, a.unroll, [&]<class C>(C, std::int64_t j) {
        const auto x_row = [&](std::int64_t k) { return a.x + k * n + j; };
        row_chunk<typename C::Vec, C::kU>(orow + j, kk, kend, weight, x_row);
      });
    }
  }
}

template <class V, class H>
void block_range(const BlockRangeArgs& a, std::int64_t r0, std::int64_t r1) {
  const std::int64_t n = a.n;
  const std::int64_t rows_per_block = a.w->block_rows();
  for (std::int64_t r = r0; r < r1; ++r) {
    const std::int64_t b = r / rows_per_block;
    const std::int64_t* kept = a.w->kept_cols(b).data();
    const auto kc = static_cast<std::int64_t>(a.w->kept_cols(b).size());
    const float* vrow =
        a.w->block_values(b).data() + (r - b * rows_per_block) * kc;
    float* orow = a.out + r * n;
    const auto weight = [vrow](std::int64_t c) { return vrow[c]; };
    for_each_chunk<V, H>(n, a.unroll, [&]<class C>(C, std::int64_t j) {
      const auto x_row = [&](std::int64_t c) { return a.x + kept[c] * n + j; };
      row_chunk<typename C::Vec, C::kU>(orow + j, 0, kc, weight, x_row);
    });
  }
}

/// Most tile rows whose accumulators one pattern chunk keeps resident;
/// larger psizes sweep their tile row in several groups.
constexpr std::int64_t kRowGroup = 8;

/// Pattern chunk body: lanes [j, j + V::kWidth * U) of rows [g0, g1) of
/// one tile row (g1 - g0 <= kRowGroup), whose tiles start at `tiles` and
/// whose row g0 starts at `out`.  One pass over the tile row fetches each
/// tile's CSR and values once and streams its kept cells, in CSR order,
/// into the owning row's resident accumulator.
template <class V, int U>
void pattern_chunk(const PatternRangeArgs& a, const PatternTile* tiles,
                   float* out, std::int64_t j, std::int64_t g0,
                   std::int64_t g1) {
  constexpr std::int64_t w = V::kWidth;
  const PatternPlan& plan = *a.plan;
  const std::int64_t n = a.n;
  typename V::Reg acc[kRowGroup][U];
  for (std::int64_t r = 0; r < g1 - g0; ++r) {
    for (int u = 0; u < U; ++u) {
      acc[r][u] = V::load(out + r * n + j + u * w);
    }
  }
  for (std::int64_t tc = 0; tc < plan.tiles_c; ++tc) {
    const CompiledPattern& cp = plan.tile_pattern(tiles[tc]);
    const std::int32_t* row_ptr = cp.row_ptr.data();
    const std::int32_t* rows = cp.rows.data();
    const std::int32_t* cols = cp.cols.data();
    const float* vals = plan.values.data() + tiles[tc].value_offset;
    const float* xt = a.x + tc * plan.psize * n + j;
    for (std::int32_t i = row_ptr[g0]; i < row_ptr[g1]; ++i) {
      const auto v = V::broadcast(vals[i]);
      const float* xp = xt + cols[i] * n;
      auto& racc = acc[rows[i] - g0];
      for (int u = 0; u < U; ++u) {
        racc[u] = V::fma(v, V::load(xp + u * w), racc[u]);
      }
    }
  }
  for (std::int64_t r = 0; r < g1 - g0; ++r) {
    for (int u = 0; u < U; ++u) {
      V::store(out + r * n + j + u * w, acc[r][u]);
    }
  }
}

/// Rows [row0, row1) are tile-row aligned (see PatternRangeArgs).
template <class V, class H>
void pattern_range(const PatternRangeArgs& a, std::int64_t row0,
                   std::int64_t row1) {
  const PatternPlan& plan = *a.plan;
  const std::int64_t p = plan.psize;
  for (std::int64_t tr = row0 / p; tr < (row1 + p - 1) / p; ++tr) {
    const PatternTile* tiles = plan.tiles.data() + tr * plan.tiles_c;
    const std::int64_t rmax = std::min(p, plan.rows - tr * p);
    for (std::int64_t g0 = 0; g0 < rmax; g0 += kRowGroup) {
      const std::int64_t g1 = std::min(g0 + kRowGroup, rmax);
      float* out = a.out + (tr * p + g0) * a.n;
      for_each_chunk<V, H>(a.n, a.unroll, [&]<class C>(C, std::int64_t j) {
        pattern_chunk<typename C::Vec, C::kU>(a, tiles, out, j, g0, g1);
      });
    }
  }
}

/// Kernel table over full-width V with half-width rung H (VecScalar when
/// the ISA has no narrower vector).
template <class V, class H = VecScalar>
KernelTable make_kernel_table(const char* name) {
  KernelTable t;
  t.name = name;
  t.width = V::kWidth;
  t.dense_range = &dense_range<V, H>;
  t.block_range = &block_range<V, H>;
  t.pattern_range = &pattern_range<V, H>;
  return t;
}

}  // namespace inner
}  // namespace rt3
