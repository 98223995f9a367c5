// AVX-512F kernel table (width 16, no narrower rungs: the lanes past the
// last whole 16-lane vector, and every lane of a call narrower than 16,
// run on the AVX2 table, except that a psize-4 pattern call's 4 leftover
// lanes run on this file's 4 x 4 tile body; see below).
// _mm512_fmadd_ps rounds once per lane per step, exactly like std::fma,
// which is what keeps this table bitwise equal to the scalar reference
// lane-wise.
//
// The file enables its own ISA, so any build of src/ gets the table
// without per-file flags.  The standard library and the plan types are
// included first; the GCC target pragma then applies only to what
// follows: the intrinsics, the vector rungs (anonymous namespace) and
// the kernel templates instantiated over them.  What was included first
// keeps its baseline target wherever it is instantiated, so no AVX-512
// code can leave the table as a shared inline and run on a host without
// it.  Clang has no such pragma; the
// root CMakeLists gives this file -mavx512f instead.  When neither
// applies the table compiles away and dispatch skips it.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <type_traits>
#include <utility>

#include "exec/kernels_dispatch.hpp"

// g++ lexes the whole file before it applies the pragma, so the pragma
// does not define __AVX512F__ for the guard below.
#if defined(__GNUC__) && !defined(__clang__) && \
    (defined(__x86_64__) || defined(__i386__))
#pragma GCC target("avx512f,avx2,fma")
#define RT3_AVX512_TABLE 1
#elif defined(__AVX512F__) && defined(__AVX2__) && defined(__FMA__)
#define RT3_AVX512_TABLE 1
#endif

#if defined(RT3_AVX512_TABLE)

#include <immintrin.h>

#include "exec/kernels_inner.hpp"

namespace rt3 {
namespace {

/// 512-bit FMA lanes.
struct VecAvx512 {
  static constexpr std::int64_t kWidth = 16;
  /// Accumulator budget: half of the 32 zmm registers.
  static constexpr std::int64_t kAccumulators = 16;
  using Reg = __m512;
  static Reg load(const float* p) { return _mm512_loadu_ps(p); }
  static void store(float* p, Reg r) { _mm512_storeu_ps(p, r); }
  static Reg broadcast(float v) { return _mm512_set1_ps(v); }
  static Reg fma(Reg a, Reg b, Reg c) { return _mm512_fmadd_ps(a, b, c); }
};

// 4 x 4 tiles in one register: a psize-4 pattern call at 4 lanes (all
// of batch 1).  One tile's outputs are 16 floats, so one accumulator
// holds the whole tile, row r, column j at lane r * 4 + j; a tile
// column's X block (its 4 X rows of the 4 lanes) is one register too, at
// lane c * 4 + j.  Slot s of every row of a tile is then one masked FMA:
// the weights are a permute of the tile's slot values, the X operands a
// permute of the X block (PatternPlan::x_lanes), and the mask keeps the
// rows that have a slot s.  Each lane thus runs exactly pattern_chunk's
// terms in pattern_chunk's order (tiles ascending, then its row's
// slots), so the output is bitwise the AVX2 table's, non-finite X
// included.  It has no unroll factor: tile rows interleave instead.

/// Tile rows one sweep interleaves: their FMA chains hide each other's
/// latency, and they share each X block.
constexpr int kTileRows = 4;

/// A psize-4 plan's per-slot constants for S = its largest row_slots.
template <int S>
struct SlotLanes {
  /// Lane r * 4 + j: the index of row r's slot s in a tile's values.
  __m512i weight[S];
  /// The lanes of the rows that have a slot s.
  __mmask16 rows[S];
  /// A tile's slot_stride values.
  __mmask16 values;
};

template <int S>
SlotLanes<S> slot_lanes(const PatternPlan& plan) {
  SlotLanes<S> k;
  k.values = static_cast<__mmask16>((1U << plan.slot_stride) - 1U);
  for (int s = 0; s < S; ++s) {
    std::int32_t index[16] = {};
    unsigned rows = 0;
    std::int64_t offset = 0;  // row r's first slot
    for (int r = 0; r < 4; ++r) {
      const std::int64_t slots = plan.row_slots[static_cast<std::size_t>(r)];
      if (s < slots) {
        for (int j = 0; j < 4; ++j) {
          index[r * 4 + j] = static_cast<std::int32_t>(offset + s);
        }
        rows |= 0xFU << (r * 4);
      }
      offset += slots;
    }
    k.weight[s] = _mm512_loadu_si512(index);
    k.rows[s] = static_cast<__mmask16>(rows);
  }
  return k;
}

/// One row of a tile's X block: zero past the cmax rows inside the
/// matrix, which no slot reads.
[[gnu::always_inline]] inline __m128 x_row(const float* xt, std::int64_t ldx,
                                           std::int64_t c,
                                           std::int64_t cmax) {
  return c < cmax ? _mm_loadu_ps(xt + c * ldx) : _mm_setzero_ps();
}

/// The X block of the tile column whose first X row is xt.
[[gnu::always_inline]] inline __m512 x_block(const float* xt,
                                             std::int64_t ldx,
                                             std::int64_t cmax) {
  if (ldx == 4 && cmax == 4) {
    return _mm512_loadu_ps(xt);
  }
  __m512 b = _mm512_castps128_ps512(x_row(xt, ldx, 0, cmax));
  b = _mm512_insertf32x4(b, x_row(xt, ldx, 1, cmax), 1);
  b = _mm512_insertf32x4(b, x_row(xt, ldx, 2, cmax), 2);
  return _mm512_insertf32x4(b, x_row(xt, ldx, 3, cmax), 3);
}

/// Tile rows [tr, tr + G) across every tile column.
template <int S, int G>
void tile4_sweep(const PatternRangeArgs& a, const SlotLanes<S>& k,
                 std::int64_t tr) {
  const PatternPlan& plan = *a.plan;
  const std::int64_t stride = plan.slot_stride;
  const std::int32_t* tiles = plan.tiles.data() + tr * plan.tiles_c;
  const float* values = plan.slot_values.data() + tr * plan.tiles_c * stride;
  __m512 acc[G];
  inner::unrolled<G>([&](auto g) { acc[g] = _mm512_setzero_ps(); });
  const float* xt = a.x;
  for (std::int64_t tc = 0; tc < plan.tiles_c; ++tc, xt += 4 * a.ldx) {
    const __m512 xb =
        x_block(xt, a.ldx, std::min<std::int64_t>(4, plan.cols - tc * 4));
    __m512 v[G];
    const std::int32_t* lanes[G];
    inner::unrolled<G>([&](auto g) {
      const std::int64_t t = g * plan.tiles_c + tc;
      v[g] = _mm512_maskz_loadu_ps(k.values, values + t * stride);
      lanes[g] = plan.x_lanes.data() + std::int64_t{tiles[t]} * (S * 16);
    });
    inner::unrolled<S>([&](auto s) {
      const __mmask16 rows = k.rows[s];
      inner::unrolled<G>([&](auto g) {
        const __m512 w = _mm512_maskz_permutexvar_ps(rows, k.weight[s], v[g]);
        const __m512 x = _mm512_maskz_permutexvar_ps(
            rows, _mm512_loadu_si512(lanes[g] + s * 16), xb);
        acc[g] = _mm512_mask3_fmadd_ps(w, x, acc[g], rows);
      });
    });
  }
  inner::unrolled<G>([&](auto g) {
    const std::int64_t row0 = (tr + g) * 4;
    const std::int64_t rmax = std::min<std::int64_t>(4, plan.rows - row0);
    float* o = a.out + row0 * a.ldo;
    // Row r's lanes r * 4 .. r * 4 + 3 land at output row r.
    for (std::int64_t r = 0; r < rmax; ++r) {
      _mm512_mask_storeu_ps(o + r * (a.ldo - 4),
                            static_cast<__mmask16>(0xFU << (r * 4)), acc[g]);
    }
  });
}

template <int S>
void tile4_rows(const PatternRangeArgs& a, std::int64_t tr,
                std::int64_t tr_end) {
  const SlotLanes<S> k = slot_lanes<S>(*a.plan);
  for (; tr + kTileRows <= tr_end; tr += kTileRows) {
    tile4_sweep<S, kTileRows>(a, k, tr);
  }
  switch (tr_end - tr) {
    case 3:
      tile4_sweep<S, 3>(a, k, tr);
      return;
    case 2:
      tile4_sweep<S, 2>(a, k, tr);
      return;
    case 1:
      tile4_sweep<S, 1>(a, k, tr);
      return;
    default:
      return;
  }
}

/// KernelTable::pattern_tile4_range.  The plan has x_lanes, so psize 4
/// and a largest row_slots S in [1, 4].
void pattern_tile4_range(const PatternRangeArgs& a, std::int64_t row0,
                         std::int64_t row1) {
  const PatternPlan& plan = *a.plan;
  const std::int64_t tr = row0 / 4;
  const std::int64_t tr_end = (row1 + 3) / 4;
  switch (*std::max_element(plan.row_slots.begin(), plan.row_slots.end())) {
    case 1:
      tile4_rows<1>(a, tr, tr_end);
      return;
    case 2:
      tile4_rows<2>(a, tr, tr_end);
      return;
    case 3:
      tile4_rows<3>(a, tr, tr_end);
      return;
    default:
      tile4_rows<4>(a, tr, tr_end);
  }
}

}  // namespace

// Narrower rungs compiled in this file would still carry 512-bit
// instructions (stack zeroing, moves of xmm16-31: the compiler mixes them
// in under this target), and while one is in flight a Xeon issues vector
// FMAs on one port instead of two: on a Sapphire Rapids host batch 1 ran
// ~15% slower on them than on the AVX2 table.  So the ladder stops at
// whole 16-lane vectors and the AVX2 table, compiled without AVX-512,
// runs the rest.  Both tables run the same bodies, so the outputs are
// identical.  The one exception is the 4 x 4 tile body above, which is
// 512-bit throughout.
const KernelTable* avx512_kernel_table() {
  static constexpr KernelTable table = [] {
    KernelTable t =
        inner::make_kernel_table<VecAvx512>("avx512", &avx2_kernel_table);
    t.pattern_tile4_range = &pattern_tile4_range;
    return t;
  }();
  return &table;
}

}  // namespace rt3

#else  // toolchain cannot emit AVX-512F for this file

namespace rt3 {

const KernelTable* avx512_kernel_table() { return nullptr; }

}  // namespace rt3

#endif
