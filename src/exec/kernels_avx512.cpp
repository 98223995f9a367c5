// AVX-512F kernel table (width 16, no narrower rungs: the lanes past the
// last whole 16-lane vector, and every lane of a call narrower than 16,
// run on the AVX2 table; see below).  _mm512_fmadd_ps rounds once per
// lane per step, exactly like std::fma, which is what keeps this table
// bitwise equal to the scalar reference lane-wise.
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
  using Reg = __m512;
  static Reg load(const float* p) { return _mm512_loadu_ps(p); }
  static void store(float* p, Reg r) { _mm512_storeu_ps(p, r); }
  static Reg broadcast(float v) { return _mm512_set1_ps(v); }
  static Reg fma(Reg a, Reg b, Reg c) { return _mm512_fmadd_ps(a, b, c); }
};

}  // namespace

// Narrower rungs compiled in this file would still carry 512-bit
// instructions (stack zeroing, moves of xmm16-31: the compiler mixes them
// in under this target), and while one is in flight a Xeon issues vector
// FMAs on one port instead of two: on a Sapphire Rapids host batch 1 ran
// ~15% slower on them than on the AVX2 table.  So the ladder stops at
// whole 16-lane vectors and the AVX2 table, compiled without AVX-512,
// runs the rest.  Both tables run the same bodies, so the outputs are
// identical.
const KernelTable* avx512_kernel_table() {
  static constexpr KernelTable table =
      inner::make_kernel_table<VecAvx512>("avx512", &avx2_kernel_table);
  return &table;
}

}  // namespace rt3

#else  // toolchain cannot emit AVX-512F for this file

namespace rt3 {

const KernelTable* avx512_kernel_table() { return nullptr; }

}  // namespace rt3

#endif
