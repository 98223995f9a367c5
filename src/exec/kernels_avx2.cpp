// AVX2 + FMA kernel table (width 8; narrower rungs 4 and 1).  This
// translation unit is compiled with -mavx2 -mfma (see CMakeLists); when
// the toolchain or target cannot do that the guard below compiles the
// table away and dispatch skips it.  Every FMA rounds once per lane per
// step, exactly like std::fma, which is what keeps this table bitwise
// equal to the scalar reference lane-wise.
#include "exec/kernels_dispatch.hpp"

#if defined(__AVX2__) && defined(__FMA__)

#include <immintrin.h>

#include <cmath>
#include <cstdint>

#include "exec/kernels_inner.hpp"

namespace rt3 {
namespace {

// The rungs sit in an anonymous namespace on purpose: every template
// instantiated over them (the whole ladder) is then local to this file,
// compiled for its ISA alone, and never merged, as a shared inline, into
// code that runs on a host without AVX2.

/// 256-bit FMA lanes.  _mm256_fmadd_ps rounds once per lane per step,
/// exactly like std::fma.
struct VecAvx2 {
  static constexpr std::int64_t kWidth = 8;
  /// Accumulator budget: half of the 16 ymm registers.
  static constexpr std::int64_t kAccumulators = 8;
  using Reg = __m256;
  static Reg load(const float* p) { return _mm256_loadu_ps(p); }
  static void store(float* p, Reg r) { _mm256_storeu_ps(p, r); }
  static Reg broadcast(float v) { return _mm256_set1_ps(v); }
  static Reg fma(Reg a, Reg b, Reg c) { return _mm256_fmadd_ps(a, b, c); }
};

/// 128-bit FMA lanes: batch 1 is 4 lanes.
struct VecSse {
  static constexpr std::int64_t kWidth = 4;
  using Reg = __m128;
  static Reg load(const float* p) { return _mm_loadu_ps(p); }
  static void store(float* p, Reg r) { _mm_storeu_ps(p, r); }
  static Reg broadcast(float v) { return _mm_set1_ps(v); }
  static Reg fma(Reg a, Reg b, Reg c) { return _mm_fmadd_ps(a, b, c); }
};

/// Single lanes through std::fma: the ladder's last rung, a file-local
/// twin of inner::VecScalar for the reason above.
struct VecLane {
  static constexpr std::int64_t kWidth = 1;
  using Reg = float;
  static Reg load(const float* p) { return *p; }
  static void store(float* p, Reg r) { *p = r; }
  static Reg broadcast(float v) { return v; }
  static Reg fma(Reg a, Reg b, Reg c) { return std::fma(a, b, c); }
};

}  // namespace

const KernelTable* avx2_kernel_table() {
  static constexpr KernelTable table =
      inner::make_kernel_table<VecAvx2, VecSse, VecLane>("avx2");
  return &table;
}

}  // namespace rt3

#else  // toolchain cannot emit AVX2+FMA for this file

namespace rt3 {

const KernelTable* avx2_kernel_table() { return nullptr; }

}  // namespace rt3

#endif
