// x86 vector rungs shared by the AVX2 and AVX-512 kernel tables.
//
// Include only from a kernel-table translation unit, with that TU's ISA
// enabled.  The types sit in an anonymous namespace on purpose: every
// including TU gets its own internal-linkage copy, so every template
// instantiated over them (the whole ladder) is compiled for that TU's ISA
// alone and is never merged, as a shared inline, into code that runs on
// a narrower host.
#pragma once

#include <immintrin.h>

#include <cmath>
#include <cstdint>

namespace rt3 {
namespace {

/// 256-bit FMA lanes.  _mm256_fmadd_ps rounds once per lane per step,
/// exactly like std::fma.
struct VecAvx2 {
  static constexpr std::int64_t kWidth = 8;
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

/// Single lanes through std::fma: the ladder's last rung, a TU-local
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
}  // namespace rt3
