// NEON kernel table (width 4; narrower rung 1) for aarch64 — the paper's
// actual mobile target class.  vfmaq_f32 is a per-lane fused
// multiply-add with a single rounding, so the table is bitwise equal to
// the scalar reference lane-wise.  aarch64 mandates NEON, so no runtime
// probe is needed; on other architectures the table is absent.
#include "exec/kernels_dispatch.hpp"

#if defined(__aarch64__)

#include <arm_neon.h>

#include "exec/kernels_inner.hpp"

namespace rt3 {
namespace {

struct VecNeon {
  static constexpr std::int64_t kWidth = 4;
  /// Accumulator budget: half of the 32 q registers.
  static constexpr std::int64_t kAccumulators = 16;
  using Reg = float32x4_t;
  static Reg load(const float* p) { return vld1q_f32(p); }
  static void store(float* p, Reg r) { vst1q_f32(p, r); }
  static Reg broadcast(float v) { return vdupq_n_f32(v); }
  static Reg fma(Reg a, Reg b, Reg c) { return vfmaq_f32(c, a, b); }
};

}  // namespace

const KernelTable* neon_kernel_table() {
  static constexpr KernelTable table =
      inner::make_kernel_table<VecNeon, inner::VecScalar>("neon");
  return &table;
}

}  // namespace rt3

#else

namespace rt3 {

const KernelTable* neon_kernel_table() { return nullptr; }

}  // namespace rt3

#endif
