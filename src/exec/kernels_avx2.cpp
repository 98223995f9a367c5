// AVX2 + FMA kernel table (width 8; narrower rungs 4 and 1).  This
// translation unit is compiled with -mavx2 -mfma (see CMakeLists); when
// the toolchain or target cannot do that the guard below compiles the
// table away and dispatch skips it.  Every FMA rounds once per lane per
// step, exactly like std::fma, which is what keeps this table bitwise
// equal to the scalar reference lane-wise.
#include "exec/kernels_dispatch.hpp"

#if defined(__AVX2__) && defined(__FMA__)

#include "exec/kernels_inner.hpp"
#include "exec/kernels_x86.hpp"

namespace rt3 {

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
