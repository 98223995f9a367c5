// Portable scalar kernel table: the lane-wise reference implementation
// every SIMD table must match bitwise, and the fallback on hosts without
// a compiled vector ISA.
#include "exec/kernels_dispatch.hpp"
#include "exec/kernels_inner.hpp"

namespace rt3 {

const KernelTable* scalar_kernel_table() {
  static constexpr KernelTable table =
      inner::make_kernel_table<inner::VecScalar>("scalar");
  return &table;
}

}  // namespace rt3
