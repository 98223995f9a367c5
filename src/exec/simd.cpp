#include "exec/simd.hpp"

#include <thread>

#include "common/check.hpp"
#include "exec/kernels_dispatch.hpp"

namespace rt3 {
namespace {

constexpr SimdIsa kIsas[] = {SimdIsa::kScalar, SimdIsa::kNeon,
                             SimdIsa::kAvx2, SimdIsa::kAvx512};

/// Whether this CPU (and OS) executes the ISA's instructions.
bool host_executes(SimdIsa isa) {
  switch (isa) {
    case SimdIsa::kScalar:
      return true;
    case SimdIsa::kNeon:
#if defined(__aarch64__)
      return true;  // aarch64 mandates NEON
#else
      return false;
#endif
    case SimdIsa::kAvx2:
    case SimdIsa::kAvx512:
#if defined(__x86_64__) || defined(__i386__)
      // The AVX-512 table's narrower rungs are AVX2 and FMA code.
      return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma") &&
             (isa == SimdIsa::kAvx2 || __builtin_cpu_supports("avx512f"));
#else
      return false;
#endif
  }
  return false;
}

/// The widest supported ISA: kIsas ascends by width, so the last one.
SimdIsa detect_once() {
  SimdIsa widest = SimdIsa::kScalar;
  for (SimdIsa isa : kIsas) {
    if (simd_isa_supported(isa)) {
      widest = isa;
    }
  }
  return widest;
}

SimdIsa& active_isa_slot() {
  static SimdIsa active = detect_once();
  return active;
}

}  // namespace

const char* simd_isa_name(SimdIsa isa) {
  switch (isa) {
    case SimdIsa::kScalar:
      return "scalar";
    case SimdIsa::kNeon:
      return "neon";
    case SimdIsa::kAvx2:
      return "avx2";
    case SimdIsa::kAvx512:
      return "avx512";
  }
  return "unknown";
}

SimdIsa simd_isa_from_name(const std::string& name) {
  for (SimdIsa isa : kIsas) {
    if (name == simd_isa_name(isa)) {
      return isa;
    }
  }
  throw CheckError("unknown SIMD ISA: " + name);
}

bool simd_isa_supported(SimdIsa isa) {
  return host_executes(isa) && built_kernel_table(isa) != nullptr;
}

SimdIsa detect_simd_isa() {
  static const SimdIsa detected = detect_once();
  return detected;
}

SimdIsa active_simd_isa() { return active_isa_slot(); }

void set_simd_isa(SimdIsa isa) {
  check(simd_isa_supported(isa),
        std::string("set_simd_isa: host cannot execute ") +
            simd_isa_name(isa));
  active_isa_slot() = isa;
}

std::int64_t simd_isa_width(SimdIsa isa) {
  switch (isa) {
    case SimdIsa::kScalar:
      return 1;
    case SimdIsa::kNeon:
      return 4;
    case SimdIsa::kAvx2:
      return 8;
    case SimdIsa::kAvx512:
      return 16;
  }
  return 1;
}

std::int64_t cpu_cores() {
  const unsigned n = std::thread::hardware_concurrency();
  return n > 0 ? static_cast<std::int64_t>(n) : 1;
}

}  // namespace rt3
