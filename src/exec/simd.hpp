// Runtime SIMD dispatch and core count for the kernel engine.
//
// The measured kernels vectorize the activation (j) dimension only: every
// output element still accumulates its k-terms in ascending order through
// a single fused-multiply-add chain, so a width-W vector kernel computes
// W independent scalar chains side by side.  Hardware FMA (AVX-512 and
// AVX2 vfmadd / NEON vfma) and std::fma all round once per step, which is
// what keeps the vector kernels BITWISE equal to the scalar reference
// lane-wise.
//
// Dispatch is resolved at runtime: x86 hosts probe AVX-512F, then
// AVX2+FMA, via CPUID; aarch64 always has NEON; everything else (or a
// forced override, see set_simd_isa) falls back to the portable scalar
// table.  Each vector table lives in its own translation unit that alone
// is built for its ISA (the AVX2 one with -mavx2 -mfma, the AVX-512 one
// through a target pragma); when the toolchain cannot produce a table it
// is absent and detection skips it.
#pragma once

#include <cstdint>
#include <string>

namespace rt3 {

/// Instruction sets the kernel engine can dispatch to.
enum class SimdIsa : std::uint8_t {
  kScalar,  // portable std::fma loops (always available)
  kNeon,    // aarch64 NEON, width 4
  kAvx2,    // x86 AVX2 + FMA, width 8
  kAvx512,  // x86 AVX-512F, width 16
};

const char* simd_isa_name(SimdIsa isa);
/// Parses "scalar" / "neon" / "avx2" / "avx512"; throws CheckError
/// otherwise.
SimdIsa simd_isa_from_name(const std::string& name);

/// True when this build has the ISA's kernel table and this host can
/// execute it (CPUID-probed).  Always true for kScalar.
bool simd_isa_supported(SimdIsa isa);

/// Widest ISA this host can actually execute (probed once).
SimdIsa detect_simd_isa();

/// The ISA kernels currently dispatch to.  Defaults to detect_simd_isa();
/// set_simd_isa() overrides it with any supported ISA (tests pit the
/// tables against each other; the scalar-vs-SIMD bench forces kScalar)
/// and throws CheckError if the host cannot execute `isa`.
SimdIsa active_simd_isa();
void set_simd_isa(SimdIsa isa);
/// Vector width (floats per register) of an ISA.
std::int64_t simd_isa_width(SimdIsa isa);

/// Hardware threads available for pinning (>= 1).
std::int64_t cpu_cores();

}  // namespace rt3
