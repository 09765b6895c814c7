// Runtime CPU dispatch for the vector kernel layer (privelet/simd). The
// hot inner loops of the library — Haar butterfly levels, the
// counter-based Laplace draws, and the row combines of the nominal
// transform and the prefix-table build — are one C++ source built at
// up to three levels (scalar, AVX2, AVX-512), selected at runtime from
// one function table per level (see simd/kernels.h).
//
// Determinism contract (docs/DETERMINISM.md, "ISA levels"): every level's
// kernels reproduce the scalar fold bit-for-bit, so the level — like the
// thread count and memory budget — is purely a performance knob.
// Selection order:
//   1. the PRIVELET_ISA environment variable ("scalar", "avx2",
//      "avx512"; unknown values are ignored), clamped to what the host
//      runs;
//   2. the best level both compiled into the binary and CPUID-supported.
#ifndef PRIVELET_SIMD_DISPATCH_H_
#define PRIVELET_SIMD_DISPATCH_H_

#include <string_view>

namespace privelet::simd {

/// Kernel instruction-set levels, ordered: a higher level strictly extends
/// the feature set of the ones below it. kAvx512 requires AVX-512 F+DQ+VL.
enum class IsaLevel : int {
  kScalar = 0,
  kAvx2 = 1,
  kAvx512 = 2,
};

/// Best level both compiled into this binary and supported by the CPU.
/// Probed once (CPUID via __builtin_cpu_supports) and cached.
IsaLevel DetectBestIsa();

/// The level the kernels run at: PRIVELET_ISA when it names a level, else
/// the best level the host supports. A request beyond the host's
/// capability is clamped down, never rejected: forcing "avx512" on an
/// AVX2 host runs the AVX2 kernels, which is safe because all levels are
/// bit-identical. Re-reads PRIVELET_ISA on every call (cheap; lets tests
/// setenv between publishes).
IsaLevel ResolveIsa();

/// "scalar" / "avx2" / "avx512".
std::string_view IsaLevelName(IsaLevel level);

/// Parses an IsaLevelName (the PRIVELET_ISA vocabulary). Returns false and
/// leaves *out untouched on unknown names.
bool ParseIsaLevel(std::string_view name, IsaLevel* out);

/// Comma-separated probed CPU vector features for bench/STATS attribution
/// (e.g. "avx2,avx512f,avx512dq,avx512vl"); "none" when the host has no
/// vector extension the dispatcher cares about.
std::string_view CpuFeatureString();

}  // namespace privelet::simd

#endif  // PRIVELET_SIMD_DISPATCH_H_
