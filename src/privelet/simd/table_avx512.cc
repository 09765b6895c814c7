// The AVX-512 kernel table: portable_kernels.h built with -mavx512f
// -mavx512dq -mavx512vl (see src/CMakeLists.txt). Only reached after
// dispatch.cc's CPUID probe; a compiler without the flags builds a factory
// that returns nullptr.
#include "privelet/simd/portable_kernels.h"

namespace privelet::simd {

const KernelTable* Avx512Kernels() {
#if defined(__AVX512F__) && defined(__AVX512DQ__) && defined(__AVX512VL__)
  static constexpr KernelTable kTable = MakeKernelTable(IsaLevel::kAvx512);
  return &kTable;
#else
  return nullptr;
#endif
}

}  // namespace privelet::simd
