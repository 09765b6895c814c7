// The AVX2 kernel table: portable_kernels.h built with -mavx2 (see
// src/CMakeLists.txt). Only reached after dispatch.cc's CPUID probe; a
// compiler without the flag builds a factory that returns nullptr.
#include "privelet/simd/portable_kernels.h"

namespace privelet::simd {

const KernelTable* Avx2Kernels() {
#if defined(__AVX2__)
  static constexpr KernelTable kTable = MakeKernelTable(IsaLevel::kAvx2);
  return &kTable;
#else
  return nullptr;
#endif
}

}  // namespace privelet::simd
