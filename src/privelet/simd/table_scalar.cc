// The scalar kernel table: portable_kernels.h at the library's baseline
// target flags, the level every host runs.
#include "privelet/simd/portable_kernels.h"

namespace privelet::simd {

const KernelTable* ScalarKernels() {
  static constexpr KernelTable kTable = MakeKernelTable(IsaLevel::kScalar);
  return &kTable;
}

}  // namespace privelet::simd
