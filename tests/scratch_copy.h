// A scratch-backed copy of a matrix under a memory budget: the input that
// makes a publish run out of core (the transform passes, the release and
// its prefix table all follow the input's storage and budget).
#ifndef PRIVELET_TESTS_SCRATCH_COPY_H_
#define PRIVELET_TESTS_SCRATCH_COPY_H_

#include <algorithm>
#include <cstddef>
#include <utility>

#include "privelet/common/check.h"
#include "privelet/matrix/engine.h"
#include "privelet/matrix/frequency_matrix.h"

namespace privelet::testutil {

inline matrix::FrequencyMatrix ScratchCopy(const matrix::FrequencyMatrix& m,
                                           std::size_t budget_bytes) {
  matrix::EngineOptions options;
  options.max_memory_bytes = budget_bytes;
  auto scratch = matrix::FrequencyMatrix::CreateScratch(m.dims(), options);
  PRIVELET_CHECK(scratch.ok(), scratch.status().ToString());
  std::copy(m.values().begin(), m.values().end(), scratch->values().begin());
  return std::move(*scratch);
}

}  // namespace privelet::testutil

#endif  // PRIVELET_TESTS_SCRATCH_COPY_H_
