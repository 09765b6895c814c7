// Engine options for the layout-aware line traversal shared by the matrix,
// wavelet, mechanism, and query layers. Every multi-dimensional pass in the
// library (HN transform axes, prefix-sum axes) is a sweep of independent
// 1-D lines. Lines along the contiguous last axis are walked in place. A
// strided axis runs each transform's one batched kernel per direction
// (Transform1D::ForwardLines/InverseLines, element k of line b at
// data[b + k * pitch]) by one of two routes: in core on the matrices
// themselves (pitch = the axis stride), out of core on panels of
// kTileLines lines that matrix::TileBuffer gathers into contiguous scratch
// (pitch = the panel width) and scatters back, pacing residency per axis
// step. Either way the inner loops run unit-stride over adjacent lines and
// the passes stream through memory instead of thrashing the cache.
//
// Each line undergoes the same floating-point operations as a per-line
// gather → transform → scatter walk (tests/reference/per_line_engine.h),
// so for any fixed seed the published matrices are bit-identical across
// thread counts, ISA levels, and memory budgets.
#ifndef PRIVELET_MATRIX_ENGINE_H_
#define PRIVELET_MATRIX_ENGINE_H_

#include <cstddef>
#include <string>

namespace privelet::matrix {

/// Panel width B of the contiguous-axis walk and the gathered out-of-core
/// panels: 64 lines keeps gather/scatter run copies at one or more full
/// cache lines for every axis stride >= 64 while the panel of a 1024-wide
/// axis still fits in L2.
inline constexpr std::size_t kTileLines = 64;

/// The out-of-core memory budget. It is a property of where the data
/// lives: FrequencyMatrix::CreateScratch and FromTable(table, options)
/// record it in the scratch-backed matrix they return, and everything
/// downstream follows its input — HN passes over a scratch matrix write
/// scratch intermediates under the same budget and directory, a
/// PrefixSumTable adopting a scratch release paces its build by it, and
/// storage::SaveSession paces the write of such a table. A vector-backed
/// matrix carries the default (no budget).
struct EngineOptions {
  /// Out-of-core budget in bytes. 0 (the default) keeps every matrix in
  /// an owned vector (the in-core engine). When > 0, matrices live in
  /// unlinked mmap scratch files and each streaming pass releases
  /// residency behind itself, bounding peak RSS by roughly this budget.
  /// Purely a memory knob: the arithmetic is untouched, so releases are
  /// bit-identical to the in-core engine (see docs/DETERMINISM.md) —
  /// which is also why it is deliberately NOT serialized into snapshots.
  std::size_t max_memory_bytes = 0;
  /// Directory for scratch files when max_memory_bytes > 0; empty means
  /// $TMPDIR (falling back to /tmp).
  std::string scratch_dir;

  bool out_of_core() const { return max_memory_bytes > 0; }
};

}  // namespace privelet::matrix

#endif  // PRIVELET_MATRIX_ENGINE_H_
