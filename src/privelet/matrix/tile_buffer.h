// TileBuffer: block-transposes a panel of B contiguous lines along any
// axis of a FrequencyMatrix into contiguous scratch, and scatters it back.
// The out-of-core route of the line engine (see matrix/engine.h), whose
// Gather/Scatter pace residency per axis step.
//
// Panel layout ("interleaved"): element k of panel line b lives at
// panel[k * count + b]. Consecutive line indices along an axis with stride
// S > 1 have consecutive base addresses (runs of up to S lines), so one
// panel row k is a handful of contiguous run copies from the matrix —
// gathering B lines costs line_len * B contiguous traffic instead of
// line_len * B strided single-element loads. The layout is the batched
// Transform1D kernels' row-pitch layout with pitch == count.
//
// For the innermost axis (stride == 1) lines are already contiguous in the
// matrix; callers should address them in place rather than paying the
// element-wise transpose this class would degenerate to.
#ifndef PRIVELET_MATRIX_TILE_BUFFER_H_
#define PRIVELET_MATRIX_TILE_BUFFER_H_

#include <algorithm>
#include <cstddef>

#include "privelet/common/aligned_buffer.h"
#include "privelet/common/residency.h"
#include "privelet/matrix/frequency_matrix.h"

namespace privelet::matrix {

/// Decomposes lines [first, first + count) along an axis with the given
/// stride into maximal runs of lines with consecutive base addresses
/// (lines sharing an outer block of `stride * axis_dim` elements), calling
/// fn(base, col, run) per run: `base` is the flat index of the run's first
/// line, `col` its offset within [first, first + count), `run` its length
/// (<= stride). The shared geometry under TileBuffer's panel copies and
/// PrefixSumTable's tiled running sums.
template <typename Fn>
void ForEachLineRun(std::size_t stride, std::size_t axis_dim,
                    std::size_t first, std::size_t count, Fn&& fn) {
  std::size_t line = first;
  std::size_t col = 0;
  while (col < count) {
    const std::size_t run = std::min(count - col, stride - (line % stride));
    const std::size_t base =
        (line / stride) * (stride * axis_dim) + (line % stride);
    fn(base, col, run);
    line += run;
    col += run;
  }
}

class TileBuffer {
 public:
  /// Grows the panel to hold `count` lines of `line_len` elements and
  /// returns its storage (64-byte aligned, so the vector kernels operate
  /// on aligned panels). Never shrinks, so pooled buffers stop allocating
  /// once they have seen the largest panel. Contents are unspecified
  /// after a growing call — every consumer gathers or writes the panel
  /// before reading it.
  double* Prepare(std::size_t line_len, std::size_t count);

  /// Gathers lines [first, first + count) of `m` along `axis` into the
  /// panel in interleaved layout. Requires first + count <= m.NumLines(axis).
  ///
  /// A non-null `governor` is charged the page-granular bytes each axis
  /// step touches, *as the step happens*. A strided panel maps one page of
  /// `m` per step — axis_dim pages before the copy loop finishes — so
  /// out-of-core callers must pace releases inside the loop or the panel
  /// blows through any byte budget before an end-of-panel charge could
  /// fire. Releasing mid-gather is safe: evicted pages re-fault from the
  /// page cache with their values intact.
  void Gather(const FrequencyMatrix& m, std::size_t axis, std::size_t first,
              std::size_t count,
              common::ResidencyGovernor* governor = nullptr);

  /// Writes the panel (same geometry as the matching Gather/Prepare) into
  /// lines [first, first + count) of `m` along `axis`. The panel must hold
  /// m.dim(axis) * count elements. `governor` paces releases per axis step
  /// exactly as in Gather (dirty pages survive MADV_DONTNEED on the shared
  /// scratch mappings release-behind targets).
  void Scatter(FrequencyMatrix& m, std::size_t axis, std::size_t first,
               std::size_t count,
               common::ResidencyGovernor* governor = nullptr) const;

  double* panel() { return panel_.data(); }
  const double* panel() const { return panel_.data(); }

 private:
  common::AlignedBuffer<double> panel_;
};

}  // namespace privelet::matrix

#endif  // PRIVELET_MATRIX_TILE_BUFFER_H_
