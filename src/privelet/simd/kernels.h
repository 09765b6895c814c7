// The dispatched kernel table: one set of function pointers per IsaLevel
// covering the library's hot inner loops. Selection happens through
// simd::Kernels(ResolveIsa()); the callers (haar.cc, nominal.cc, the
// mechanisms' noise, prefix_sum.h) never test CPU features themselves.
//
// Every table is the same C++ source (portable_kernels.h) built at its
// level's target flags, so the levels are bit-identical by construction:
// each element goes through the same expression, without FMA contraction
// or fast-math, and the loops run over independent items (panel lines,
// butterflies of one level, ChaCha20 blocks and their draws) that the
// vectorizer never reassociates. No entry calls libm: the Laplace draws
// use the project's own rng::Log. Running sums along a line (the prefix
// table's last-axis scan, a serial dependency) are not in the table.
#ifndef PRIVELET_SIMD_KERNELS_H_
#define PRIVELET_SIMD_KERNELS_H_

#include <cstddef>
#include <cstdint>

#include "privelet/rng/laplace.h"
#include "privelet/simd/dispatch.h"

namespace privelet::simd {

struct KernelTable {
  IsaLevel level;

  // ---- Haar butterflies across the rows of a batched line kernel -------
  // (lane b = line b; Transform1D::ForwardLines/InverseLines)
  //   detail[b] = (left[b] - right[b]) / 2;  avg[b] = (left[b] + right[b]) / 2
  // `avg` may alias `left` (each lane is loaded before either store).
  void (*haar_forward_step)(const double* left, const double* right,
                            double* detail, double* avg, std::size_t count);
  //   right[b] = avg[b] - detail[b];  left[b] = avg[b] + detail[b]
  // `left` may alias `avg` (same load-before-store discipline). `left` may
  // also equal `right` when the caller discards both, as the padded Haar
  // inverse does with its padding rows: the lane then holds one of the two
  // results, and nothing reads it.
  void (*haar_inverse_step)(const double* avg, const double* detail,
                            double* left, double* right, std::size_t count);

  // ---- Haar butterflies within one line (lane i = butterfly i) ----------
  // One forward level, in place over `line` (every read sees the input):
  //   detail[i] = (line[2i] - line[2i+1]) / 2
  //   line[i]   = (line[2i] + line[2i+1]) / 2        for i in [0, half)
  void (*haar_forward_level)(double* line, double* detail, std::size_t half);
  // One inverse level, expanding in place (every read sees the input):
  //   line[2i] = line[i] + detail[i]; line[2i+1] = line[i] - detail[i]
  void (*haar_inverse_level)(double* line, const double* detail,
                             std::size_t half);
  // Out-of-place variants for the fused first forward / last inverse level
  // of a power-of-two line: same arithmetic as the in-place levels, but
  // reading from (writing to) a separate non-aliasing buffer, replacing
  // the line copy those levels would otherwise need.
  //   avg[i] = (src[2i] + src[2i+1]) / 2;  detail[i] = (src[2i] - src[2i+1]) / 2
  void (*haar_forward_level_split)(const double* src, double* avg,
                                   double* detail, std::size_t half);
  //   dst[2i] = avg[i] + detail[i];  dst[2i+1] = avg[i] - detail[i]
  void (*haar_inverse_level_expand)(const double* avg, const double* detail,
                                    double* dst, std::size_t half);

  // ---- Element-wise row combines (nominal lines, prefix-table passes) ---
  void (*row_add)(double* acc, const double* row, std::size_t count);
  void (*row_sub)(double* row, const double* sub, std::size_t count);
  void (*row_div)(double* row, double divisor, std::size_t count);
  // out[b] = a[b] + b_[b] / divisor  (the nominal top-down reconstruction)
  // `out` may alias `a` (each lane is loaded before it is stored), which
  // the nominal inverse uses to sum in place.
  void (*row_add_div)(double* out, const double* a, const double* b_,
                      double divisor, std::size_t count);
  // out[b] = a[b] - b_[b] / divisor  (the nominal forward detail)
  void (*row_sub_div)(double* out, const double* a, const double* b_,
                      double divisor, std::size_t count);
  // acc[b] += scale * row[b]: a separate multiply and add (never an FMA,
  // which would round once instead of twice and change bits).
  void (*row_add_scaled)(double* acc, const double* row, double scale,
                         std::size_t count);

  // ---- Counter-based Laplace draws ------------------------------------
  // out[j] = rng::LaplaceUnitAt(key, first + j) for j in [0, n): the
  // ChaCha20 blocks of 8 draws each run 16 at a time, one block per lane,
  // and the front half and rng::Log run across draws. A group of blocks
  // only partly inside [first, first + n) is computed whole and trimmed,
  // so a run of whole 128-draw groups from a multiple of 8 wastes
  // nothing. Every level compiles the per-index definition's own stages
  // (rng/laplace_stages.h), so it gives the same bits.
  void (*laplace_units)(const rng::NoiseKey& key, std::uint64_t first,
                        std::size_t n, double* out);
};

/// The kernel table for an already-resolved level (see ResolveIsa). Always
/// returns a fully populated table: levels not compiled into the binary
/// fall back to the next lower compiled level.
const KernelTable& Kernels(IsaLevel level);

// Per-level table factories (table_scalar.cc, table_avx2.cc,
// table_avx512.cc), the only external symbols of those objects; return
// nullptr when that level was compiled out (missing compiler flag support
// or non-x86 target). Internal to dispatch.cc.
const KernelTable* ScalarKernels();
const KernelTable* Avx2Kernels();
const KernelTable* Avx512Kernels();

}  // namespace privelet::simd

#endif  // PRIVELET_SIMD_KERNELS_H_
