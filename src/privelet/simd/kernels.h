// The dispatched kernel table: one set of function pointers per IsaLevel
// covering the library's hot inner loops. Selection happens through
// simd::Kernels(ResolveIsa(...)); the callers (haar.cc, nominal.cc,
// noise.cc, prefix_sum.h) never test CPU features themselves.
//
// Bit-identity by construction: every entry performs, per output element,
// exactly the floating-point operations of the scalar kernel. The lanes of
// each kernel are independent data items — panel lines, butterflies of one
// level, or consecutive stream draws — so vectorizing across them never
// reorders any per-item operation sequence. Operations that cannot keep
// that promise are not in the table and stay scalar at every level:
// libm's log (no bit-compatible vector version exists) and running sums
// along a line (the prefix table's last-axis scan, a serial dependency).
#ifndef PRIVELET_SIMD_KERNELS_H_
#define PRIVELET_SIMD_KERNELS_H_

#include <cstddef>
#include <cstdint>

#include "privelet/simd/dispatch.h"

namespace privelet::simd {

struct KernelTable {
  IsaLevel level;

  // ---- Haar butterflies over an interleaved panel (lane b = line b) ----
  //   detail[b] = (left[b] - right[b]) / 2;  avg[b] = (left[b] + right[b]) / 2
  // `avg` may alias `left` (each lane is loaded before either store).
  void (*haar_forward_step)(const double* left, const double* right,
                            double* detail, double* avg, std::size_t count);
  //   right[b] = avg[b] - detail[b];  left[b] = avg[b] + detail[b]
  // `left` may alias `avg` (same load-before-store discipline).
  void (*haar_inverse_step)(const double* avg, const double* detail,
                            double* left, double* right, std::size_t count);

  // ---- Haar butterflies within one line (lane i = butterfly i) ----------
  // One forward level, in place over `line`:
  //   detail[i] = (line[2i] - line[2i+1]) / 2
  //   line[i]   = (line[2i] + line[2i+1]) / 2        for i in [0, half)
  // Ascending blocks are safe: block writes at [i, i+w) never reach the
  // pending reads at [2i', 2i'+2w) of later blocks.
  void (*haar_forward_level)(double* line, double* detail, std::size_t half);
  // One inverse level, expanding in place:
  //   line[2i] = line[i] + detail[i]; line[2i+1] = line[i] - detail[i]
  // Processed i = half-1 .. 0 (descending) so the expansion never clobbers
  // a pending read.
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

  // ---- Element-wise row combines (nominal panels, prefix-table passes) --
  void (*row_add)(double* acc, const double* row, std::size_t count);
  void (*row_sub)(double* row, const double* sub, std::size_t count);
  void (*row_div)(double* row, double divisor, std::size_t count);
  // out[b] = a[b] + b_[b] / divisor  (the nominal top-down reconstruction)
  void (*row_add_div)(double* out, const double* a, const double* b_,
                      double divisor, std::size_t count);
  // out[b] = a[b] - b_[b] / divisor  (the nominal forward detail)
  void (*row_sub_div)(double* out, const double* a, const double* b_,
                      double divisor, std::size_t count);
  // acc[b] += scale * row[b], rounded like the scalar expression (separate
  // multiply and add — never an FMA, which would round once instead of
  // twice and change bits).
  void (*row_add_scaled)(double* acc, const double* row, double scale,
                         std::size_t count);

  // ---- Laplace inverse-CDF front half -----------------------------------
  // From a batch of raw 64-bit generator outputs, computes per draw the
  // quantities the scalar SampleLaplace derives before its log call. With
  //   v = (double)(raw[i] >> 11), u = (v + 1.0) * 0x1.0p-53 - 0.5:
  //   tail[i]     = max(1.0 - 2.0 * |u|, 1e-300)
  //   neg_sign[i] = (u >= 0.0) ? -1.0 : 1.0
  // Every operation here is exact in IEEE double (integer-to-double of
  // values < 2^53, power-of-two scales, cancellation-free subtractions),
  // so all levels produce identical bits. The back half — unit draw =
  // neg_sign * log(tail) — runs in one shared scalar loop over libm.
  void (*laplace_tail)(const std::uint64_t* raw, double* tail,
                       double* neg_sign, std::size_t n);

  // ---- int64 prefix-sum kernel ------------------------------------------
  // Integer addition is associative, so any lane split is bit-identical.
  void (*prefix_rows_add_i64)(std::int64_t* curr, const std::int64_t* prev,
                              std::size_t run);  // curr[b] += prev[b]
};

/// The kernel table for an already-resolved level (see ResolveIsa). Always
/// returns a fully populated table: levels not compiled into the binary
/// fall back to the next lower compiled level.
const KernelTable& Kernels(IsaLevel level);

// Per-TU table factories; return nullptr when that ISA path was compiled
// out (missing compiler flag support or non-x86 target). Internal to
// dispatch.cc.
const KernelTable* ScalarKernels();
const KernelTable* Avx2Kernels();
const KernelTable* Avx512Kernels();

}  // namespace privelet::simd

#endif  // PRIVELET_SIMD_KERNELS_H_
