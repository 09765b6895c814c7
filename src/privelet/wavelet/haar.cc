#include "privelet/wavelet/haar.h"

#include <algorithm>

#include "privelet/common/check.h"
#include "privelet/common/math_util.h"
#include "privelet/simd/kernels.h"

namespace privelet::wavelet {

HaarTransform::HaarTransform(std::size_t n) : n_(n) {
  PRIVELET_CHECK(n >= 1, "Haar input size must be >= 1");
  padded_ = NextPowerOfTwo(n);
  levels_ = FloorLog2(padded_);
  scratch_.resize(padded_);
  weights_.resize(padded_);
  weights_[0] = static_cast<double>(padded_);  // base coefficient
  for (std::size_t j = 1; j < padded_; ++j) {
    const std::size_t level = LevelOf(j);
    // WHaar = 2^(l - i + 1) for a level-i coefficient.
    weights_[j] = static_cast<double>(std::size_t{1} << (levels_ - level + 1));
  }
}

std::size_t HaarTransform::LevelOf(std::size_t j) {
  PRIVELET_CHECK(j >= 1, "base coefficient has no level");
  return FloorLog2(j) + 1;
}

void HaarTransform::Forward(const double* in, double* out) const {
  Forward(in, out, scratch_.data());
}

void HaarTransform::Forward(const double* in, double* out,
                            double* scratch) const {
  Forward(in, out, scratch, simd::ResolveIsa());
}

void HaarTransform::Forward(const double* in, double* out, double* scratch,
                            simd::IsaLevel isa) const {
  const simd::KernelTable& k = simd::Kernels(isa);
  // `scratch` holds the running subtree averages; each pass halves it and
  // emits the detail coefficients of the current (finest remaining) level
  // into their level-order slots [half, len). Power-of-two inputs fuse the
  // first level with the line copy: the split kernel reads `in` directly
  // and emits averages into scratch, so the full-length copy never
  // happens.
  std::size_t len = padded_;
  if (n_ == padded_ && padded_ > 1) {
    const std::size_t half = padded_ / 2;
    k.haar_forward_level_split(in, scratch, out + half, half);
    len = half;
  } else {
    std::copy(in, in + n_, scratch);
    std::fill(scratch + n_, scratch + padded_, 0.0);
  }
  for (; len > 1; len /= 2) {
    const std::size_t half = len / 2;
    k.haar_forward_level(scratch, out + half, half);
  }
  out[0] = scratch[0];
}

void HaarTransform::ForwardLines(std::size_t count, const double* in,
                                 double* out, std::size_t pitch,
                                 double* scratch, simd::IsaLevel isa) const {
  if (padded_ == 1) {
    std::copy(in, in + count, out);
    return;
  }
  const simd::KernelTable& k = simd::Kernels(isa);
  // The first sweep reads the input rows directly; every level writes its
  // detail rows straight into the output. Only the ladder of running
  // averages lives in scratch, at a pitch of count + kRowPad: a dense
  // pitch of exactly `count` puts consecutive ladder rows a page multiple
  // apart whenever 8 * count is one, and the resulting store-to-load 4K
  // aliasing between a level's avg stores and the next level's loads
  // serializes the ladder. One extra vector of slack keeps rows 64-byte
  // aligned while breaking the page-offset collision.
  //
  // Levels run in fused pairs: one sweep consumes 4 rows, emits the two
  // finer detail rows plus the coarser one, and stages the intermediate
  // half-level averages in two reused (cache-hot) tmp rows instead of
  // materializing that ladder level — per line the butterflies are the
  // same kernel ops on the same values, only their store addresses
  // change, so fusing cannot change a bit. This cuts ladder traffic by a
  // third and keeps the resident ladder at a quarter line.
  const std::size_t sp = count + kRowPad;
  double* tmp0 = scratch + (padded_ / 4) * sp;
  double* tmp1 = tmp0 + sp;
  double* zero = tmp1 + sp;  // what the padding rows [n_, padded_) read
  if (n_ < padded_) std::fill(zero, zero + count, 0.0);
  std::size_t len = padded_;
  bool from_in = true;
  auto row = [&](std::size_t r) -> const double* {
    if (!from_in) return scratch + r * sp;
    return r < n_ ? in + r * pitch : zero;
  };
  while (len > 1) {
    const std::size_t half = len / 2;
    if (len >= 4) {
      const std::size_t quarter = len / 4;
      for (std::size_t i = 0; i < quarter; ++i) {
        // Writing scratch row i is safe: rows 4i..4i+3 of the previous
        // level were consumed at iteration i/4 (< i, or within this very
        // iteration for i == 0, before the write below).
        k.haar_forward_step(row(4 * i), row(4 * i + 1),
                            out + (half + 2 * i) * pitch, tmp0, count);
        k.haar_forward_step(row(4 * i + 2), row(4 * i + 3),
                            out + (half + 2 * i + 1) * pitch, tmp1, count);
        k.haar_forward_step(tmp0, tmp1, out + (quarter + i) * pitch,
                            scratch + i * sp, count);
      }
      len = quarter;
    } else {
      // Odd level count: the coarsest level has no partner.
      k.haar_forward_step(row(0), row(1), out + pitch, scratch, count);
      len = 1;
    }
    from_in = false;
  }
  std::copy(scratch, scratch + count, out);  // base coefficient row
}

void HaarTransform::InverseLines(std::size_t count, const double* coeffs,
                                 double* out, std::size_t pitch,
                                 double* scratch, simd::IsaLevel isa) const {
  if (padded_ == 1) {
    std::copy(coeffs, coeffs + count, out);
    return;
  }
  const simd::KernelTable& k = simd::Kernels(isa);
  // Detail rows are read from `coeffs` per level; the expansion runs in
  // scratch (padded pitch, see ForwardLines) until the last level writes
  // the output rows directly. Like the forward sweep, levels run in fused
  // pairs: one sweep expands each avg row into four, staging the
  // intermediate half-level averages in two reused tmp rows — identical
  // per-line ops, so bit-identical output.
  const std::size_t sp = count + kRowPad;
  double* tmp0 = scratch + (padded_ / 4) * sp;
  double* tmp1 = tmp0 + sp;
  double* discard = tmp1 + sp;  // where the padding rows [n_, padded_) go
  auto out_row = [&](std::size_t r) {
    return r < n_ ? out + r * pitch : discard;
  };
  std::copy(coeffs, coeffs + count, scratch);  // base coefficient row
  std::size_t len = 1;
  if (levels_ % 2 == 1) {
    // Odd level count: expand the coarsest level alone so the remaining
    // sweeps pair evenly.
    const bool last = padded_ == 2;
    double* left = last ? out_row(0) : scratch;
    double* right = last ? out_row(1) : scratch + sp;
    // Right first inside the kernel: the in-scratch left row aliases the
    // avg row.
    k.haar_inverse_step(scratch, coeffs + pitch, left, right, count);
    len = 2;
  }
  for (; len < padded_; len *= 4) {
    const bool last = len * 4 == padded_;
    auto dst = [&](std::size_t r) {
      return last ? out_row(r) : scratch + r * sp;
    };
    for (std::size_t i = len; i-- > 0;) {
      // Descending i: writing rows 4i..4i+3 only clobbers avg rows this
      // sweep has already consumed (all > i except row 0, which the first
      // step below reads before anything is stored).
      k.haar_inverse_step(scratch + i * sp, coeffs + (len + i) * pitch, tmp0,
                          tmp1, count);
      k.haar_inverse_step(tmp0, coeffs + (2 * len + 2 * i) * pitch,
                          dst(4 * i), dst(4 * i + 1), count);
      k.haar_inverse_step(tmp1, coeffs + (2 * len + 2 * i + 1) * pitch,
                          dst(4 * i + 2), dst(4 * i + 3), count);
    }
  }
}

void HaarTransform::RangeContribution(std::size_t lo, std::size_t hi,
                                      double* out) const {
  PRIVELET_CHECK(lo <= hi && hi < n_, "bad range");
  // Inclusive-bounds overlap of [lo, hi] with [begin, begin + size).
  auto overlap = [lo, hi](std::size_t begin, std::size_t size) -> double {
    const std::size_t end = begin + size;  // exclusive
    const std::size_t clipped_lo = std::max(lo, begin);
    const std::size_t clipped_hi = std::min(hi + 1, end);
    return clipped_hi > clipped_lo
               ? static_cast<double>(clipped_hi - clipped_lo)
               : 0.0;
  };
  out[0] = static_cast<double>(hi - lo + 1);
  for (std::size_t j = 1; j < padded_; ++j) {
    // Coefficient j sits at level FloorLog2(j)+1; its subtree covers a
    // block of size padded / 2^FloorLog2(j) starting at the block index
    // (j - 2^level_offset) within that level.
    const std::size_t level_offset = std::size_t{1} << FloorLog2(j);
    const std::size_t block = padded_ / level_offset;
    const std::size_t begin = (j - level_offset) * block;
    out[j] = overlap(begin, block / 2) - overlap(begin + block / 2, block / 2);
  }
}

void HaarTransform::Inverse(const double* coeffs, double* out) const {
  Inverse(coeffs, out, scratch_.data());
}

void HaarTransform::Inverse(const double* coeffs, double* out,
                            double* scratch) const {
  Inverse(coeffs, out, scratch, simd::ResolveIsa());
}

void HaarTransform::Inverse(const double* coeffs, double* out, double* scratch,
                            simd::IsaLevel isa) const {
  const simd::KernelTable& k = simd::Kernels(isa);
  scratch[0] = coeffs[0];
  // Per level: scratch[2i] = avg + detail (left subtree, g = +1, Eq. 3),
  // scratch[2i+1] = avg - detail (right subtree, g = -1), i descending.
  // Power-of-two inputs fuse the final level with the output copy: the
  // expand kernel writes `out` directly.
  const bool fuse_last = n_ == padded_ && padded_ > 1;
  for (std::size_t len = 2; len <= padded_; len *= 2) {
    if (fuse_last && len == padded_) {
      k.haar_inverse_level_expand(scratch, coeffs + len / 2, out, len / 2);
    } else {
      k.haar_inverse_level(scratch, coeffs + len / 2, len / 2);
    }
  }
  if (!fuse_last) std::copy(scratch, scratch + n_, out);
}

}  // namespace privelet::wavelet
