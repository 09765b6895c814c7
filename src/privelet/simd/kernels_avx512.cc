// AVX-512 kernel table (8 lanes). Requires F+DQ+VL (DQ for
// _mm512_cvtepu64_pd, VL only as a dispatch-level simplification).
// Compiled with -mavx512f -mavx512dq -mavx512vl -ffp-contract=off; only
// reachable after dispatch.cc's CPUID probe. Same bit-identity contracts
// as the AVX2 table (see kernels_avx2.cc and kernels.h).
#include <cstddef>
#include <cstdint>

#include "privelet/simd/kernels.h"

#if defined(__AVX512F__) && defined(__AVX512DQ__) && defined(__AVX512VL__)

#include <immintrin.h>

namespace privelet::simd {
namespace {

constexpr std::size_t kW = 8;  // doubles / int64s per __m512

void HaarForwardStep(const double* left, const double* right, double* detail,
                     double* avg, std::size_t count) {
  const __m512d half = _mm512_set1_pd(0.5);
  std::size_t b = 0;
  for (; b + kW <= count; b += kW) {
    const __m512d l = _mm512_loadu_pd(left + b);
    const __m512d r = _mm512_loadu_pd(right + b);
    _mm512_storeu_pd(detail + b, _mm512_mul_pd(_mm512_sub_pd(l, r), half));
    _mm512_storeu_pd(avg + b, _mm512_mul_pd(_mm512_add_pd(l, r), half));
  }
  for (; b < count; ++b) {
    const double l = left[b];
    const double r = right[b];
    detail[b] = (l - r) / 2.0;
    avg[b] = (l + r) / 2.0;
  }
}

void HaarInverseStep(const double* avg, const double* detail, double* left,
                     double* right, std::size_t count) {
  std::size_t b = 0;
  for (; b + kW <= count; b += kW) {
    const __m512d a = _mm512_loadu_pd(avg + b);
    const __m512d d = _mm512_loadu_pd(detail + b);
    _mm512_storeu_pd(right + b, _mm512_sub_pd(a, d));
    _mm512_storeu_pd(left + b, _mm512_add_pd(a, d));
  }
  for (; b < count; ++b) {
    const double a = avg[b];
    const double d = detail[b];
    right[b] = a - d;
    left[b] = a + d;
  }
}

void HaarForwardLevel(double* line, double* detail, std::size_t half) {
  const __m512d half_c = _mm512_set1_pd(0.5);
  const __m512i idx_even =
      _mm512_setr_epi64(0, 2, 4, 6, 8, 10, 12, 14);
  const __m512i idx_odd =
      _mm512_setr_epi64(1, 3, 5, 7, 9, 11, 13, 15);
  std::size_t i = 0;
  for (; i + kW <= half; i += kW) {
    const __m512d a = _mm512_loadu_pd(line + 2 * i);
    const __m512d c = _mm512_loadu_pd(line + 2 * i + kW);
    const __m512d even = _mm512_permutex2var_pd(a, idx_even, c);
    const __m512d odd = _mm512_permutex2var_pd(a, idx_odd, c);
    _mm512_storeu_pd(detail + i,
                     _mm512_mul_pd(_mm512_sub_pd(even, odd), half_c));
    _mm512_storeu_pd(line + i,
                     _mm512_mul_pd(_mm512_add_pd(even, odd), half_c));
  }
  for (; i < half; ++i) {
    const double left = line[2 * i];
    const double right = line[2 * i + 1];
    detail[i] = (left - right) / 2.0;
    line[i] = (left + right) / 2.0;
  }
}

void HaarForwardLevelSplit(const double* src, double* avg, double* detail,
                           std::size_t half) {
  const __m512d half_c = _mm512_set1_pd(0.5);
  const __m512i idx_even = _mm512_setr_epi64(0, 2, 4, 6, 8, 10, 12, 14);
  const __m512i idx_odd = _mm512_setr_epi64(1, 3, 5, 7, 9, 11, 13, 15);
  std::size_t i = 0;
  for (; i + kW <= half; i += kW) {
    const __m512d a = _mm512_loadu_pd(src + 2 * i);
    const __m512d c = _mm512_loadu_pd(src + 2 * i + kW);
    const __m512d even = _mm512_permutex2var_pd(a, idx_even, c);
    const __m512d odd = _mm512_permutex2var_pd(a, idx_odd, c);
    _mm512_storeu_pd(detail + i,
                     _mm512_mul_pd(_mm512_sub_pd(even, odd), half_c));
    _mm512_storeu_pd(avg + i,
                     _mm512_mul_pd(_mm512_add_pd(even, odd), half_c));
  }
  for (; i < half; ++i) {
    const double left = src[2 * i];
    const double right = src[2 * i + 1];
    detail[i] = (left - right) / 2.0;
    avg[i] = (left + right) / 2.0;
  }
}

void HaarInverseLevel(double* line, const double* detail, std::size_t half) {
  const __m512i idx_lo = _mm512_setr_epi64(0, 8, 1, 9, 2, 10, 3, 11);
  const __m512i idx_hi = _mm512_setr_epi64(4, 12, 5, 13, 6, 14, 7, 15);
  std::size_t i = half;
  while (i >= kW) {
    i -= kW;
    const __m512d a = _mm512_loadu_pd(line + i);
    const __m512d d = _mm512_loadu_pd(detail + i);
    const __m512d lft = _mm512_add_pd(a, d);
    const __m512d rgt = _mm512_sub_pd(a, d);
    _mm512_storeu_pd(line + 2 * i, _mm512_permutex2var_pd(lft, idx_lo, rgt));
    _mm512_storeu_pd(line + 2 * i + kW,
                     _mm512_permutex2var_pd(lft, idx_hi, rgt));
  }
  while (i-- > 0) {
    const double avg = line[i];
    const double d = detail[i];
    line[2 * i] = avg + d;
    line[2 * i + 1] = avg - d;
  }
}

void HaarInverseLevelExpand(const double* avg, const double* detail,
                            double* dst, std::size_t half) {
  const __m512i idx_lo = _mm512_setr_epi64(0, 8, 1, 9, 2, 10, 3, 11);
  const __m512i idx_hi = _mm512_setr_epi64(4, 12, 5, 13, 6, 14, 7, 15);
  std::size_t i = 0;
  for (; i + kW <= half; i += kW) {
    const __m512d a = _mm512_loadu_pd(avg + i);
    const __m512d d = _mm512_loadu_pd(detail + i);
    const __m512d lft = _mm512_add_pd(a, d);
    const __m512d rgt = _mm512_sub_pd(a, d);
    _mm512_storeu_pd(dst + 2 * i, _mm512_permutex2var_pd(lft, idx_lo, rgt));
    _mm512_storeu_pd(dst + 2 * i + kW,
                     _mm512_permutex2var_pd(lft, idx_hi, rgt));
  }
  for (; i < half; ++i) {
    const double a = avg[i];
    const double d = detail[i];
    dst[2 * i] = a + d;
    dst[2 * i + 1] = a - d;
  }
}

void RowAdd(double* acc, const double* row, std::size_t count) {
  std::size_t b = 0;
  for (; b + kW <= count; b += kW) {
    _mm512_storeu_pd(acc + b, _mm512_add_pd(_mm512_loadu_pd(acc + b),
                                            _mm512_loadu_pd(row + b)));
  }
  for (; b < count; ++b) acc[b] += row[b];
}

void RowSub(double* row, const double* sub, std::size_t count) {
  std::size_t b = 0;
  for (; b + kW <= count; b += kW) {
    _mm512_storeu_pd(row + b, _mm512_sub_pd(_mm512_loadu_pd(row + b),
                                            _mm512_loadu_pd(sub + b)));
  }
  for (; b < count; ++b) row[b] -= sub[b];
}

void RowDiv(double* row, double divisor, std::size_t count) {
  const __m512d dv = _mm512_set1_pd(divisor);
  std::size_t b = 0;
  for (; b + kW <= count; b += kW) {
    _mm512_storeu_pd(row + b, _mm512_div_pd(_mm512_loadu_pd(row + b), dv));
  }
  for (; b < count; ++b) row[b] /= divisor;
}

void RowAddDiv(double* out, const double* a, const double* b_, double divisor,
               std::size_t count) {
  const __m512d dv = _mm512_set1_pd(divisor);
  std::size_t b = 0;
  for (; b + kW <= count; b += kW) {
    const __m512d q = _mm512_div_pd(_mm512_loadu_pd(b_ + b), dv);
    _mm512_storeu_pd(out + b, _mm512_add_pd(_mm512_loadu_pd(a + b), q));
  }
  for (; b < count; ++b) out[b] = a[b] + b_[b] / divisor;
}

void RowSubDiv(double* out, const double* a, const double* b_, double divisor,
               std::size_t count) {
  const __m512d dv = _mm512_set1_pd(divisor);
  std::size_t b = 0;
  for (; b + kW <= count; b += kW) {
    const __m512d q = _mm512_div_pd(_mm512_loadu_pd(b_ + b), dv);
    _mm512_storeu_pd(out + b, _mm512_sub_pd(_mm512_loadu_pd(a + b), q));
  }
  for (; b < count; ++b) out[b] = a[b] - b_[b] / divisor;
}

void RowAddScaled(double* acc, const double* row, double scale,
                  std::size_t count) {
  const __m512d s = _mm512_set1_pd(scale);
  std::size_t b = 0;
  for (; b + kW <= count; b += kW) {
    const __m512d p = _mm512_mul_pd(s, _mm512_loadu_pd(row + b));
    _mm512_storeu_pd(acc + b, _mm512_add_pd(_mm512_loadu_pd(acc + b), p));
  }
  for (; b < count; ++b) acc[b] += scale * row[b];
}

void LaplaceTail(const std::uint64_t* raw, double* tail, double* neg_sign,
                 std::size_t n) {
  const __m512d one = _mm512_set1_pd(1.0);
  const __m512d two = _mm512_set1_pd(2.0);
  const __m512d half = _mm512_set1_pd(0.5);
  const __m512d scale = _mm512_set1_pd(0x1.0p-53);
  const __m512d floor_v = _mm512_set1_pd(1e-300);
  const __m512d minus_one = _mm512_set1_pd(-1.0);
  std::size_t i = 0;
  for (; i + kW <= n; i += kW) {
    const __m512i r =
        _mm512_loadu_si512(reinterpret_cast<const void*>(raw + i));
    // _mm512_cvtepu64_pd (DQ) is exact here: the shifted value has 53 bits.
    const __m512d v = _mm512_cvtepu64_pd(_mm512_srli_epi64(r, 11));
    const __m512d u =
        _mm512_sub_pd(_mm512_mul_pd(_mm512_add_pd(v, one), scale), half);
    const __m512d mag = _mm512_abs_pd(u);
    const __m512d t = _mm512_sub_pd(one, _mm512_mul_pd(two, mag));
    _mm512_storeu_pd(tail + i, _mm512_max_pd(t, floor_v));
    const __mmask8 ge =
        _mm512_cmp_pd_mask(u, _mm512_setzero_pd(), _CMP_GE_OQ);
    _mm512_storeu_pd(neg_sign + i, _mm512_mask_blend_pd(ge, one, minus_one));
  }
  for (; i < n; ++i) {
    const double v = static_cast<double>(raw[i] >> 11);
    const double u = (v + 1.0) * 0x1.0p-53 - 0.5;
    const double mag = u >= 0.0 ? u : -u;
    double t = 1.0 - 2.0 * mag;
    if (t < 1e-300) t = 1e-300;
    tail[i] = t;
    neg_sign[i] = u >= 0.0 ? -1.0 : 1.0;
  }
}

void PrefixRowsAddI64(std::int64_t* curr, const std::int64_t* prev,
                      std::size_t run) {
  std::size_t b = 0;
  for (; b + kW <= run; b += kW) {
    const __m512i c = _mm512_loadu_si512(reinterpret_cast<const void*>(curr + b));
    const __m512i p = _mm512_loadu_si512(reinterpret_cast<const void*>(prev + b));
    _mm512_storeu_si512(reinterpret_cast<void*>(curr + b),
                        _mm512_add_epi64(c, p));
  }
  for (; b < run; ++b) curr[b] += prev[b];
}

constexpr KernelTable kTable = {
    IsaLevel::kAvx512,      HaarForwardStep,        HaarInverseStep,
    HaarForwardLevel,       HaarInverseLevel,       HaarForwardLevelSplit,
    HaarInverseLevelExpand, RowAdd,                 RowSub,
    RowDiv,                 RowAddDiv,              RowSubDiv,
    RowAddScaled,           LaplaceTail,            PrefixRowsAddI64,
};

}  // namespace

const KernelTable* Avx512Kernels() { return &kTable; }

}  // namespace privelet::simd

#else  // missing AVX-512 F/DQ/VL support at compile time

namespace privelet::simd {
const KernelTable* Avx512Kernels() { return nullptr; }
}  // namespace privelet::simd

#endif
