// AVX2 kernel table (4 lanes of double / 4 lanes of int64). Compiled with
// -mavx2 -ffp-contract=off; only ever called after dispatch.cc has probed
// CPUID, so no code here needs its own feature guard at runtime.
//
// Bit-identity notes (the per-kernel contracts live in kernels.h):
//  * x / 2.0 == x * 0.5 for every double (multiplying by a power of two is
//    a correctly rounded operation of the same exact value), so the
//    butterflies use vmulpd by 0.5.
//  * No FMA anywhere: every a + s*b is a separate vmulpd + vaddpd, two
//    roundings, exactly like the scalar expression.
//  * The u64 -> double conversion in laplace_tail splits the 53-bit value
//    into hi21 * 2^32 + lo32 via the exponent-OR trick; both halves and
//    their sum are exactly representable, so the conversion is exact.
#include <cstddef>
#include <cstdint>

#include "privelet/simd/kernels.h"

#if defined(__AVX2__)

#include <immintrin.h>

namespace privelet::simd {
namespace {

constexpr std::size_t kW = 4;  // doubles / int64s per __m256

void HaarForwardStep(const double* left, const double* right, double* detail,
                     double* avg, std::size_t count) {
  const __m256d half = _mm256_set1_pd(0.5);
  std::size_t b = 0;
  for (; b + kW <= count; b += kW) {
    const __m256d l = _mm256_loadu_pd(left + b);
    const __m256d r = _mm256_loadu_pd(right + b);
    _mm256_storeu_pd(detail + b, _mm256_mul_pd(_mm256_sub_pd(l, r), half));
    _mm256_storeu_pd(avg + b, _mm256_mul_pd(_mm256_add_pd(l, r), half));
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
    const __m256d a = _mm256_loadu_pd(avg + b);
    const __m256d d = _mm256_loadu_pd(detail + b);
    // Right before left: `left` may alias `avg`, and both inputs of this
    // chunk are already loaded.
    _mm256_storeu_pd(right + b, _mm256_sub_pd(a, d));
    _mm256_storeu_pd(left + b, _mm256_add_pd(a, d));
  }
  for (; b < count; ++b) {
    const double a = avg[b];
    const double d = detail[b];
    right[b] = a - d;
    left[b] = a + d;
  }
}

void HaarForwardLevel(double* line, double* detail, std::size_t half) {
  const __m256d half_c = _mm256_set1_pd(0.5);
  std::size_t i = 0;
  // Ascending blocks are safe in place: writes at [i, i + kW) stay below
  // the pending reads at [2i', 2i' + 2kW) of every later block.
  for (; i + kW <= half; i += kW) {
    const __m256d a = _mm256_loadu_pd(line + 2 * i);       // l0 r0 l1 r1
    const __m256d c = _mm256_loadu_pd(line + 2 * i + kW);  // l2 r2 l3 r3
    const __m256d t0 = _mm256_permute2f128_pd(a, c, 0x20);  // l0 r0 l2 r2
    const __m256d t1 = _mm256_permute2f128_pd(a, c, 0x31);  // l1 r1 l3 r3
    const __m256d even = _mm256_unpacklo_pd(t0, t1);        // l0 l1 l2 l3
    const __m256d odd = _mm256_unpackhi_pd(t0, t1);         // r0 r1 r2 r3
    _mm256_storeu_pd(detail + i,
                     _mm256_mul_pd(_mm256_sub_pd(even, odd), half_c));
    _mm256_storeu_pd(line + i,
                     _mm256_mul_pd(_mm256_add_pd(even, odd), half_c));
  }
  for (; i < half; ++i) {
    const double left = line[2 * i];
    const double right = line[2 * i + 1];
    detail[i] = (left - right) / 2.0;
    line[i] = (left + right) / 2.0;
  }
}

void HaarInverseLevel(double* line, const double* detail, std::size_t half) {
  // Descending blocks: the expansion writes [2i, 2i + 2kW), which never
  // clobbers the pending reads at [i', i' + kW) of lower blocks.
  std::size_t i = half;
  while (i >= kW) {
    i -= kW;
    const __m256d a = _mm256_loadu_pd(line + i);
    const __m256d d = _mm256_loadu_pd(detail + i);
    const __m256d lft = _mm256_add_pd(a, d);  // L0 L1 L2 L3
    const __m256d rgt = _mm256_sub_pd(a, d);  // R0 R1 R2 R3
    const __m256d t0 = _mm256_unpacklo_pd(lft, rgt);  // L0 R0 L2 R2
    const __m256d t1 = _mm256_unpackhi_pd(lft, rgt);  // L1 R1 L3 R3
    _mm256_storeu_pd(line + 2 * i, _mm256_permute2f128_pd(t0, t1, 0x20));
    _mm256_storeu_pd(line + 2 * i + kW,
                     _mm256_permute2f128_pd(t0, t1, 0x31));
  }
  while (i-- > 0) {
    const double avg = line[i];
    const double d = detail[i];
    line[2 * i] = avg + d;
    line[2 * i + 1] = avg - d;
  }
}

void HaarForwardLevelSplit(const double* src, double* avg, double* detail,
                           std::size_t half) {
  const __m256d half_c = _mm256_set1_pd(0.5);
  std::size_t i = 0;
  // No aliasing: src is a separate buffer, so block order is free.
  for (; i + kW <= half; i += kW) {
    const __m256d a = _mm256_loadu_pd(src + 2 * i);       // l0 r0 l1 r1
    const __m256d c = _mm256_loadu_pd(src + 2 * i + kW);  // l2 r2 l3 r3
    const __m256d t0 = _mm256_permute2f128_pd(a, c, 0x20);  // l0 r0 l2 r2
    const __m256d t1 = _mm256_permute2f128_pd(a, c, 0x31);  // l1 r1 l3 r3
    const __m256d even = _mm256_unpacklo_pd(t0, t1);        // l0 l1 l2 l3
    const __m256d odd = _mm256_unpackhi_pd(t0, t1);         // r0 r1 r2 r3
    _mm256_storeu_pd(detail + i,
                     _mm256_mul_pd(_mm256_sub_pd(even, odd), half_c));
    _mm256_storeu_pd(avg + i,
                     _mm256_mul_pd(_mm256_add_pd(even, odd), half_c));
  }
  for (; i < half; ++i) {
    const double left = src[2 * i];
    const double right = src[2 * i + 1];
    detail[i] = (left - right) / 2.0;
    avg[i] = (left + right) / 2.0;
  }
}

void HaarInverseLevelExpand(const double* avg, const double* detail,
                            double* dst, std::size_t half) {
  std::size_t i = 0;
  for (; i + kW <= half; i += kW) {
    const __m256d a = _mm256_loadu_pd(avg + i);
    const __m256d d = _mm256_loadu_pd(detail + i);
    const __m256d lft = _mm256_add_pd(a, d);  // L0 L1 L2 L3
    const __m256d rgt = _mm256_sub_pd(a, d);  // R0 R1 R2 R3
    const __m256d t0 = _mm256_unpacklo_pd(lft, rgt);  // L0 R0 L2 R2
    const __m256d t1 = _mm256_unpackhi_pd(lft, rgt);  // L1 R1 L3 R3
    _mm256_storeu_pd(dst + 2 * i, _mm256_permute2f128_pd(t0, t1, 0x20));
    _mm256_storeu_pd(dst + 2 * i + kW, _mm256_permute2f128_pd(t0, t1, 0x31));
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
    _mm256_storeu_pd(acc + b, _mm256_add_pd(_mm256_loadu_pd(acc + b),
                                            _mm256_loadu_pd(row + b)));
  }
  for (; b < count; ++b) acc[b] += row[b];
}

void RowSub(double* row, const double* sub, std::size_t count) {
  std::size_t b = 0;
  for (; b + kW <= count; b += kW) {
    _mm256_storeu_pd(row + b, _mm256_sub_pd(_mm256_loadu_pd(row + b),
                                            _mm256_loadu_pd(sub + b)));
  }
  for (; b < count; ++b) row[b] -= sub[b];
}

void RowDiv(double* row, double divisor, std::size_t count) {
  const __m256d dv = _mm256_set1_pd(divisor);
  std::size_t b = 0;
  for (; b + kW <= count; b += kW) {
    _mm256_storeu_pd(row + b, _mm256_div_pd(_mm256_loadu_pd(row + b), dv));
  }
  for (; b < count; ++b) row[b] /= divisor;
}

void RowAddDiv(double* out, const double* a, const double* b_, double divisor,
               std::size_t count) {
  const __m256d dv = _mm256_set1_pd(divisor);
  std::size_t b = 0;
  for (; b + kW <= count; b += kW) {
    const __m256d q = _mm256_div_pd(_mm256_loadu_pd(b_ + b), dv);
    _mm256_storeu_pd(out + b, _mm256_add_pd(_mm256_loadu_pd(a + b), q));
  }
  for (; b < count; ++b) out[b] = a[b] + b_[b] / divisor;
}

void RowSubDiv(double* out, const double* a, const double* b_, double divisor,
               std::size_t count) {
  const __m256d dv = _mm256_set1_pd(divisor);
  std::size_t b = 0;
  for (; b + kW <= count; b += kW) {
    const __m256d q = _mm256_div_pd(_mm256_loadu_pd(b_ + b), dv);
    _mm256_storeu_pd(out + b, _mm256_sub_pd(_mm256_loadu_pd(a + b), q));
  }
  for (; b < count; ++b) out[b] = a[b] - b_[b] / divisor;
}

void RowAddScaled(double* acc, const double* row, double scale,
                  std::size_t count) {
  const __m256d s = _mm256_set1_pd(scale);
  std::size_t b = 0;
  for (; b + kW <= count; b += kW) {
    const __m256d p = _mm256_mul_pd(s, _mm256_loadu_pd(row + b));
    _mm256_storeu_pd(acc + b, _mm256_add_pd(_mm256_loadu_pd(acc + b), p));
  }
  for (; b < count; ++b) acc[b] += scale * row[b];
}

// Exact u64 -> double for values < 2^53: v = hi21 * 2^32 + lo32, each half
// materialized by OR-ing into the mantissa of a power-of-two exponent and
// subtracting that power back out.
inline __m256d U53ToDouble(__m256i v) {
  const __m256i lo_mask = _mm256_set1_epi64x(0xFFFFFFFF);
  const __m256i lo_magic = _mm256_set1_epi64x(0x4330000000000000);  // 2^52
  const __m256i hi_magic = _mm256_set1_epi64x(0x4530000000000000);  // 2^84
  const __m256i lo = _mm256_or_si256(_mm256_and_si256(v, lo_mask), lo_magic);
  const __m256i hi = _mm256_or_si256(_mm256_srli_epi64(v, 32), hi_magic);
  const __m256d lo_d =
      _mm256_sub_pd(_mm256_castsi256_pd(lo), _mm256_set1_pd(0x1.0p52));
  const __m256d hi_d =
      _mm256_sub_pd(_mm256_castsi256_pd(hi), _mm256_set1_pd(0x1.0p84));
  return _mm256_add_pd(hi_d, lo_d);
}

void LaplaceTail(const std::uint64_t* raw, double* tail, double* neg_sign,
                 std::size_t n) {
  const __m256d one = _mm256_set1_pd(1.0);
  const __m256d two = _mm256_set1_pd(2.0);
  const __m256d half = _mm256_set1_pd(0.5);
  const __m256d scale = _mm256_set1_pd(0x1.0p-53);
  const __m256d floor_v = _mm256_set1_pd(1e-300);
  const __m256d abs_mask = _mm256_castsi256_pd(
      _mm256_set1_epi64x(0x7FFFFFFFFFFFFFFF));
  const __m256d minus_one = _mm256_set1_pd(-1.0);
  std::size_t i = 0;
  for (; i + kW <= n; i += kW) {
    const __m256i r =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(raw + i));
    const __m256d v = U53ToDouble(_mm256_srli_epi64(r, 11));
    const __m256d u =
        _mm256_sub_pd(_mm256_mul_pd(_mm256_add_pd(v, one), scale), half);
    const __m256d mag = _mm256_and_pd(u, abs_mask);
    const __m256d t = _mm256_sub_pd(one, _mm256_mul_pd(two, mag));
    _mm256_storeu_pd(tail + i, _mm256_max_pd(t, floor_v));
    const __m256d ge = _mm256_cmp_pd(u, _mm256_setzero_pd(), _CMP_GE_OQ);
    _mm256_storeu_pd(neg_sign + i, _mm256_blendv_pd(one, minus_one, ge));
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
    const __m256i c =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(curr + b));
    const __m256i p =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(prev + b));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(curr + b),
                        _mm256_add_epi64(c, p));
  }
  for (; b < run; ++b) curr[b] += prev[b];
}

constexpr KernelTable kTable = {
    IsaLevel::kAvx2,       HaarForwardStep,        HaarInverseStep,
    HaarForwardLevel,      HaarInverseLevel,       HaarForwardLevelSplit,
    HaarInverseLevelExpand, RowAdd,                RowSub,
    RowDiv,                RowAddDiv,              RowSubDiv,
    RowAddScaled,          LaplaceTail,            PrefixRowsAddI64,
};

}  // namespace

const KernelTable* Avx2Kernels() { return &kTable; }

}  // namespace privelet::simd

#else  // !defined(__AVX2__)

namespace privelet::simd {
const KernelTable* Avx2Kernels() { return nullptr; }
}  // namespace privelet::simd

#endif
