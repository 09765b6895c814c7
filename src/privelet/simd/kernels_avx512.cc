// AVX-512 kernel table (8 lanes of double / int64, 16 of uint32 for
// ChaCha20). Requires F+DQ+VL (DQ for the 64-bit integer <-> double
// conversions, VL only as a dispatch-level simplification).
// Compiled with -mavx512f -mavx512dq -mavx512vl -ffp-contract=off; only
// reachable after dispatch.cc's CPUID probe. Same bit-identity contracts
// as the AVX2 table (see kernels_avx2.cc and kernels.h).
#include <cstddef>
#include <cstdint>

#include "privelet/simd/draw_groups.h"
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

// ---- laplace_units: 16 ChaCha20 blocks per group, one per 32-bit lane --

constexpr std::size_t kBlocks = 16;

inline void QuarterRound(__m512i& a, __m512i& b, __m512i& c, __m512i& d) {
  a = _mm512_add_epi32(a, b);
  d = _mm512_rol_epi32(_mm512_xor_si512(d, a), 16);
  c = _mm512_add_epi32(c, d);
  b = _mm512_rol_epi32(_mm512_xor_si512(b, c), 12);
  a = _mm512_add_epi32(a, b);
  d = _mm512_rol_epi32(_mm512_xor_si512(d, a), 8);
  c = _mm512_add_epi32(c, d);
  b = _mm512_rol_epi32(_mm512_xor_si512(b, c), 7);
}

// raw[8b + j] = draw j of block `block + b`: the 16 x 16 word matrix (row
// w = word w of every block) is transposed so that each block's 16 words,
// read as 8 little-endian u64, land in draw order.
void ChaChaRaw(const rng::NoiseKey& key, std::uint64_t block,
               std::uint64_t* raw) {
  alignas(64) std::uint32_t counter_lo[kBlocks];
  alignas(64) std::uint32_t counter_hi[kBlocks];
  for (std::size_t l = 0; l < kBlocks; ++l) {
    counter_lo[l] = static_cast<std::uint32_t>(block + l);
    counter_hi[l] = static_cast<std::uint32_t>((block + l) >> 32);
  }
  const auto input = [&](int w) -> __m512i {
    static constexpr std::uint32_t kSigma[4] = {0x61707865, 0x3320646e,
                                                0x79622d32, 0x6b206574};
    if (w < 4) return _mm512_set1_epi32(static_cast<int>(kSigma[w]));
    if (w < 12) return _mm512_set1_epi32(static_cast<int>(key.key[w - 4]));
    if (w == 12) return _mm512_load_si512(counter_lo);
    if (w == 13) return _mm512_load_si512(counter_hi);
    return _mm512_set1_epi32(static_cast<int>(key.nonce[w - 14]));
  };
  __m512i x[16];
  for (int w = 0; w < 16; ++w) x[w] = input(w);
  for (int round = 0; round < 10; ++round) {
    QuarterRound(x[0], x[4], x[8], x[12]);
    QuarterRound(x[1], x[5], x[9], x[13]);
    QuarterRound(x[2], x[6], x[10], x[14]);
    QuarterRound(x[3], x[7], x[11], x[15]);
    QuarterRound(x[0], x[5], x[10], x[15]);
    QuarterRound(x[1], x[6], x[11], x[12]);
    QuarterRound(x[2], x[7], x[8], x[13]);
    QuarterRound(x[3], x[4], x[9], x[14]);
  }
  for (int w = 0; w < 16; ++w) x[w] = _mm512_add_epi32(x[w], input(w));

  // Within each 128-bit lane L: after the two unpack stages, u[4g + m]
  // holds words 4g..4g+3 of block 4L + m.
  __m512i t[16];
  for (int p = 0; p < 8; ++p) {
    t[2 * p] = _mm512_unpacklo_epi32(x[2 * p], x[2 * p + 1]);
    t[2 * p + 1] = _mm512_unpackhi_epi32(x[2 * p], x[2 * p + 1]);
  }
  __m512i u[16];
  for (int g = 0; g < 4; ++g) {
    u[4 * g] = _mm512_unpacklo_epi64(t[4 * g], t[4 * g + 2]);
    u[4 * g + 1] = _mm512_unpackhi_epi64(t[4 * g], t[4 * g + 2]);
    u[4 * g + 2] = _mm512_unpacklo_epi64(t[4 * g + 1], t[4 * g + 3]);
    u[4 * g + 3] = _mm512_unpackhi_epi64(t[4 * g + 1], t[4 * g + 3]);
  }
  // A 4 x 4 transpose of 128-bit lanes gathers block 4L + m's words.
  for (int m = 0; m < 4; ++m) {
    const __m512i v0 = _mm512_shuffle_i32x4(u[m], u[4 + m], 0x44);
    const __m512i v1 = _mm512_shuffle_i32x4(u[m], u[4 + m], 0xEE);
    const __m512i v2 = _mm512_shuffle_i32x4(u[8 + m], u[12 + m], 0x44);
    const __m512i v3 = _mm512_shuffle_i32x4(u[8 + m], u[12 + m], 0xEE);
    _mm512_store_si512(raw + 8 * m, _mm512_shuffle_i32x4(v0, v2, 0x88));
    _mm512_store_si512(raw + 8 * (4 + m), _mm512_shuffle_i32x4(v0, v2, 0xDD));
    _mm512_store_si512(raw + 8 * (8 + m), _mm512_shuffle_i32x4(v1, v3, 0x88));
    _mm512_store_si512(raw + 8 * (12 + m),
                       _mm512_shuffle_i32x4(v1, v3, 0xDD));
  }
}

// rng::Log, lane for lane: the same operations in the same order.
inline __m512d Log(__m512d x) {
  using namespace rng::log_coeffs;
  const __m512i bits = _mm512_castpd_si512(x);
  const __m512i mantissa =
      _mm512_and_si512(bits, _mm512_set1_epi64(0x000FFFFFFFFFFFFFLL));
  const __m512i carry = _mm512_and_si512(
      _mm512_add_epi64(mantissa,
                       _mm512_set1_epi64(static_cast<long long>(kSqrt2Carry))),
      _mm512_set1_epi64(1LL << 52));
  const __m512d m = _mm512_castsi512_pd(_mm512_or_si512(
      mantissa,
      _mm512_xor_si512(carry, _mm512_set1_epi64(0x3FF0000000000000LL))));
  // The biased exponent (< 2^11) converts exactly.
  const __m512d dk = _mm512_sub_pd(
      _mm512_cvtepi64_pd(_mm512_add_epi64(_mm512_srli_epi64(bits, 52),
                                          _mm512_srli_epi64(carry, 52))),
      _mm512_set1_pd(1023.0));

  const __m512d f = _mm512_sub_pd(m, _mm512_set1_pd(1.0));
  const __m512d s = _mm512_div_pd(f, _mm512_add_pd(_mm512_set1_pd(2.0), f));
  const __m512d z = _mm512_mul_pd(s, s);
  const __m512d w = _mm512_mul_pd(z, z);
  const auto mul_add = [](__m512d c, __m512d a, __m512d b) {
    return _mm512_add_pd(c, _mm512_mul_pd(a, b));  // c + a * b, two roundings
  };
  const __m512d t1 = _mm512_mul_pd(
      w, mul_add(_mm512_set1_pd(kLg2), w,
                 mul_add(_mm512_set1_pd(kLg4), w, _mm512_set1_pd(kLg6))));
  const __m512d t2 = _mm512_mul_pd(
      z, mul_add(_mm512_set1_pd(kLg1), w,
                 mul_add(_mm512_set1_pd(kLg3), w,
                         mul_add(_mm512_set1_pd(kLg5), w,
                                 _mm512_set1_pd(kLg7)))));
  const __m512d r = _mm512_add_pd(t2, t1);
  const __m512d hfsq =
      _mm512_mul_pd(_mm512_mul_pd(_mm512_set1_pd(0.5), f), f);
  const __m512d inner = _mm512_add_pd(
      _mm512_mul_pd(s, _mm512_add_pd(hfsq, r)),
      _mm512_mul_pd(dk, _mm512_set1_pd(kLn2Lo)));
  return _mm512_sub_pd(
      _mm512_mul_pd(dk, _mm512_set1_pd(kLn2Hi)),
      _mm512_sub_pd(_mm512_sub_pd(hfsq, inner), f));
}

void LaplaceGroup(const rng::NoiseKey& key, std::uint64_t block,
                  double* out) {
  alignas(64) std::uint64_t raw[8 * kBlocks];
  ChaChaRaw(key, block, raw);
  const __m512d one = _mm512_set1_pd(1.0);
  const __m512d minus_one = _mm512_set1_pd(-1.0);
  for (std::size_t i = 0; i < 8 * kBlocks; i += kW) {
    // The front half of rng::LaplaceUnitFromRaw; every step is exact.
    const __m512d v = _mm512_cvtepu64_pd(
        _mm512_srli_epi64(_mm512_load_si512(raw + i), 11));
    const __m512d u = _mm512_sub_pd(
        _mm512_mul_pd(_mm512_add_pd(v, one), _mm512_set1_pd(0x1.0p-53)),
        _mm512_set1_pd(0.5));
    const __m512d tail = _mm512_max_pd(
        _mm512_sub_pd(one, _mm512_mul_pd(_mm512_set1_pd(2.0),
                                         _mm512_abs_pd(u))),
        _mm512_set1_pd(1e-300));
    const __mmask8 ge =
        _mm512_cmp_pd_mask(u, _mm512_setzero_pd(), _CMP_GE_OQ);
    const __m512d neg_sign = _mm512_mask_blend_pd(ge, one, minus_one);
    _mm512_storeu_pd(out + i, _mm512_mul_pd(neg_sign, Log(tail)));
  }
}

void LaplaceUnits(const rng::NoiseKey& key, std::uint64_t first,
                  std::size_t n, double* out) {
  ForEachDrawGroup<kBlocks>(first, n, out,
                            [&key](std::uint64_t block, double* group) {
                              LaplaceGroup(key, block, group);
                            });
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
    RowAddScaled,           LaplaceUnits,           PrefixRowsAddI64,
};

}  // namespace

const KernelTable* Avx512Kernels() { return &kTable; }

}  // namespace privelet::simd

#else  // missing AVX-512 F/DQ/VL support at compile time

namespace privelet::simd {
const KernelTable* Avx512Kernels() { return nullptr; }
}  // namespace privelet::simd

#endif
