// AVX2 kernel table (4 lanes of double / int64, 8 of uint32 for ChaCha20).
// Compiled with -mavx2 -ffp-contract=off; only ever called after
// dispatch.cc has probed CPUID, so no code here needs its own feature
// guard at runtime.
//
// Bit-identity notes (the per-kernel contracts live in kernels.h):
//  * x / 2.0 == x * 0.5 for every double (multiplying by a power of two is
//    a correctly rounded operation of the same exact value), so the
//    butterflies use vmulpd by 0.5.
//  * No FMA anywhere: every a + s*b is a separate vmulpd + vaddpd, two
//    roundings, exactly like the scalar expression.
//  * The u64 -> double conversion in laplace_units splits the 53-bit value
//    into hi21 * 2^32 + lo32 via the exponent-OR trick; both halves and
//    their sum are exactly representable, so the conversion is exact.
#include <cstddef>
#include <cstdint>

#include "privelet/simd/draw_groups.h"
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

// ---- laplace_units: 8 ChaCha20 blocks per group, one per 32-bit lane ---

constexpr std::size_t kBlocks = 8;

template <int K>
inline __m256i Rotl(__m256i x) {
  return _mm256_or_si256(_mm256_slli_epi32(x, K), _mm256_srli_epi32(x, 32 - K));
}

inline void QuarterRound(__m256i& a, __m256i& b, __m256i& c, __m256i& d) {
  // Rotations by 16 and 8 move whole bytes within each 32-bit word.
  const __m256i rot16 = _mm256_set_epi8(
      13, 12, 15, 14, 9, 8, 11, 10, 5, 4, 7, 6, 1, 0, 3, 2,
      13, 12, 15, 14, 9, 8, 11, 10, 5, 4, 7, 6, 1, 0, 3, 2);
  const __m256i rot8 = _mm256_set_epi8(
      14, 13, 12, 15, 10, 9, 8, 11, 6, 5, 4, 7, 2, 1, 0, 3,
      14, 13, 12, 15, 10, 9, 8, 11, 6, 5, 4, 7, 2, 1, 0, 3);
  a = _mm256_add_epi32(a, b);
  d = _mm256_shuffle_epi8(_mm256_xor_si256(d, a), rot16);
  c = _mm256_add_epi32(c, d);
  b = Rotl<12>(_mm256_xor_si256(b, c));
  a = _mm256_add_epi32(a, b);
  d = _mm256_shuffle_epi8(_mm256_xor_si256(d, a), rot8);
  c = _mm256_add_epi32(c, d);
  b = Rotl<7>(_mm256_xor_si256(b, c));
}

// raw[8b + j] = draw j of block `block + b`: the 16 x 8 word matrix (row w
// = word w of every block) is transposed so that each block's 16 words,
// read as 8 little-endian u64, land in draw order.
void ChaChaRaw(const rng::NoiseKey& key, std::uint64_t block,
               std::uint64_t* raw) {
  alignas(32) std::uint32_t counter_lo[kBlocks];
  alignas(32) std::uint32_t counter_hi[kBlocks];
  for (std::size_t l = 0; l < kBlocks; ++l) {
    counter_lo[l] = static_cast<std::uint32_t>(block + l);
    counter_hi[l] = static_cast<std::uint32_t>((block + l) >> 32);
  }
  const auto input = [&](int w) -> __m256i {
    static constexpr std::uint32_t kSigma[4] = {0x61707865, 0x3320646e,
                                                0x79622d32, 0x6b206574};
    if (w < 4) return _mm256_set1_epi32(static_cast<int>(kSigma[w]));
    if (w < 12) return _mm256_set1_epi32(static_cast<int>(key.key[w - 4]));
    if (w == 12) {
      return _mm256_load_si256(reinterpret_cast<const __m256i*>(counter_lo));
    }
    if (w == 13) {
      return _mm256_load_si256(reinterpret_cast<const __m256i*>(counter_hi));
    }
    return _mm256_set1_epi32(static_cast<int>(key.nonce[w - 14]));
  };
  __m256i x[16];
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
  for (int w = 0; w < 16; ++w) x[w] = _mm256_add_epi32(x[w], input(w));

  // Within each 128-bit lane L: after the two unpack stages, u[4g + m]
  // holds words 4g..4g+3 of block 4L + m.
  __m256i t[16];
  for (int p = 0; p < 8; ++p) {
    t[2 * p] = _mm256_unpacklo_epi32(x[2 * p], x[2 * p + 1]);
    t[2 * p + 1] = _mm256_unpackhi_epi32(x[2 * p], x[2 * p + 1]);
  }
  __m256i u[16];
  for (int g = 0; g < 4; ++g) {
    u[4 * g] = _mm256_unpacklo_epi64(t[4 * g], t[4 * g + 2]);
    u[4 * g + 1] = _mm256_unpackhi_epi64(t[4 * g], t[4 * g + 2]);
    u[4 * g + 2] = _mm256_unpacklo_epi64(t[4 * g + 1], t[4 * g + 3]);
    u[4 * g + 3] = _mm256_unpackhi_epi64(t[4 * g + 1], t[4 * g + 3]);
  }
  // Pairing the 128-bit lanes gathers block 4L + m's words 0..7 and 8..15.
  for (int m = 0; m < 4; ++m) {
    auto* lo = reinterpret_cast<__m256i*>(raw + 8 * m);
    auto* hi = reinterpret_cast<__m256i*>(raw + 8 * (4 + m));
    _mm256_store_si256(lo, _mm256_permute2x128_si256(u[m], u[4 + m], 0x20));
    _mm256_store_si256(lo + 1,
                       _mm256_permute2x128_si256(u[8 + m], u[12 + m], 0x20));
    _mm256_store_si256(hi, _mm256_permute2x128_si256(u[m], u[4 + m], 0x31));
    _mm256_store_si256(hi + 1,
                       _mm256_permute2x128_si256(u[8 + m], u[12 + m], 0x31));
  }
}

// rng::Log, lane for lane: the same operations in the same order.
inline __m256d Log(__m256d x) {
  using namespace rng::log_coeffs;
  const __m256i bits = _mm256_castpd_si256(x);
  const __m256i mantissa =
      _mm256_and_si256(bits, _mm256_set1_epi64x(0x000FFFFFFFFFFFFFLL));
  const __m256i carry = _mm256_and_si256(
      _mm256_add_epi64(
          mantissa, _mm256_set1_epi64x(static_cast<long long>(kSqrt2Carry))),
      _mm256_set1_epi64x(1LL << 52));
  const __m256d m = _mm256_castsi256_pd(_mm256_or_si256(
      mantissa,
      _mm256_xor_si256(carry, _mm256_set1_epi64x(0x3FF0000000000000LL))));
  // The biased exponent (< 2^11) converts exactly.
  const __m256d dk = _mm256_sub_pd(
      U53ToDouble(_mm256_add_epi64(_mm256_srli_epi64(bits, 52),
                                   _mm256_srli_epi64(carry, 52))),
      _mm256_set1_pd(1023.0));

  const __m256d f = _mm256_sub_pd(m, _mm256_set1_pd(1.0));
  const __m256d s = _mm256_div_pd(f, _mm256_add_pd(_mm256_set1_pd(2.0), f));
  const __m256d z = _mm256_mul_pd(s, s);
  const __m256d w = _mm256_mul_pd(z, z);
  const auto mul_add = [](__m256d c, __m256d a, __m256d b) {
    return _mm256_add_pd(c, _mm256_mul_pd(a, b));  // c + a * b, two roundings
  };
  const __m256d t1 = _mm256_mul_pd(
      w, mul_add(_mm256_set1_pd(kLg2), w,
                 mul_add(_mm256_set1_pd(kLg4), w, _mm256_set1_pd(kLg6))));
  const __m256d t2 = _mm256_mul_pd(
      z, mul_add(_mm256_set1_pd(kLg1), w,
                 mul_add(_mm256_set1_pd(kLg3), w,
                         mul_add(_mm256_set1_pd(kLg5), w,
                                 _mm256_set1_pd(kLg7)))));
  const __m256d r = _mm256_add_pd(t2, t1);
  const __m256d hfsq =
      _mm256_mul_pd(_mm256_mul_pd(_mm256_set1_pd(0.5), f), f);
  const __m256d inner = _mm256_add_pd(
      _mm256_mul_pd(s, _mm256_add_pd(hfsq, r)),
      _mm256_mul_pd(dk, _mm256_set1_pd(kLn2Lo)));
  return _mm256_sub_pd(
      _mm256_mul_pd(dk, _mm256_set1_pd(kLn2Hi)),
      _mm256_sub_pd(_mm256_sub_pd(hfsq, inner), f));
}

void LaplaceGroup(const rng::NoiseKey& key, std::uint64_t block,
                  double* out) {
  alignas(32) std::uint64_t raw[8 * kBlocks];
  ChaChaRaw(key, block, raw);
  const __m256d one = _mm256_set1_pd(1.0);
  const __m256d minus_one = _mm256_set1_pd(-1.0);
  const __m256d abs_mask =
      _mm256_castsi256_pd(_mm256_set1_epi64x(0x7FFFFFFFFFFFFFFF));
  for (std::size_t i = 0; i < 8 * kBlocks; i += kW) {
    // The front half of rng::LaplaceUnitFromRaw; every step is exact.
    const __m256d v = U53ToDouble(_mm256_srli_epi64(
        _mm256_load_si256(reinterpret_cast<const __m256i*>(raw + i)), 11));
    const __m256d u = _mm256_sub_pd(
        _mm256_mul_pd(_mm256_add_pd(v, one), _mm256_set1_pd(0x1.0p-53)),
        _mm256_set1_pd(0.5));
    const __m256d tail = _mm256_max_pd(
        _mm256_sub_pd(one, _mm256_mul_pd(_mm256_set1_pd(2.0),
                                         _mm256_and_pd(u, abs_mask))),
        _mm256_set1_pd(1e-300));
    const __m256d ge = _mm256_cmp_pd(u, _mm256_setzero_pd(), _CMP_GE_OQ);
    const __m256d neg_sign = _mm256_blendv_pd(one, minus_one, ge);
    _mm256_storeu_pd(out + i, _mm256_mul_pd(neg_sign, Log(tail)));
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
    RowAddScaled,          LaplaceUnits,           PrefixRowsAddI64,
};

}  // namespace

const KernelTable* Avx2Kernels() { return &kTable; }

}  // namespace privelet::simd

#else  // !defined(__AVX2__)

namespace privelet::simd {
const KernelTable* Avx2Kernels() { return nullptr; }
}  // namespace privelet::simd

#endif
