// Scalar kernel table: the reference fold every vector level must
// reproduce bit-for-bit. The loop bodies are the exact expressions the
// pre-dispatch code ran (haar.cc, nominal.cc, prefix_sum.h), lifted
// verbatim so "scalar level" and "the old code" mean the same thing in the
// determinism sweep; laplace_units hands its raw draws to the per-index
// definition's own rng::LaplaceUnitsFromRaw.
#include <cstddef>
#include <cstdint>
#include <cstring>

#include "privelet/simd/draw_groups.h"
#include "privelet/simd/kernels.h"

namespace privelet::simd {
namespace {

void HaarForwardStep(const double* left, const double* right, double* detail,
                     double* avg, std::size_t count) {
  for (std::size_t b = 0; b < count; ++b) {
    const double l = left[b];
    const double r = right[b];
    detail[b] = (l - r) / 2.0;
    avg[b] = (l + r) / 2.0;
  }
}

void HaarInverseStep(const double* avg, const double* detail, double* left,
                     double* right, std::size_t count) {
  // Right first: the caller may alias left with avg (i == 0 rows).
  for (std::size_t b = 0; b < count; ++b) {
    right[b] = avg[b] - detail[b];
  }
  for (std::size_t b = 0; b < count; ++b) {
    left[b] = avg[b] + detail[b];
  }
}

void HaarForwardLevel(double* line, double* detail, std::size_t half) {
  for (std::size_t i = 0; i < half; ++i) {
    const double left = line[2 * i];
    const double right = line[2 * i + 1];
    detail[i] = (left - right) / 2.0;
    line[i] = (left + right) / 2.0;
  }
}

void HaarInverseLevel(double* line, const double* detail, std::size_t half) {
  for (std::size_t i = half; i-- > 0;) {
    const double avg = line[i];
    const double d = detail[i];
    line[2 * i] = avg + d;
    line[2 * i + 1] = avg - d;
  }
}

void HaarForwardLevelSplit(const double* src, double* avg, double* detail,
                           std::size_t half) {
  for (std::size_t i = 0; i < half; ++i) {
    const double left = src[2 * i];
    const double right = src[2 * i + 1];
    detail[i] = (left - right) / 2.0;
    avg[i] = (left + right) / 2.0;
  }
}

void HaarInverseLevelExpand(const double* avg, const double* detail,
                            double* dst, std::size_t half) {
  for (std::size_t i = 0; i < half; ++i) {
    const double a = avg[i];
    const double d = detail[i];
    dst[2 * i] = a + d;
    dst[2 * i + 1] = a - d;
  }
}

void RowAdd(double* acc, const double* row, std::size_t count) {
  for (std::size_t b = 0; b < count; ++b) acc[b] += row[b];
}

void RowSub(double* row, const double* sub, std::size_t count) {
  for (std::size_t b = 0; b < count; ++b) row[b] -= sub[b];
}

void RowDiv(double* row, double divisor, std::size_t count) {
  for (std::size_t b = 0; b < count; ++b) row[b] /= divisor;
}

void RowAddDiv(double* out, const double* a, const double* b_, double divisor,
               std::size_t count) {
  for (std::size_t b = 0; b < count; ++b) out[b] = a[b] + b_[b] / divisor;
}

void RowSubDiv(double* out, const double* a, const double* b_, double divisor,
               std::size_t count) {
  for (std::size_t b = 0; b < count; ++b) out[b] = a[b] - b_[b] / divisor;
}

void RowAddScaled(double* acc, const double* row, double scale,
                  std::size_t count) {
  for (std::size_t b = 0; b < count; ++b) acc[b] += scale * row[b];
}

// ChaCha20 lane-major over 16 blocks: x[w][b] is word w of block b, and
// every quarter round loops over the blocks, so the compiler vectorizes
// the rounds even at the baseline ISA.
constexpr std::size_t kBlocks = 16;
using BlockLanes = std::uint32_t[16][kBlocks];

inline std::uint32_t Rotl32(std::uint32_t x, int k) {
  return (x << k) | (x >> (32 - k));
}

template <int A, int B, int C, int D>
inline void QuarterRounds(BlockLanes& x) {
  for (std::size_t l = 0; l < kBlocks; ++l) {
    std::uint32_t a = x[A][l], b = x[B][l], c = x[C][l], d = x[D][l];
    a += b;
    d = Rotl32(d ^ a, 16);
    c += d;
    b = Rotl32(b ^ c, 12);
    a += b;
    d = Rotl32(d ^ a, 8);
    c += d;
    b = Rotl32(b ^ c, 7);
    x[A][l] = a;
    x[B][l] = b;
    x[C][l] = c;
    x[D][l] = d;
  }
}

// The 8 * kBlocks draws of blocks [block, block + kBlocks), in order.
void LaplaceGroup(const rng::NoiseKey& key, std::uint64_t block,
                  double* out) {
  static constexpr std::uint32_t kSigma[4] = {0x61707865, 0x3320646e,
                                              0x79622d32, 0x6b206574};
  alignas(64) BlockLanes input;
  for (std::size_t l = 0; l < kBlocks; ++l) {
    for (int w = 0; w < 4; ++w) input[w][l] = kSigma[w];
    for (int w = 0; w < 8; ++w) input[4 + w][l] = key.key[w];
    input[12][l] = static_cast<std::uint32_t>(block + l);
    input[13][l] = static_cast<std::uint32_t>((block + l) >> 32);
    input[14][l] = key.nonce[0];
    input[15][l] = key.nonce[1];
  }
  alignas(64) BlockLanes x;
  std::memcpy(x, input, sizeof(x));
  for (int round = 0; round < 10; ++round) {
    QuarterRounds<0, 4, 8, 12>(x);
    QuarterRounds<1, 5, 9, 13>(x);
    QuarterRounds<2, 6, 10, 14>(x);
    QuarterRounds<3, 7, 11, 15>(x);
    QuarterRounds<0, 5, 10, 15>(x);
    QuarterRounds<1, 6, 11, 12>(x);
    QuarterRounds<2, 7, 8, 13>(x);
    QuarterRounds<3, 4, 9, 14>(x);
  }
  for (int w = 0; w < 16; ++w) {
    for (std::size_t l = 0; l < kBlocks; ++l) x[w][l] += input[w][l];
  }
  std::uint64_t raw[8 * kBlocks];
  for (std::size_t l = 0; l < kBlocks; ++l) {
    for (std::size_t j = 0; j < 8; ++j) {
      raw[8 * l + j] = x[2 * j][l] | (std::uint64_t{x[2 * j + 1][l]} << 32);
    }
  }
  rng::LaplaceUnitsFromRaw(raw, 8 * kBlocks, out);
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
  for (std::size_t b = 0; b < run; ++b) curr[b] += prev[b];
}

constexpr KernelTable kTable = {
    IsaLevel::kScalar,     HaarForwardStep,        HaarInverseStep,
    HaarForwardLevel,      HaarInverseLevel,       HaarForwardLevelSplit,
    HaarInverseLevelExpand, RowAdd,                RowSub,
    RowDiv,                RowAddDiv,              RowSubDiv,
    RowAddScaled,          LaplaceUnits,           PrefixRowsAddI64,
};

}  // namespace

const KernelTable* ScalarKernels() { return &kTable; }

}  // namespace privelet::simd
