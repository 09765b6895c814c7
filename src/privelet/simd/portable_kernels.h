// The one source of every kernel table: table_scalar.cc, table_avx2.cc and
// table_avx512.cc each include it and build it at their own target flags
// (src/CMakeLists.txt), so the levels differ only in how wide the
// compiler vectorizes the same loops.
//
// Bit-identity holds by construction: every output element goes through
// the same C++ expression at every level, the library is built with
// -ffp-contract=off and without fast-math, and the loops run over
// independent items (lines, butterflies, draws), which the vectorizer
// never reassociates. Where a kernels.h contract lets two pointers alias,
// the loop body loads every input of its element before it stores, and
// no pointer carries __restrict.
//
// Everything here has internal linkage and calls no inline function with
// external linkage (std::min, std::array::operator[], ...): a copy of one
// built for AVX-512 could be the one the linker keeps for baseline
// callers. kernel_symbols_test checks the table objects.
#ifndef PRIVELET_SIMD_PORTABLE_KERNELS_H_
#define PRIVELET_SIMD_PORTABLE_KERNELS_H_

#include <cstddef>
#include <cstdint>
#include <cstring>

#include "privelet/rng/laplace.h"
#include "privelet/rng/laplace_stages.h"
#include "privelet/simd/kernels.h"

// No iteration below depends on another: the only aliasing a contract
// allows is lane-exact or, in place, a write where no later lane reads.
// So ivdep holds; it drops the runtime overlap checks that would send
// in-place calls to scalar code.
#if defined(__clang__)
#define PRIVELET_IVDEP _Pragma("clang loop vectorize(assume_safety)")
#else
#define PRIVELET_IVDEP _Pragma("GCC ivdep")
#endif

namespace privelet::simd {
namespace {

void HaarForwardStep(const double* left, const double* right, double* detail,
                     double* avg, std::size_t count) {
  PRIVELET_IVDEP
  for (std::size_t b = 0; b < count; ++b) {
    const double l = left[b];
    const double r = right[b];
    detail[b] = (l - r) / 2.0;
    avg[b] = (l + r) / 2.0;
  }
}

void HaarInverseStep(const double* avg, const double* detail, double* left,
                     double* right, std::size_t count) {
  PRIVELET_IVDEP
  for (std::size_t b = 0; b < count; ++b) {
    const double a = avg[b];
    const double d = detail[b];
    right[b] = a - d;
    left[b] = a + d;
  }
}

void HaarForwardLevelSplit(const double* src, double* avg, double* detail,
                           std::size_t half) {
  PRIVELET_IVDEP
  for (std::size_t i = 0; i < half; ++i) {
    const double left = src[2 * i];
    const double right = src[2 * i + 1];
    detail[i] = (left - right) / 2.0;
    avg[i] = (left + right) / 2.0;
  }
}

// The in-place level is the split with avg == src: ascending, each
// butterfly's writes at [i, i + w) land below every pending read at
// [2i', 2i' + 2) of the later ones.
void HaarForwardLevel(double* line, double* detail, std::size_t half) {
  HaarForwardLevelSplit(line, line, detail, half);
}

void HaarInverseLevelExpand(const double* avg, const double* detail,
                            double* dst, std::size_t half) {
  PRIVELET_IVDEP
  for (std::size_t i = 0; i < half; ++i) {
    const double a = avg[i];
    const double d = detail[i];
    dst[2 * i] = a + d;
    dst[2 * i + 1] = a - d;
  }
}

// GCC does not vectorize the descending loop, so while the level is wide,
// butterflies [m, half), m = ceil(half / 2), which write above every read
// of the level, run as an out-of-place expand, and the rest is the same
// level half the size. The last few run descending, clobbering nothing.
void HaarInverseLevel(double* line, const double* detail, std::size_t half) {
  while (half > 16) {
    const std::size_t m = (half + 1) / 2;
    HaarInverseLevelExpand(line + m, detail + m, line + 2 * m, half - m);
    half = m;
  }
  for (std::size_t i = half; i-- > 0;) {
    const double avg = line[i];
    const double d = detail[i];
    line[2 * i] = avg + d;
    line[2 * i + 1] = avg - d;
  }
}

void RowAdd(double* acc, const double* row, std::size_t count) {
  PRIVELET_IVDEP
  for (std::size_t b = 0; b < count; ++b) acc[b] += row[b];
}

void RowSub(double* row, const double* sub, std::size_t count) {
  PRIVELET_IVDEP
  for (std::size_t b = 0; b < count; ++b) row[b] -= sub[b];
}

void RowDiv(double* row, double divisor, std::size_t count) {
  PRIVELET_IVDEP
  for (std::size_t b = 0; b < count; ++b) row[b] /= divisor;
}

void RowAddDiv(double* out, const double* a, const double* b_, double divisor,
               std::size_t count) {
  PRIVELET_IVDEP
  for (std::size_t b = 0; b < count; ++b) out[b] = a[b] + b_[b] / divisor;
}

void RowSubDiv(double* out, const double* a, const double* b_, double divisor,
               std::size_t count) {
  PRIVELET_IVDEP
  for (std::size_t b = 0; b < count; ++b) out[b] = a[b] - b_[b] / divisor;
}

void RowAddScaled(double* acc, const double* row, double scale,
                  std::size_t count) {
  PRIVELET_IVDEP
  for (std::size_t b = 0; b < count; ++b) acc[b] += scale * row[b];
}

// ---- laplace_units ------------------------------------------------------
// ChaCha20 lane-major over 16 blocks: x[w][b] is word w of block b, and
// every quarter round loops over the blocks, so each round is a handful
// of vector operations at every level.
constexpr std::size_t kBlocks = 16;
constexpr std::size_t kGroupDraws = 8 * kBlocks;
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

// The kGroupDraws draws of blocks [block, block + kBlocks), in order.
void LaplaceGroup(const rng::NoiseKey& key, std::uint64_t block,
                  double* out) {
  static constexpr std::uint32_t kSigma[4] = {0x61707865, 0x3320646e,
                                              0x79622d32, 0x6b206574};
  std::uint32_t words[10];  // key words 0..7, then the nonce
  std::memcpy(words, &key.key, 32);
  std::memcpy(words + 8, &key.nonce, 8);
  alignas(64) BlockLanes input;
  for (std::size_t l = 0; l < kBlocks; ++l) {
    for (int w = 0; w < 4; ++w) input[w][l] = kSigma[w];
    for (int w = 0; w < 8; ++w) input[4 + w][l] = words[w];
    input[12][l] = static_cast<std::uint32_t>(block + l);
    input[13][l] = static_cast<std::uint32_t>((block + l) >> 32);
    input[14][l] = words[8];
    input[15][l] = words[9];
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
  alignas(64) std::uint64_t raw[kGroupDraws];
  for (std::size_t l = 0; l < kBlocks; ++l) {
    for (std::size_t j = 0; j < 8; ++j) {
      raw[8 * l + j] = x[2 * j][l] | (std::uint64_t{x[2 * j + 1][l]} << 32);
    }
  }
  rng::StagedUnitsFromRaw(raw, kGroupDraws, out);
}

// Cuts [first, first + n) into groups of kBlocks consecutive blocks. A
// group fully inside the run is written in place; a partial one (an
// unaligned start, or the run's end) is computed whole into a staging
// buffer and trimmed. Each draw is a pure function of its index, so the
// grouping never changes a bit.
void LaplaceUnits(const rng::NoiseKey& key, std::uint64_t first,
                  std::size_t n, double* out) {
  while (n > 0) {
    const std::uint64_t block = first / 8;
    const std::size_t skip = static_cast<std::size_t>(first % 8);
    std::size_t take = kGroupDraws;
    if (skip == 0 && n >= kGroupDraws) {
      LaplaceGroup(key, block, out);
    } else {
      alignas(64) double staged[kGroupDraws];
      LaplaceGroup(key, block, staged);
      take = n < kGroupDraws - skip ? n : kGroupDraws - skip;
      for (std::size_t j = 0; j < take; ++j) out[j] = staged[skip + j];
    }
    first += take;
    out += take;
    n -= take;
  }
}

constexpr KernelTable MakeKernelTable(IsaLevel level) {
  return {level,       HaarForwardStep, HaarInverseStep,
          HaarForwardLevel, HaarInverseLevel, HaarForwardLevelSplit,
          HaarInverseLevelExpand, RowAdd, RowSub,
          RowDiv,      RowAddDiv,       RowSubDiv,
          RowAddScaled, LaplaceUnits};
}

}  // namespace
}  // namespace privelet::simd

#undef PRIVELET_IVDEP

#endif  // PRIVELET_SIMD_PORTABLE_KERNELS_H_
