// Scalar kernel table: the reference fold every vector level must
// reproduce bit-for-bit. The loop bodies are the exact expressions the
// pre-dispatch code ran (haar.cc, nominal.cc, distributions.cc,
// prefix_sum.h), lifted verbatim so "scalar level" and "the old code"
// mean the same thing in the determinism sweep.
#include <cmath>
#include <cstddef>
#include <cstdint>

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

void LaplaceTail(const std::uint64_t* raw, double* tail, double* neg_sign,
                 std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    // Exactly rng::Xoshiro256pp::NextDoubleOpenZero followed by the
    // pre-log arithmetic of rng::SampleLaplace.
    const double v = static_cast<double>(raw[i] >> 11);
    const double u = (v + 1.0) * 0x1.0p-53 - 0.5;
    const double magnitude_u = std::abs(u);
    double t = 1.0 - 2.0 * magnitude_u;
    if (t < 1e-300) t = 1e-300;
    tail[i] = t;
    neg_sign[i] = u >= 0.0 ? -1.0 : 1.0;
  }
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
    RowAddScaled,          LaplaceTail,            PrefixRowsAddI64,
};

}  // namespace

const KernelTable* ScalarKernels() { return &kTable; }

}  // namespace privelet::simd
