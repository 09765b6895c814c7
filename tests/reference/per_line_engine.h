// Per-line reference for the line engine (matrix/engine.h): every axis
// pass is a plain gather → Transform1D → scatter walk, one line at a time;
// Privelet's noise is a separate flat sweep that draws every coefficient
// through the per-index definition rng::LaplaceUnitAt; the prefix-sum
// table is built one line at a time. The library's panel,
// strided and fused-noise paths must reproduce these bit-for-bit
// (docs/DETERMINISM.md); tile_engine_test, determinism_test and
// bench/tile_sweep compare against them.
#ifndef PRIVELET_TESTS_REFERENCE_PER_LINE_ENGINE_H_
#define PRIVELET_TESTS_REFERENCE_PER_LINE_ENGINE_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "privelet/data/schema.h"
#include "privelet/matrix/frequency_matrix.h"
#include "privelet/mechanism/privelet_mechanism.h"
#include "privelet/rng/laplace.h"
#include "privelet/rng/splitmix64.h"
#include "privelet/simd/dispatch.h"
#include "privelet/wavelet/hn_transform.h"

namespace privelet::reference {

/// One axis pass, line by line; `forward` selects Forward, else
/// Refine + Inverse.
inline matrix::FrequencyMatrix AxisPass(const matrix::FrequencyMatrix& src,
                                        std::size_t axis,
                                        const wavelet::Transform1D& t,
                                        bool forward) {
  std::vector<std::size_t> dims = src.dims();
  dims[axis] = forward ? t.coefficient_count() : t.input_size();
  matrix::FrequencyMatrix dst =
      matrix::FrequencyMatrix::Uninitialized(std::move(dims));
  const simd::IsaLevel isa = simd::ResolveIsa();
  std::vector<double> in(std::max(t.input_size(), t.coefficient_count()));
  std::vector<double> out(in.size());
  std::vector<double> scratch(t.scratch_size());
  for (std::size_t line = 0; line < src.NumLines(axis); ++line) {
    src.GatherLine(axis, line, in.data());
    if (forward) {
      t.Forward(in.data(), out.data(), scratch.data(), isa);
    } else {
      t.Refine(in.data());
      t.Inverse(in.data(), out.data(), scratch.data(), isa);
    }
    dst.ScatterLine(axis, line, out.data());
  }
  return dst;
}

/// HnTransform::Forward: axes 0..d-1 in turn.
inline wavelet::HnCoefficients Forward(const wavelet::HnTransform& transform,
                                       const matrix::FrequencyMatrix& m) {
  wavelet::HnCoefficients c;
  for (std::size_t axis = 0; axis < transform.num_axes(); ++axis) {
    const wavelet::Transform1D& t = transform.axis_transform(axis);
    c.coeffs = AxisPass(axis == 0 ? m : c.coeffs, axis, t, /*forward=*/true);
    c.axis_weights.push_back(&t.weights());
  }
  return c;
}

/// HnTransform::Inverse without fused noise: axes d-1..0 in turn.
inline matrix::FrequencyMatrix Inverse(const wavelet::HnTransform& transform,
                                       matrix::FrequencyMatrix coeffs) {
  for (std::size_t axis = transform.num_axes(); axis-- > 0;) {
    coeffs = AxisPass(coeffs, axis, transform.axis_transform(axis),
                      /*forward=*/false);
  }
  return coeffs;
}

/// PriveletPlusMechanism({sa_names}).Publish(schema, m, epsilon, seed):
/// forward transform, one flat noise sweep adding
/// (λ / WHN(c)) * rng::LaplaceUnitAt(key, c) to every coefficient c, then
/// refine + inverse.
inline matrix::FrequencyMatrix PublishPrivelet(
    const data::Schema& schema, const std::vector<std::string>& sa_names,
    const matrix::FrequencyMatrix& m, double epsilon, std::uint64_t seed) {
  std::vector<std::size_t> sa;
  for (const std::string& name : sa_names) {
    sa.push_back(schema.FindAttribute(name).value());
  }
  const wavelet::HnTransform transform =
      wavelet::HnTransform::Create(schema, sa).value();
  const double lambda = mechanism::PriveletPlusMechanism(sa_names)
                            .LaplaceMagnitude(schema, epsilon)
                            .value();
  wavelet::HnCoefficients c = Forward(transform, m);
  const std::span<double> values = c.coeffs.values();
  // The mechanism's noise-key derivation (privelet_mechanism.cc).
  const rng::NoiseKey key =
      rng::NoiseKey::FromSeed(rng::DeriveSeed(seed, 0x9121E7));
  c.ForEachCoefficient([&](std::size_t flat, double weight) {
    values[flat] += (lambda / weight) * rng::LaplaceUnitAt(key, flat);
  });
  return Inverse(transform, std::move(c.coeffs));
}

/// PrefixSumTable's entries: running sums along the last axis
/// first, then along axes 0..d-2, each one line at a time.
inline std::vector<double> PrefixSums(const matrix::FrequencyMatrix& m) {
  std::vector<double> sums(m.size());
  const std::size_t line_len = m.dims().back();
  for (std::size_t line = 0; line < m.size() / line_len; ++line) {
    double run = 0;
    for (std::size_t j = 0; j < line_len; ++j) {
      run += m[line * line_len + j];
      sums[line * line_len + j] = run;
    }
  }
  for (std::size_t axis = 0; axis + 1 < m.num_dims(); ++axis) {
    const std::size_t stride = m.Stride(axis);
    for (std::size_t line = 0; line < m.NumLines(axis); ++line) {
      const std::size_t base = m.LineBase(axis, line);
      for (std::size_t k = 1; k < m.dim(axis); ++k) {
        sums[base + k * stride] += sums[base + (k - 1) * stride];
      }
    }
  }
  return sums;
}

}  // namespace privelet::reference

#endif  // PRIVELET_TESTS_REFERENCE_PER_LINE_ENGINE_H_
