// The Haar-nominal (HN) wavelet transform (paper Sec. VI-A): standard
// decomposition that applies a one-dimensional transform along each axis of
// the frequency matrix in turn — Haar on ordinal axes, the nominal
// transform on nominal axes, and (for Privelet+) the identity on axes in
// SA. The per-coefficient weight WHN is the product of the per-axis
// weights, so it is represented as one weight vector per axis rather than a
// materialized weight matrix.
//
// Each axis pass streams panels of adjacent lines through the batched
// Transform1D kernels (matrix/engine.h), with results bit-identical for
// every thread count and ISA level.
#ifndef PRIVELET_WAVELET_HN_TRANSFORM_H_
#define PRIVELET_WAVELET_HN_TRANSFORM_H_

#include <cstddef>
#include <functional>
#include <memory>
#include <vector>

#include "privelet/common/result.h"
#include "privelet/data/schema.h"
#include "privelet/matrix/engine.h"
#include "privelet/matrix/frequency_matrix.h"
#include "privelet/wavelet/transform.h"

namespace privelet::common {
class ThreadPool;
}  // namespace privelet::common

namespace privelet::wavelet {

/// The inputs of the per-line weight factor, copied out of an
/// HnCoefficients so that a holder (the mechanisms' fused noise closure)
/// stays valid after the coefficients are moved into HnTransform::Inverse.
struct LineWeights {
  std::vector<std::size_t> dims;
  std::vector<std::size_t> strides;
  std::vector<const std::vector<double>*> axis_weights;

  /// The product of the weights of axes 0..d-2 at line `line` along the
  /// last axis (1 for a 1-D matrix), folded in axis order: the coefficient
  /// at column j of that line has weight
  /// (*this)(line) * (*axis_weights.back())[j], bit-for-bit
  /// HnCoefficients::WeightAt. O(d).
  double operator()(std::size_t line) const;
};

/// The output of HnTransform::Forward: the d-dimensional coefficient
/// matrix (axis i has axis_transform(i)->coefficient_count() entries) plus
/// the per-axis weight vectors defining WHN.
struct HnCoefficients {
  matrix::FrequencyMatrix coeffs;
  std::vector<const std::vector<double>*> axis_weights;
  /// Forward's idle working matrix, carried so that
  /// Inverse(HnCoefficients&&) can write its first pass into it instead of
  /// a fresh buffer. Value-free: its dims are those of an intermediate
  /// pass and its entries are indeterminate, so never read it. Empty when
  /// there is no idle buffer (1-D, out-of-core scratch).
  matrix::FrequencyMatrix workspace;

  /// WHN of the coefficient at the given flat index (product of per-axis
  /// weights). O(d) — use ForEachCoefficient for bulk access.
  double WeightAt(std::size_t flat) const;

  /// Calls fn(flat_index, weight) for every coefficient, amortized O(1)
  /// per coefficient (odometer with running weight products).
  template <typename Fn>
  void ForEachCoefficient(Fn&& fn) const;

  /// ForEachCoefficient restricted to flat indices [begin, end): O(d)
  /// startup to position the odometer, then amortized O(1) per
  /// coefficient. Disjoint ranges may run concurrently.
  template <typename Fn>
  void ForEachCoefficientInRange(std::size_t begin, std::size_t end,
                                 Fn&& fn) const;

  /// The per-line weight factor's inputs, by value (see LineWeights).
  LineWeights line_weights() const;
};

/// Coefficient perturbation fused into the first Inverse axis pass (the
/// mechanisms' Laplace injection, applied while the panel is cache-hot):
/// called with `values` holding the coefficients of flat indices
/// [begin, end) (values[i] is coefficient begin + i), before refinement
/// and inversion.
using PanelNoiseFn = std::function<void(std::size_t begin, std::size_t end,
                                        double* values)>;

/// Makes one PanelNoiseFn per ParallelFor chunk (so the closure may carry
/// mutable per-worker state, e.g. a buffer of noise draws). The returned
/// function is invoked with non-overlapping ranges in increasing order
/// within its chunk; across all chunks every coefficient is visited
/// exactly once.
using PanelNoiseFactory = std::function<PanelNoiseFn()>;

class HnTransform {
 public:
  /// Builds the transform for `schema`: Haar on ordinal axes, nominal on
  /// nominal axes, except that axes whose index appears in
  /// `identity_axes` get the identity transform (Privelet+'s SA set;
  /// Sec. VI-D).
  static Result<HnTransform> Create(const data::Schema& schema,
                                    const std::vector<std::size_t>&
                                        identity_axes = {});

  std::size_t num_axes() const { return transforms_.size(); }
  const Transform1D& axis_transform(std::size_t axis) const {
    return *transforms_[axis];
  }

  /// Expected data dims (= schema domain sizes).
  const std::vector<std::size_t>& input_dims() const { return input_dims_; }
  /// Coefficient-matrix dims.
  const std::vector<std::size_t>& output_dims() const { return output_dims_; }

  /// Applies the 1-D transforms along axes 0..d-1 in turn. A non-null
  /// `pool` fans the independent line transforms of each axis pass across
  /// its workers; `options` carries the memory budget and ISA level. The
  /// result is bit-identical for any pool size and options (each line is
  /// an independent computation undergoing identical floating-point
  /// operations on every path).
  ///
  /// In core, the passes alternate between two working matrices (the
  /// first pass reads `m`); the idle one is returned as the result's
  /// workspace.
  Result<HnCoefficients> Forward(
      const matrix::FrequencyMatrix& m, common::ThreadPool* pool = nullptr,
      const matrix::EngineOptions& options = {}) const;

  /// Inverts along axes d-1..0. On each axis the 1-D transform's Refine()
  /// runs on every coefficient line before inversion (for noise-free
  /// coefficients this is a no-op by construction). Parallel and
  /// deterministic across pool sizes and options like Forward.
  ///
  /// `noise` is applied to each coefficient panel of the first axis pass
  /// before refinement — the mechanisms fuse their Laplace injection here
  /// so no separate full-matrix noise sweep is needed. The input
  /// coefficients are not modified.
  Result<matrix::FrequencyMatrix> Inverse(
      const HnCoefficients& c, common::ThreadPool* pool = nullptr,
      const matrix::EngineOptions& options = {},
      const PanelNoiseFactory& noise = {}) const;

  /// Inverse that recycles the coefficients' storage: the first pass
  /// writes into `c.workspace`, and each matrix a pass has consumed
  /// becomes a later pass's destination when its capacity covers it (the
  /// release only on an exact fit, so it pins no slack). Out-of-core
  /// scratch matrices are never recycled. Bit-identical to the const&
  /// overload: the same passes run on the same values.
  Result<matrix::FrequencyMatrix> Inverse(
      HnCoefficients&& c, common::ThreadPool* pool = nullptr,
      const matrix::EngineOptions& options = {},
      const PanelNoiseFactory& noise = {}) const;

  /// Generalized sensitivity of the transform w.r.t. WHN:
  /// prod_i P(A_i) (Theorem 2).
  double GeneralizedSensitivity() const;

  /// Variance factor: noise variance of any range-count answer is at most
  /// VarianceBoundFactor() * sigma^2 when each coefficient's noise
  /// variance is at most (sigma/WHN(c))^2 (Theorem 3).
  double VarianceBoundFactor() const;

 private:
  explicit HnTransform(std::vector<std::unique_ptr<Transform1D>> transforms);

  std::vector<std::unique_ptr<Transform1D>> transforms_;
  std::vector<std::size_t> input_dims_;
  std::vector<std::size_t> output_dims_;
};

template <typename Fn>
void HnCoefficients::ForEachCoefficient(Fn&& fn) const {
  ForEachCoefficientInRange(0, coeffs.size(), std::forward<Fn>(fn));
}

template <typename Fn>
void HnCoefficients::ForEachCoefficientInRange(std::size_t begin,
                                               std::size_t end,
                                               Fn&& fn) const {
  if (begin >= end) return;
  const auto& dims = coeffs.dims();
  const std::size_t d = dims.size();
  // Row-major odometer; partial[a] = product of weights of axes 0..a.
  std::vector<std::size_t> coords(d);
  std::vector<double> partial(d);
  const auto recompute_from = [&](std::size_t axis) {
    for (std::size_t a = axis; a < d; ++a) {
      const double prev = (a == 0) ? 1.0 : partial[a - 1];
      partial[a] = prev * (*axis_weights[a])[coords[a]];
    }
  };
  for (std::size_t axis = 0; axis < d; ++axis) {
    coords[axis] = (begin / coeffs.Stride(axis)) % dims[axis];
  }
  recompute_from(0);
  for (std::size_t flat = begin; flat < end; ++flat) {
    fn(flat, partial[d - 1]);
    // Bump the last axis, carry leftward.
    std::size_t axis = d;
    while (axis-- > 0) {
      if (++coords[axis] < dims[axis]) {
        recompute_from(axis);
        break;
      }
      coords[axis] = 0;
    }
  }
}

}  // namespace privelet::wavelet

#endif  // PRIVELET_WAVELET_HN_TRANSFORM_H_
