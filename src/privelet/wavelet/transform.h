// Transform1D: the interface every one-dimensional wavelet transform in the
// Privelet framework implements. A transform instance is bound to a fixed
// input size (and, for the nominal transform, a hierarchy); the
// multi-dimensional HN transform composes one instance per matrix axis
// (paper Sec. VI-A).
//
// Besides Forward/Inverse, a transform exposes:
//  * weights()  — the paper's weight function W over its coefficients; the
//    mechanism adds Laplace noise of magnitude lambda / W(c) to coefficient
//    c (Sec. III-B);
//  * Refine()   — the optional coefficient refinement applied to *noisy*
//    coefficients before reconstruction (the nominal transform's mean
//    subtraction, Sec. V-B); a no-op elsewhere;
//  * p_factor() — the transform's generalized sensitivity with respect to
//    its weight function (the paper's P(A), Sec. VI-C);
//  * h_factor() — the transform's per-axis noise-variance factor (the
//    paper's H(A), Sec. VI-C);
//  * ForwardLines()/InverseLines() — the one batched kernel per direction
//    the line engine runs: `count` lines at once, element k of line b at
//    data[b + k * pitch], whether the lines sit in a matrix or in a
//    gathered panel.
#ifndef PRIVELET_WAVELET_TRANSFORM_H_
#define PRIVELET_WAVELET_TRANSFORM_H_

#include <cstddef>
#include <string_view>
#include <vector>

#include "privelet/simd/dispatch.h"

namespace privelet::wavelet {

class Transform1D {
 public:
  virtual ~Transform1D() = default;

  virtual std::string_view name() const = 0;

  /// Length of the data vectors this instance transforms.
  virtual std::size_t input_size() const = 0;

  /// Number of coefficients produced. May exceed input_size() (the nominal
  /// transform is over-complete) or round it up (Haar pads to a power of
  /// two).
  virtual std::size_t coefficient_count() const = 0;

  /// Computes coefficients from data. `in` has input_size() elements,
  /// `out` coefficient_count() elements, in level order with the base
  /// coefficient first.
  virtual void Forward(const double* in, double* out) const = 0;

  /// Elements of caller-provided scratch the concurrent-safe overloads
  /// below need. 0 (the default) means the plain Forward/Inverse are
  /// already safe to call concurrently on a shared instance.
  virtual std::size_t scratch_size() const { return 0; }

  /// Concurrency-safe overloads: callers running line transforms in
  /// parallel on a shared instance pass their own scratch of
  /// scratch_size() elements (may be nullptr when that is 0). The default
  /// forwards to the plain overloads, which is correct for transforms
  /// without reusable internal workspace.
  virtual void Forward(const double* in, double* out, double* scratch) const {
    (void)scratch;
    Forward(in, out);
  }
  virtual void Inverse(const double* coeffs, double* out,
                       double* scratch) const {
    (void)scratch;
    Inverse(coeffs, out);
  }

  /// Refinement applied to noisy coefficients before Inverse. Must not use
  /// any information beyond the coefficients themselves (privacy relies on
  /// this, Sec. III-A). Default: no-op. Transforms overriding this must
  /// also override has_refinement() and apply the same refinement in
  /// InverseLines.
  virtual void Refine(double* coeffs) const { (void)coeffs; }

  /// Whether Refine is a non-trivial operation. The contiguous-axis line
  /// walk stages a line for Refine only when this is true.
  virtual bool has_refinement() const { return false; }

  /// Reconstructs data from (possibly refined) coefficients. Exact inverse
  /// of Forward for noise-free coefficients.
  virtual void Inverse(const double* coeffs, double* out) const = 0;

  /// Single-line variants at an already-resolved kernel level `isa`
  /// (simd::ResolveIsa, done once per axis pass). Every level is
  /// bit-identical to the scalar fold — see simd/kernels.h — so these are
  /// performance overloads, not semantic ones. The defaults ignore `isa`
  /// (correct for transforms without vector kernels); HaarTransform
  /// overrides them and routes its plain overloads here at the ambient
  /// level.
  virtual void Forward(const double* in, double* out, double* scratch,
                       simd::IsaLevel isa) const {
    (void)isa;
    Forward(in, out, scratch);
  }
  virtual void Inverse(const double* coeffs, double* out, double* scratch,
                       simd::IsaLevel isa) const {
    (void)isa;
    Inverse(coeffs, out, scratch);
  }

  /// ---- The batched line kernel --------------------------------------
  /// Transforms `count` lines at once. Element k of line b lives at
  /// data[b + k * pitch] (pitch >= count), in the input and the output
  /// alike: consecutive lines along a non-contiguous matrix axis are this
  /// layout with pitch Stride(axis), so the line engine runs the kernel on
  /// the matrices themselves, and a gathered matrix::TileBuffer panel is
  /// the pitch == count case. `isa` selects the dispatched kernel table.
  /// Per line, both directions perform exactly the floating-point
  /// operations of the single-line entry points, so the results are
  /// bit-identical for every count, pitch and level.

  /// Elements of caller-provided scratch ForwardLines/InverseLines need
  /// for `count` lines.
  virtual std::size_t lines_scratch_size(std::size_t count) const = 0;

  /// Forward over `count` lines: `in` has input_size() rows, `out`
  /// coefficient_count() rows.
  virtual void ForwardLines(std::size_t count, const double* in, double* out,
                            std::size_t pitch, double* scratch,
                            simd::IsaLevel isa) const = 0;

  /// Refine, then Inverse, over `count` lines: `coeffs` has
  /// coefficient_count() rows, `out` input_size() rows. Never writes
  /// `coeffs` (the refinement works on a copy in scratch), so it can read
  /// a caller's coefficient matrix in place.
  virtual void InverseLines(std::size_t count, const double* coeffs,
                            double* out, std::size_t pitch, double* scratch,
                            simd::IsaLevel isa) const = 0;

  /// The weight W(c) of each coefficient (all weights are > 0).
  virtual const std::vector<double>& weights() const = 0;

  /// Generalized sensitivity of this transform w.r.t. weights(): changing
  /// one input entry by delta changes the weighted coefficient L1 norm by
  /// at most p_factor() * delta. (Lemma 2 / Lemma 4.)
  virtual double p_factor() const = 0;

  /// Variance factor: if each coefficient c carries independent noise of
  /// variance at most (sigma/W(c))^2, any range sum reconstructed from the
  /// coefficients has noise variance at most h_factor() * sigma^2.
  /// (Lemma 3 / Lemma 5.)
  virtual double h_factor() const = 0;

  /// Reconstruction coefficients of a range sum: fills `out`
  /// (coefficient_count() entries) with the unique a such that
  /// sum_{v in [lo, hi]} data[v] = sum_j a[j] * coeffs[j] for the exact
  /// coefficients of any data vector. Requires lo <= hi < input_size().
  /// Used by the exact query-variance calculator.
  virtual void RangeContribution(std::size_t lo, std::size_t hi,
                                 double* out) const = 0;

  /// The per-axis variance factor of the weighted sum a^T coeffs when each
  /// coefficient j carries independent noise of variance 1/W(j)^2 and the
  /// transform's Refine() step is applied before reconstruction: returns
  /// a^T P D P^T a with D = diag(1/W(j)^2) and P the linear map Refine
  /// performs (identity for transforms without refinement). The total
  /// noise variance of the range sum under Laplace magnitude lambda/W is
  /// 2*lambda^2 times the product of this quantity across axes.
  virtual double RefinedQuadraticForm(const double* a) const;
};

inline double Transform1D::RefinedQuadraticForm(const double* a) const {
  const std::vector<double>& w = weights();
  double total = 0.0;
  for (std::size_t j = 0; j < w.size(); ++j) {
    const double scaled = a[j] / w[j];
    total += scaled * scaled;
  }
  return total;
}

}  // namespace privelet::wavelet

#endif  // PRIVELET_WAVELET_TRANSFORM_H_
