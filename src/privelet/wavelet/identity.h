// Identity "transform": coefficients are the data entries themselves, every
// weight is 1. Used to express Privelet+'s sub-matrix splitting (paper
// Fig. 5): running the HN transform with the identity on every axis in SA
// is exactly "divide M along SA and transform each sub-matrix", and with
// the identity on *all* axes it degenerates to Dwork et al.'s Basic
// mechanism. P(A) = 1 (one coefficient changes, by delta, with weight 1);
// H(A) = |A| (a range may cover all |A| unit-weight coefficients).
#ifndef PRIVELET_WAVELET_IDENTITY_H_
#define PRIVELET_WAVELET_IDENTITY_H_

#include <cstddef>
#include <vector>

#include "privelet/wavelet/transform.h"

namespace privelet::wavelet {

class IdentityTransform final : public Transform1D {
 public:
  explicit IdentityTransform(std::size_t n);

  std::string_view name() const override { return "identity"; }
  std::size_t input_size() const override { return n_; }
  std::size_t coefficient_count() const override { return n_; }

  void Forward(const double* in, double* out) const override;
  void Inverse(const double* coeffs, double* out) const override;

  /// The batched kernel (see Transform1D): a row copy.
  std::size_t lines_scratch_size(std::size_t count) const override {
    (void)count;
    return 0;
  }
  void ForwardLines(std::size_t count, const double* in, double* out,
                    std::size_t pitch, double* scratch,
                    simd::IsaLevel isa) const override;
  void InverseLines(std::size_t count, const double* coeffs, double* out,
                    std::size_t pitch, double* scratch,
                    simd::IsaLevel isa) const override;

  /// Indicator of the range: coefficients are the entries themselves.
  void RangeContribution(std::size_t lo, std::size_t hi,
                         double* out) const override;

  const std::vector<double>& weights() const override { return weights_; }

  double p_factor() const override { return 1.0; }
  double h_factor() const override { return static_cast<double>(n_); }

 private:
  std::size_t n_;
  std::vector<double> weights_;
};

}  // namespace privelet::wavelet

#endif  // PRIVELET_WAVELET_IDENTITY_H_
