#include "privelet/wavelet/identity.h"

#include <algorithm>

#include "privelet/common/check.h"

namespace privelet::wavelet {

IdentityTransform::IdentityTransform(std::size_t n)
    : n_(n), weights_(n, 1.0) {
  PRIVELET_CHECK(n >= 1, "identity input size must be >= 1");
}

void IdentityTransform::Forward(const double* in, double* out) const {
  std::copy(in, in + n_, out);
}

void IdentityTransform::Inverse(const double* coeffs, double* out) const {
  std::copy(coeffs, coeffs + n_, out);
}

void IdentityTransform::ForwardLines(std::size_t count, const double* in,
                                     double* out, std::size_t pitch,
                                     double* scratch,
                                     simd::IsaLevel isa) const {
  InverseLines(count, in, out, pitch, scratch, isa);
}

void IdentityTransform::InverseLines(std::size_t count, const double* coeffs,
                                     double* out, std::size_t pitch,
                                     double* scratch,
                                     simd::IsaLevel isa) const {
  (void)scratch;
  (void)isa;
  for (std::size_t k = 0; k < n_; ++k) {
    std::copy(coeffs + k * pitch, coeffs + k * pitch + count, out + k * pitch);
  }
}

void IdentityTransform::RangeContribution(std::size_t lo, std::size_t hi,
                                          double* out) const {
  PRIVELET_CHECK(lo <= hi && hi < n_, "bad range");
  std::fill(out, out + n_, 0.0);
  std::fill(out + lo, out + hi + 1, 1.0);
}

}  // namespace privelet::wavelet
