#include "privelet/mechanism/fourier_marginals.h"

#include <algorithm>
#include <set>

#include "privelet/common/check.h"
#include "privelet/mechanism/mechanism.h"
#include "privelet/rng/laplace.h"
#include "privelet/rng/splitmix64.h"
#include "privelet/simd/kernels.h"

namespace privelet::mechanism {

namespace {

// Parity of the bits of v (0 or 1).
inline int Parity(std::uint64_t v) { return __builtin_parityll(v); }

}  // namespace

void WalshHadamardTransform(std::vector<double>* values) {
  const std::size_t n = values->size();
  PRIVELET_CHECK(n != 0 && (n & (n - 1)) == 0, "WHT needs a 2^d vector");
  auto& v = *values;
  for (std::size_t half = 1; half < n; half <<= 1) {
    for (std::size_t block = 0; block < n; block += 2 * half) {
      for (std::size_t i = block; i < block + half; ++i) {
        const double a = v[i];
        const double b = v[i + half];
        v[i] = a + b;
        v[i + half] = a - b;
      }
    }
  }
}

FourierMarginalMechanism::FourierMarginalMechanism(
    std::vector<std::vector<std::size_t>> marginal_sets)
    : marginal_sets_(std::move(marginal_sets)) {
  // Downward closure of the requested subsets, as attribute-index masks.
  std::set<std::uint64_t> closure;
  for (const auto& attributes : marginal_sets_) {
    std::uint64_t mask = 0;
    for (std::size_t a : attributes) {
      PRIVELET_CHECK(a < 64, "attribute index too large");
      mask |= std::uint64_t{1} << a;
    }
    // Enumerate all submasks of `mask` (including 0 and mask itself).
    std::uint64_t sub = mask;
    while (true) {
      closure.insert(sub);
      if (sub == 0) break;
      sub = (sub - 1) & mask;
    }
  }
  closure_.assign(closure.begin(), closure.end());
}

Result<std::vector<Marginal>> FourierMarginalMechanism::Publish(
    const matrix::FrequencyMatrix& m, double epsilon,
    std::uint64_t seed) const {
  PRIVELET_RETURN_IF_ERROR(CheckEpsilon(epsilon));
  const std::size_t d = m.num_dims();
  for (std::size_t axis = 0; axis < d; ++axis) {
    if (m.dim(axis) != 2) {
      return Status::InvalidArgument(
          "the Fourier marginal mechanism requires binary attributes");
    }
  }
  if (d >= 30) {
    return Status::InvalidArgument("too many attributes (2^d cells)");
  }
  for (const auto& attributes : marginal_sets_) {
    if (attributes.empty()) {
      return Status::InvalidArgument("empty marginal subset");
    }
    for (std::size_t i = 0; i < attributes.size(); ++i) {
      if (attributes[i] >= d ||
          (i > 0 && attributes[i] <= attributes[i - 1])) {
        return Status::InvalidArgument(
            "marginal subsets must be ascending in-range attribute indices");
      }
    }
  }

  // Full Walsh-Hadamard transform of the frequency vector. Axis a of the
  // row-major matrix corresponds to bit (d-1-a) of the flat index.
  std::vector<double> fhat(m.values().begin(), m.values().end());
  WalshHadamardTransform(&fhat);
  auto flat_mask_of = [d](std::uint64_t attribute_mask) {
    std::uint64_t flat = 0;
    for (std::size_t a = 0; a < d; ++a) {
      if (attribute_mask & (std::uint64_t{1} << a)) {
        flat |= std::uint64_t{1} << (d - 1 - a);
      }
    }
    return flat;
  };

  // Release exactly the closure coefficients with calibrated noise; all
  // other coefficients stay private and unused.
  const double lambda =
      2.0 * static_cast<double>(closure_.size()) / epsilon;
  // Coefficient i of the closure draws index i of the Fourier key.
  std::vector<double> released(closure_.size());
  simd::Kernels(simd::ResolveIsa())
      .laplace_units(rng::NoiseKey::FromSeed(rng::DeriveSeed(seed, 0xF0C5)),
                     0, released.size(), released.data());
  for (std::size_t i = 0; i < closure_.size(); ++i) {
    released[i] = fhat[flat_mask_of(closure_[i])] + lambda * released[i];
  }
  auto released_value = [&](std::uint64_t attribute_mask) {
    const auto it = std::lower_bound(closure_.begin(), closure_.end(),
                                     attribute_mask);
    PRIVELET_CHECK(it != closure_.end() && *it == attribute_mask,
                   "coefficient not in closure");
    return released[static_cast<std::size_t>(it - closure_.begin())];
  };

  // Reconstruct each marginal from the shared noisy coefficients:
  //   marginal_S(y) = 2^-|S| * sum_{alpha subset S} fhat_alpha chi_alpha(y).
  std::vector<Marginal> marginals;
  marginals.reserve(marginal_sets_.size());
  for (const auto& attributes : marginal_sets_) {
    std::uint64_t s_mask = 0;
    for (std::size_t a : attributes) s_mask |= std::uint64_t{1} << a;
    const std::size_t arity = attributes.size();
    Marginal marginal;
    marginal.attributes = attributes;
    marginal.counts.assign(std::size_t{1} << arity, 0.0);
    for (std::size_t y = 0; y < marginal.counts.size(); ++y) {
      // Expand the packed marginal cell y to an attribute-mask of the
      // attributes set to 1.
      std::uint64_t y_mask = 0;
      for (std::size_t i = 0; i < arity; ++i) {
        if (y & (std::size_t{1} << i)) {
          y_mask |= std::uint64_t{1} << attributes[i];
        }
      }
      double sum = 0.0;
      std::uint64_t alpha = s_mask;
      while (true) {
        const double sign = Parity(alpha & y_mask) ? -1.0 : 1.0;
        sum += sign * released_value(alpha);
        if (alpha == 0) break;
        alpha = (alpha - 1) & s_mask;
      }
      marginal.counts[y] =
          sum / static_cast<double>(std::size_t{1} << arity);
    }
    marginals.push_back(std::move(marginal));
  }
  return marginals;
}

Result<double> FourierMarginalMechanism::MarginalEntryVarianceBound(
    std::size_t num_dims, std::size_t marginal_arity, double epsilon) const {
  PRIVELET_RETURN_IF_ERROR(CheckEpsilon(epsilon));
  if (marginal_arity > num_dims) {
    return Status::InvalidArgument("marginal arity exceeds dimensionality");
  }
  // Entry = 2^-|S| * (sum of 2^|S| independent Laplace(2k/eps) noises).
  const double k = static_cast<double>(closure_.size());
  const double lambda = 2.0 * k / epsilon;
  const double coeff_count =
      static_cast<double>(std::size_t{1} << marginal_arity);
  return coeff_count * 2.0 * lambda * lambda / (coeff_count * coeff_count);
}

}  // namespace privelet::mechanism
