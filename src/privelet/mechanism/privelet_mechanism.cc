#include "privelet/mechanism/privelet_mechanism.h"

#include <algorithm>
#include <utility>

#include "privelet/rng/laplace.h"
#include "privelet/rng/splitmix64.h"
#include "privelet/simd/kernels.h"

namespace privelet::mechanism {

namespace {

// The fused noise draws runs of at least this many consecutive indices
// from an 8-aligned start, so short coefficient lines share whole 128-draw
// ChaCha20 groups instead of each computing a partial one.
constexpr std::size_t kMinNoiseRun = 128;

}  // namespace

PriveletPlusMechanism::PriveletPlusMechanism(std::vector<std::string> sa_names)
    : sa_names_(std::move(sa_names)) {
  if (sa_names_.empty()) {
    name_ = "Privelet";
  } else {
    name_ = "Privelet+{";
    for (std::size_t i = 0; i < sa_names_.size(); ++i) {
      if (i > 0) name_ += ",";
      name_ += sa_names_[i];
    }
    name_ += "}";
  }
}

Result<std::vector<std::size_t>> PriveletPlusMechanism::ResolveSa(
    const data::Schema& schema) const {
  std::vector<std::size_t> axes;
  axes.reserve(sa_names_.size());
  for (const std::string& name : sa_names_) {
    PRIVELET_ASSIGN_OR_RETURN(std::size_t axis, schema.FindAttribute(name));
    axes.push_back(axis);
  }
  return axes;
}

Result<double> PriveletPlusMechanism::LaplaceMagnitude(
    const data::Schema& schema, double epsilon) const {
  PRIVELET_RETURN_IF_ERROR(CheckEpsilon(epsilon));
  PRIVELET_ASSIGN_OR_RETURN(std::vector<std::size_t> sa, ResolveSa(schema));
  PRIVELET_ASSIGN_OR_RETURN(wavelet::HnTransform transform,
                            wavelet::HnTransform::Create(schema, sa));
  // Lemma 1: magnitude 2ρ/ε over weight W(c) yields ε-DP.
  return 2.0 * transform.GeneralizedSensitivity() / epsilon;
}

Result<matrix::FrequencyMatrix> PriveletPlusMechanism::Publish(
    const data::Schema& schema, const matrix::FrequencyMatrix& m,
    double epsilon, std::uint64_t seed) const {
  PRIVELET_RETURN_IF_ERROR(CheckPublishArgs(schema, m, epsilon));
  PRIVELET_ASSIGN_OR_RETURN(std::vector<std::size_t> sa, ResolveSa(schema));
  PRIVELET_ASSIGN_OR_RETURN(wavelet::HnTransform transform,
                            wavelet::HnTransform::Create(schema, sa));
  const double lambda =
      2.0 * transform.GeneralizedSensitivity() / epsilon;

  common::ThreadPool* pool = thread_pool();
  const matrix::EngineOptions& options = engine_options();
  const rng::NoiseKey key =
      rng::NoiseKey::FromSeed(rng::DeriveSeed(seed, 0x9121E7));

  // Step 1: wavelet transform.
  PRIVELET_ASSIGN_OR_RETURN(wavelet::HnCoefficients coefficients,
                            transform.Forward(m, pool, options));

  // Steps 2+3: Laplace noise of magnitude λ / WHN(c) per coefficient,
  // then refine (mean subtraction on nominal axes, inside Inverse) and
  // reconstruct the noisy frequency matrix. The draw at a coefficient is
  // unit(key, flat index) (rng/laplace.h), so the release is
  // bit-identical whatever the pool or ISA level. The injection is fused
  // into the first Inverse axis pass, whose lines run along the last
  // axis: each worker perturbs its coefficient lines while they are
  // cache-hot. The coefficients are moved into Inverse, which recycles
  // their storage once that pass has consumed them, so the closure reads
  // only what it copied out of them here.
  const simd::KernelTable& kernels = simd::Kernels(simd::ResolveIsa());
  const std::size_t total = coefficients.coeffs.size();
  const std::size_t line_len = coefficients.coeffs.dims().back();
  const std::vector<double>& last_weights = *coefficients.axis_weights.back();
  const wavelet::LineWeights line_weight = coefficients.line_weights();
  const wavelet::PanelNoiseFactory noise_factory = [&]() {
    return [&kernels, &key, &line_weight, &last_weights, lambda, total,
            line_len, unit = std::vector<double>(),
            unit_first = std::size_t{0}, unit_end = std::size_t{0}](
               std::size_t begin, std::size_t end, double* panel) mutable {
      if (begin < unit_first || end > unit_end) {
        unit_first = begin - begin % 8;
        unit_end = std::min(total, unit_first + std::max(kMinNoiseRun,
                                                         end - unit_first));
        unit.resize(std::max(unit.size(), unit_end - unit_first));
        kernels.laplace_units(key, unit_first, unit_end - unit_first,
                              unit.data());
      }
      for (std::size_t flat = begin; flat < end;) {
        const std::size_t line = flat / line_len;
        const std::size_t col = flat - line * line_len;
        const std::size_t count = std::min(end - flat, line_len - col);
        const double partial = line_weight(line);
        double* values = panel + (flat - begin);
        const double* u = unit.data() + (flat - unit_first);
        const double* w = last_weights.data() + col;
        for (std::size_t j = 0; j < count; ++j) {
          values[j] += (lambda / (partial * w[j])) * u[j];
        }
        flat += count;
      }
    };
  };
  return transform.Inverse(std::move(coefficients), pool, options,
                           noise_factory);
}

Result<double> PriveletPlusMechanism::NoiseVarianceBound(
    const data::Schema& schema, double epsilon) const {
  PRIVELET_RETURN_IF_ERROR(CheckEpsilon(epsilon));
  PRIVELET_ASSIGN_OR_RETURN(std::vector<std::size_t> sa, ResolveSa(schema));
  PRIVELET_ASSIGN_OR_RETURN(wavelet::HnTransform transform,
                            wavelet::HnTransform::Create(schema, sa));
  // Theorem 3 with σ² = 2λ² (Laplace variance), λ = 2ρ/ε. Identity axes
  // contribute P = 1 and H = |A|, which reproduces Eq. 7 exactly.
  const double rho = transform.GeneralizedSensitivity();
  const double sigma_sq = 2.0 * (2.0 * rho / epsilon) * (2.0 * rho / epsilon);
  return sigma_sq * transform.VarianceBoundFactor();
}

}  // namespace privelet::mechanism
