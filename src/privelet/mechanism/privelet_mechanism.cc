#include "privelet/mechanism/privelet_mechanism.h"

#include "privelet/mechanism/noise.h"
#include "privelet/rng/splitmix64.h"
#include "privelet/rng/xoshiro256pp.h"
#include "privelet/simd/kernels.h"

namespace privelet::mechanism {

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
  const std::uint64_t noise_seed = rng::DeriveSeed(seed, 0x9121E7);

  // Step 1: wavelet transform.
  PRIVELET_ASSIGN_OR_RETURN(wavelet::HnCoefficients coefficients,
                            transform.Forward(m, pool, options));

  // Steps 2+3: Laplace noise of magnitude λ / WHN(c) per coefficient,
  // then refine (mean subtraction on nominal axes, inside Inverse) and
  // reconstruct the noisy frequency matrix. The draw at a coefficient
  // depends only on (seed, flat index) — fixed kNoiseShardSize-wide shards
  // on per-shard jump streams, see mechanism/noise.h — so the release is
  // bit-identical whatever the pool. The injection is fused into the
  // first Inverse axis pass: each worker perturbs its coefficient panels
  // while they are cache-hot, drawing through a cursor that reproduces
  // the sharded stream scheme index-for-index.
  const std::vector<rng::Xoshiro256pp> streams = rng::MakeJumpStreams(
      noise_seed, NumNoiseShards(coefficients.coeffs.size()));
  const simd::KernelTable& kernels =
      simd::Kernels(simd::ResolveIsa(options.isa));
  const wavelet::PanelNoiseFactory noise_factory = [&]() {
    // Both cursors advance monotonically across the chunk's panels. The
    // unit buffer grows to the chunk's panel size on the first call and is
    // reused after that. Batching changes no bits: the per-index draw is
    // (lambda/weight) * unit = one rounding of the same real product
    // LaplaceAt evaluates (see NoiseStreamCursor::UnitLaplaceRun).
    return [lambda, &kernels, draws = NoiseStreamCursor(streams),
            weights = wavelet::HnWeightCursor(coefficients),
            unit = std::vector<double>()](
               std::size_t begin, std::size_t end, double* panel) mutable {
      if (unit.size() < end - begin) unit.resize(end - begin);
      draws.UnitLaplaceRun(begin, end - begin, unit.data(), kernels);
      weights.ForEachInRange(
          begin, end, [&](std::size_t flat, double weight) {
            panel[flat - begin] += (lambda / weight) * unit[flat - begin];
          });
    };
  };
  return transform.Inverse(coefficients, pool, options, noise_factory);
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
