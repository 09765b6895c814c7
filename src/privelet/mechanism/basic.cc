#include "privelet/mechanism/basic.h"

#include <cmath>
#include <span>

#include "privelet/mechanism/noise.h"
#include "privelet/rng/splitmix64.h"

namespace privelet::mechanism {

Status CheckEpsilon(double epsilon) {
  if (!(std::isfinite(epsilon) && epsilon > 0.0)) {
    return Status::InvalidArgument("epsilon must be a finite value > 0");
  }
  return Status::OK();
}

Status CheckPublishArgs(const data::Schema& schema,
                        const matrix::FrequencyMatrix& m, double epsilon) {
  PRIVELET_RETURN_IF_ERROR(CheckEpsilon(epsilon));
  if (m.dims() != schema.DomainSizes()) {
    return Status::InvalidArgument(
        "frequency matrix dims do not match the schema");
  }
  return Status::OK();
}

Result<matrix::FrequencyMatrix> BasicMechanism::Publish(
    const data::Schema& schema, const matrix::FrequencyMatrix& m,
    double epsilon, std::uint64_t seed) const {
  PRIVELET_RETURN_IF_ERROR(CheckPublishArgs(schema, m, epsilon));
  // Sensitivity of the frequency matrix is 2 (one tuple change moves two
  // entries by one each), so Laplace magnitude 2/ε gives ε-DP (Theorem 1).
  const double lambda = 2.0 / epsilon;
  matrix::FrequencyMatrix noisy = m;
  AddLaplaceNoise(noisy.values(), lambda,
                  rng::NoiseKey::FromSeed(rng::DeriveSeed(seed, 0xBA51C)),
                  thread_pool());
  return noisy;
}

Result<double> BasicMechanism::NoiseVarianceBound(const data::Schema& schema,
                                                  double epsilon) const {
  PRIVELET_RETURN_IF_ERROR(CheckEpsilon(epsilon));
  const double m = static_cast<double>(schema.TotalDomainSize());
  return 8.0 * m / (epsilon * epsilon);
}

}  // namespace privelet::mechanism
