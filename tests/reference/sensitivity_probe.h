// Empirical generalized-sensitivity probe (Definition 3), the reference
// sensitivity_test compares the paper's Lemma 2, Lemma 4 and Theorem 2
// against on concrete transforms: perturb single entries of random
// matrices and measure the weighted L1 change of the coefficients.
#ifndef PRIVELET_TESTS_REFERENCE_SENSITIVITY_PROBE_H_
#define PRIVELET_TESTS_REFERENCE_SENSITIVITY_PROBE_H_

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "privelet/common/result.h"
#include "privelet/matrix/frequency_matrix.h"
#include "privelet/rng/splitmix64.h"
#include "privelet/rng/xoshiro256pp.h"
#include "privelet/wavelet/hn_transform.h"

namespace privelet::analysis {

struct SensitivityProbeOptions {
  std::size_t num_trials = 32;  ///< random (matrix, entry) pairs probed
  double delta = 1.0;           ///< perturbation size
  std::uint64_t seed = 11;
};

/// Returns the maximum observed Σ_c W(c)·|c(M) - c(M')| / δ over random
/// matrices M and single-entry perturbations M'. For the paper's
/// transforms this is the exact generalized sensitivity (the per-entry
/// change is data-independent), so the probe should match
/// HnTransform::GeneralizedSensitivity() to rounding error.
inline Result<double> ProbeGeneralizedSensitivity(
    const wavelet::HnTransform& transform,
    const SensitivityProbeOptions& options) {
  if (options.delta <= 0.0) {
    return Status::InvalidArgument("delta must be positive");
  }
  rng::Xoshiro256pp gen(rng::DeriveSeed(options.seed, 0x5E25));

  matrix::FrequencyMatrix base(transform.input_dims());
  double max_ratio = 0.0;
  for (std::size_t trial = 0; trial < options.num_trials; ++trial) {
    for (std::size_t i = 0; i < base.size(); ++i) {
      base[i] = static_cast<double>(gen.NextUint64InRange(0, 16));
    }
    PRIVELET_ASSIGN_OR_RETURN(wavelet::HnCoefficients before,
                              transform.Forward(base));

    const std::size_t entry = static_cast<std::size_t>(
        gen.NextUint64InRange(0, base.size() - 1));
    base[entry] += options.delta;
    PRIVELET_ASSIGN_OR_RETURN(wavelet::HnCoefficients after,
                              transform.Forward(base));
    base[entry] -= options.delta;

    double weighted_l1 = 0.0;
    const auto& before_values = before.coeffs.values();
    const auto& after_values = after.coeffs.values();
    before.ForEachCoefficient([&](std::size_t flat, double weight) {
      weighted_l1 += weight * std::abs(after_values[flat] - before_values[flat]);
    });
    max_ratio = std::max(max_ratio, weighted_l1 / options.delta);
  }
  return max_ratio;
}

}  // namespace privelet::analysis

#endif  // PRIVELET_TESTS_REFERENCE_SENSITIVITY_PROBE_H_
