// Statistical acceptance tests for noise calibration: fixed-seed
// sample-moment checks that the injected noise matches the calibrated
// λ = 2ρ/ε per coefficient weight — per weight class of the Haar
// decomposition, per cell on identity axes, and per query against the
// closed-form exact variance — plus distribution-shape checks of the raw
// unit draws (a KS test at every ISA level, and lag-1 correlation within
// and across ChaCha20 blocks). These replace "looks noisy" spot checks
// with tolerance bands derived from the variance of the sample variance
// (for Laplace, Var(s²) ≈ 5σ⁴/n, excess kurtosis 3) — shared with the
// planner accuracy suite via statistical_test_util.h.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <vector>

#include "statistical_test_util.h"

#include "privelet/analysis/query_variance.h"
#include "privelet/common/math_util.h"
#include "privelet/data/attribute.h"
#include "privelet/data/hierarchy.h"
#include "privelet/data/schema.h"
#include "privelet/matrix/frequency_matrix.h"
#include "privelet/mechanism/noise.h"
#include "privelet/mechanism/privelet_mechanism.h"
#include "privelet/query/publishing_session.h"
#include "privelet/query/range_query.h"
#include "privelet/rng/laplace.h"
#include "privelet/simd/dispatch.h"
#include "privelet/simd/kernels.h"
#include "privelet/wavelet/haar.h"

namespace privelet {
namespace {

using testutil::ExpectCenteredNoiseWithVariance;
using testutil::VarianceTolerance;

TEST(NoiseStatisticsTest, CounterLaplaceMatchesMoments) {
  // 2^17 draws span 1024 groups of 128; the pooled sample must look
  // Laplace(b): mean 0, variance 2b², half of the mass within b·ln 2 of 0.
  const std::size_t n = std::size_t{1} << 17;
  const double b = 3.0;
  std::vector<double> draws(n, 0.0);
  mechanism::AddLaplaceNoise(draws, b, rng::NoiseKey::FromSeed(404),
                             nullptr);

  EXPECT_NEAR(Mean(draws), 0.0, 0.05);
  EXPECT_NEAR(SampleVariance(draws) / (2.0 * b * b), 1.0,
              VarianceTolerance(n));
  const std::size_t within = static_cast<std::size_t>(
      std::count_if(draws.begin(), draws.end(), [b](double x) {
        return std::abs(x) <= b * std::log(2.0);
      }));
  EXPECT_NEAR(static_cast<double>(within) / static_cast<double>(n), 0.5,
              0.01);
}

std::vector<simd::IsaLevel> HostLevels() {
  std::vector<simd::IsaLevel> levels;
  for (int l = 0; l <= static_cast<int>(simd::DetectBestIsa()); ++l) {
    levels.push_back(static_cast<simd::IsaLevel>(l));
  }
  return levels;
}

TEST(NoiseStatisticsTest, UnitDrawsPassKolmogorovSmirnovAtEveryLevel) {
  // Two-sided KS test of 2^17 unit draws against the Laplace(1) CDF
  // F(x) = e^x / 2 (x < 0), 1 - e^-x / 2 (x >= 0). The critical value at
  // α = 0.001 is sqrt(-ln(α/2) / 2) / sqrt(n) ≈ 1.949 / sqrt(n).
  const std::size_t n = std::size_t{1} << 17;
  const double critical = 1.949 / std::sqrt(static_cast<double>(n));
  for (const simd::IsaLevel level : HostLevels()) {
    std::vector<double> draws(n);
    simd::Kernels(level).laplace_units(rng::NoiseKey::FromSeed(2026), 0, n,
                                       draws.data());
    std::sort(draws.begin(), draws.end());
    double d = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      const double x = draws[i];
      const double cdf =
          x < 0.0 ? 0.5 * std::exp(x) : 1.0 - 0.5 * std::exp(-x);
      d = std::max({d, std::abs(cdf - static_cast<double>(i) / n),
                    std::abs(static_cast<double>(i + 1) / n - cdf)});
    }
    EXPECT_LT(d, critical) << "level " << static_cast<int>(level);
  }
}

// Pearson correlation of (x[i], x[i + 1]) over the i that `keep` selects.
template <typename Keep>
double LagOneCorrelation(const std::vector<double>& x, Keep keep,
                         std::size_t* pairs) {
  std::vector<double> a, b;
  for (std::size_t i = 0; i + 1 < x.size(); ++i) {
    if (!keep(i)) continue;
    a.push_back(x[i]);
    b.push_back(x[i + 1]);
  }
  *pairs = a.size();
  const double ma = Mean(a), mb = Mean(b);
  double sab = 0.0, saa = 0.0, sbb = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    sab += (a[i] - ma) * (b[i] - mb);
    saa += (a[i] - ma) * (a[i] - ma);
    sbb += (b[i] - mb) * (b[i] - mb);
  }
  return sab / std::sqrt(saa * sbb);
}

TEST(NoiseStatisticsTest, NeighbouringDrawsAreUncorrelated) {
  // Draw i and i + 1 come from one ChaCha20 block (i mod 8 != 7) or from
  // consecutive blocks (i mod 8 == 7). Independent pairs give a sample
  // correlation of sd 1/sqrt(pairs); the band is 4.5 sd.
  const std::size_t n = std::size_t{1} << 17;
  std::vector<double> draws(n);
  simd::Kernels(simd::ResolveIsa())
      .laplace_units(rng::NoiseKey::FromSeed(31), 0, n, draws.data());
  std::size_t pairs = 0;
  const double within = LagOneCorrelation(
      draws, [](std::size_t i) { return i % 8 != 7; }, &pairs);
  EXPECT_NEAR(within, 0.0, 4.5 / std::sqrt(static_cast<double>(pairs)));
  const double across = LagOneCorrelation(
      draws, [](std::size_t i) { return i % 8 == 7; }, &pairs);
  EXPECT_NEAR(across, 0.0, 4.5 / std::sqrt(static_cast<double>(pairs)));
}

TEST(NoiseStatisticsTest, PriveletHaarNoisePerWeightClass) {
  // 1-D ordinal with |A| = 256 = 2^8 (no padding, so Forward of the
  // published matrix recovers the noisy coefficients exactly): coefficient
  // c of weight class W must carry Laplace noise of variance 2(λ/W)² with
  // λ = 2ρ/ε and ρ = 1 + log2 256 = 9.
  constexpr std::size_t kDomain = 256;
  constexpr double kEpsilon = 1.0;
  constexpr std::size_t kTrials = 400;
  const double lambda = 2.0 * 9.0 / kEpsilon;

  std::vector<data::Attribute> attrs;
  attrs.push_back(data::Attribute::Ordinal("A", kDomain));
  const data::Schema schema(std::move(attrs));
  const matrix::FrequencyMatrix zeros(schema.DomainSizes());
  const mechanism::PriveletMechanism privelet;
  const wavelet::HaarTransform haar(kDomain);

  // noise_by_class[0] = base coefficient; [i] = level-i coefficients.
  std::vector<std::vector<double>> noise_by_class(haar.levels() + 1);
  std::vector<double> coeffs(kDomain);
  for (std::uint64_t seed = 0; seed < kTrials; ++seed) {
    auto published = privelet.Publish(schema, zeros, kEpsilon, seed);
    ASSERT_TRUE(published.ok());
    haar.Forward(published->values().data(), coeffs.data());
    noise_by_class[0].push_back(coeffs[0]);
    for (std::size_t j = 1; j < kDomain; ++j) {
      noise_by_class[wavelet::HaarTransform::LevelOf(j)].push_back(coeffs[j]);
    }
  }

  const auto& weights = haar.weights();
  for (std::size_t cls = 0; cls < noise_by_class.size(); ++cls) {
    const auto& samples = noise_by_class[cls];
    // All coefficients of a class share one weight: W(base) = 256,
    // W(level i) = 2^(8 - i + 1).
    const double w =
        (cls == 0) ? weights[0] : weights[std::size_t{1} << (cls - 1)];
    const double target = 2.0 * (lambda / w) * (lambda / w);
    SCOPED_TRACE("weight class " + std::to_string(cls));
    ExpectCenteredNoiseWithVariance(samples, target);
  }
}

TEST(NoiseStatisticsTest, PriveletPlusIdentityAxisIsPerCellLaplace) {
  // SA = all attributes degenerates to Basic: every weight is 1, ρ = 1,
  // so each cell carries Laplace(2/ε) noise of variance 8/ε².
  constexpr double kEpsilon = 0.5;
  constexpr std::size_t kTrials = 30;
  std::vector<data::Attribute> attrs;
  attrs.push_back(data::Attribute::Ordinal("A", 64));
  attrs.push_back(data::Attribute::Ordinal("B", 64));
  const data::Schema schema(std::move(attrs));
  const matrix::FrequencyMatrix zeros(schema.DomainSizes());
  const mechanism::PriveletPlusMechanism plus({"A", "B"});

  std::vector<double> noise;
  noise.reserve(kTrials * 64 * 64);
  for (std::uint64_t seed = 0; seed < kTrials; ++seed) {
    auto published = plus.Publish(schema, zeros, kEpsilon, seed);
    ASSERT_TRUE(published.ok());
    noise.insert(noise.end(), published->values().begin(),
                 published->values().end());
  }
  ExpectCenteredNoiseWithVariance(noise, 8.0 / (kEpsilon * kEpsilon));
}

TEST(NoiseStatisticsTest, QueryNoiseMatchesExactVarianceOnMixedSchema) {
  // End-to-end: empirical variance of range-query noise (through nominal
  // refinement and reconstruction) must match the closed-form
  // ExactQueryNoiseVariance, not merely stay under the worst-case bound.
  constexpr double kEpsilon = 1.0;
  constexpr std::size_t kTrials = 500;
  std::vector<data::Attribute> attrs;
  attrs.push_back(data::Attribute::Ordinal("Ord", 16));
  attrs.push_back(data::Attribute::Nominal(
      "Nom", data::Hierarchy::Balanced({2, 3}).value()));
  const data::Schema schema(std::move(attrs));
  const matrix::FrequencyMatrix zeros(schema.DomainSizes());
  const mechanism::PriveletMechanism privelet;

  std::vector<query::RangeQuery> queries;
  query::RangeQuery full(2);
  queries.push_back(full);
  query::RangeQuery box(2);
  ASSERT_TRUE(box.SetRange(schema, 0, 3, 11).ok());
  ASSERT_TRUE(box.SetHierarchyNode(schema, 1, 1).ok());
  queries.push_back(box);
  query::RangeQuery point(2);
  ASSERT_TRUE(point.SetRange(schema, 0, 5, 5).ok());
  ASSERT_TRUE(point.SetHierarchyNode(schema, 1, 3).ok());
  queries.push_back(point);

  std::vector<std::vector<double>> noise(queries.size());
  for (std::uint64_t seed = 0; seed < kTrials; ++seed) {
    auto release = query::PublishingSession::Publish(schema, privelet, zeros,
                                                     kEpsilon, seed);
    ASSERT_TRUE(release.ok());
    for (std::size_t q = 0; q < queries.size(); ++q) {
      noise[q].push_back(release->Answer(queries[q]));
    }
  }
  for (std::size_t q = 0; q < queries.size(); ++q) {
    auto exact =
        analysis::PriveletPlusQueryVariance(schema, {}, kEpsilon, queries[q]);
    ASSERT_TRUE(exact.ok());
    EXPECT_NEAR(SampleVariance(noise[q]) / *exact, 1.0,
                VarianceTolerance(kTrials))
        << "query " << q;
  }
}

}  // namespace
}  // namespace privelet
