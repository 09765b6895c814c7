// Tests for the exact per-query noise-variance calculator and the
// workload-aware SA planner. The calculator is validated three ways:
// (i) against hand-computed values on tiny transforms, (ii) against tight
// statistical measurements of the actual mechanism, and (iii) against the
// Theorem 3 worst-case bound it must never exceed.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "privelet/analysis/query_variance.h"
#include "privelet/analysis/workload_planner.h"
#include "privelet/common/math_util.h"
#include "privelet/data/attribute.h"
#include "privelet/matrix/frequency_matrix.h"
#include "privelet/mechanism/privelet_mechanism.h"
#include "privelet/query/publishing_session.h"
#include "privelet/query/workload.h"
#include "privelet/rng/xoshiro256pp.h"
#include "privelet/wavelet/haar.h"
#include "privelet/wavelet/nominal.h"

namespace privelet::analysis {
namespace {

data::Schema OrdinalSchema(std::size_t domain) {
  std::vector<data::Attribute> attrs;
  attrs.push_back(data::Attribute::Ordinal("A", domain));
  return data::Schema(std::move(attrs));
}

TEST(RangeContributionTest, HaarFullRangeIsBaseOnly) {
  // Sum over the full (power-of-two) domain = m * c0; every detail
  // coefficient has equal left/right overlap.
  wavelet::HaarTransform haar(8);
  std::vector<double> a(8);
  haar.RangeContribution(0, 7, a.data());
  EXPECT_DOUBLE_EQ(a[0], 8.0);
  for (std::size_t j = 1; j < 8; ++j) EXPECT_DOUBLE_EQ(a[j], 0.0);
}

TEST(RangeContributionTest, HaarReconstructsRangeSums) {
  // a^T coeffs must equal the range sum for random data and all ranges.
  const std::size_t n = 16;
  wavelet::HaarTransform haar(n);
  rng::Xoshiro256pp gen(3);
  std::vector<double> data(n), coeffs(n), a(n);
  for (auto& v : data) v = static_cast<double>(gen.NextUint64InRange(0, 9));
  haar.Forward(data.data(), coeffs.data());
  for (std::size_t lo = 0; lo < n; ++lo) {
    for (std::size_t hi = lo; hi < n; ++hi) {
      haar.RangeContribution(lo, hi, a.data());
      double weighted = 0.0, direct = 0.0;
      for (std::size_t j = 0; j < n; ++j) weighted += a[j] * coeffs[j];
      for (std::size_t v = lo; v <= hi; ++v) direct += data[v];
      EXPECT_NEAR(weighted, direct, 1e-9) << lo << ".." << hi;
    }
  }
}

TEST(RangeContributionTest, HaarPaddedDomain) {
  // Non-power-of-two domain: contributions computed on the padded tree
  // must still reconstruct sums over the real domain.
  const std::size_t n = 11;
  wavelet::HaarTransform haar(n);
  rng::Xoshiro256pp gen(5);
  std::vector<double> data(n), coeffs(haar.coefficient_count()),
      a(haar.coefficient_count());
  for (auto& v : data) v = static_cast<double>(gen.NextUint64InRange(0, 9));
  haar.Forward(data.data(), coeffs.data());
  haar.RangeContribution(2, 9, a.data());
  double weighted = 0.0, direct = 0.0;
  for (std::size_t j = 0; j < a.size(); ++j) weighted += a[j] * coeffs[j];
  for (std::size_t v = 2; v <= 9; ++v) direct += data[v];
  EXPECT_NEAR(weighted, direct, 1e-9);
}

TEST(RangeContributionTest, NominalReconstructsRangeSums) {
  auto hierarchy = std::make_shared<const data::Hierarchy>(
      data::Hierarchy::Balanced({2, 3}).value());
  wavelet::NominalTransform transform(hierarchy);
  const std::vector<double> data = {9, 3, 6, 2, 8, 2};
  std::vector<double> coeffs(9), a(9);
  transform.Forward(data.data(), coeffs.data());
  for (std::size_t lo = 0; lo < 6; ++lo) {
    for (std::size_t hi = lo; hi < 6; ++hi) {
      transform.RangeContribution(lo, hi, a.data());
      double weighted = 0.0, direct = 0.0;
      for (std::size_t j = 0; j < 9; ++j) weighted += a[j] * coeffs[j];
      for (std::size_t v = lo; v <= hi; ++v) direct += data[v];
      EXPECT_NEAR(weighted, direct, 1e-9) << lo << ".." << hi;
    }
  }
}

TEST(RangeContributionTest, NominalSingleLeafMatchesEq5) {
  // Leaf v1 of the Fig. 3 hierarchy: v1 = c3 + c1/3 + c0/6.
  auto hierarchy = std::make_shared<const data::Hierarchy>(
      data::Hierarchy::Balanced({2, 3}).value());
  wavelet::NominalTransform transform(hierarchy);
  std::vector<double> a(9);
  transform.RangeContribution(0, 0, a.data());
  EXPECT_NEAR(a[0], 1.0 / 6.0, 1e-12);
  EXPECT_NEAR(a[1], 1.0 / 3.0, 1e-12);
  EXPECT_DOUBLE_EQ(a[2], 0.0);
  EXPECT_DOUBLE_EQ(a[3], 1.0);
  for (std::size_t j = 4; j < 9; ++j) EXPECT_DOUBLE_EQ(a[j], 0.0);
}

// Brute-force validation of RefinedQuadraticForm: build the refinement's
// linear map P column by column (apply Refine to basis vectors), then
// compare a^T P D P^T a computed explicitly against the closed form.
class RefinedQuadraticFormTest
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RefinedQuadraticFormTest, MatchesExplicitCovariance) {
  rng::Xoshiro256pp gen(GetParam());
  const std::size_t f1 = gen.NextUint64InRange(2, 4);
  const std::size_t f2 = gen.NextUint64InRange(2, 4);
  auto hierarchy = std::make_shared<const data::Hierarchy>(
      data::Hierarchy::Balanced({f1, f2}).value());
  wavelet::NominalTransform transform(hierarchy);
  const std::size_t k = transform.coefficient_count();

  // Columns of P: Refine applied to each basis vector.
  std::vector<std::vector<double>> p(k, std::vector<double>(k, 0.0));
  for (std::size_t j = 0; j < k; ++j) {
    std::vector<double> basis(k, 0.0);
    basis[j] = 1.0;
    transform.Refine(basis.data());
    for (std::size_t i = 0; i < k; ++i) p[i][j] = basis[i];
  }

  // Random contribution vector.
  std::vector<double> a(k);
  for (auto& v : a) {
    v = static_cast<double>(gen.NextUint64InRange(0, 20)) / 4.0 - 2.0;
  }

  // Explicit a^T P D P^T a = sum_j D_jj * (sum_i a_i P_ij)^2.
  const auto& w = transform.weights();
  double expected = 0.0;
  for (std::size_t j = 0; j < k; ++j) {
    double dot = 0.0;
    for (std::size_t i = 0; i < k; ++i) dot += a[i] * p[i][j];
    expected += dot * dot / (w[j] * w[j]);
  }
  EXPECT_NEAR(transform.RefinedQuadraticForm(a.data()), expected, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RefinedQuadraticFormTest,
                         ::testing::Range<std::uint64_t>(0, 10));

TEST(ExactVarianceTest, IdentityAxisMatchesBasicFormula) {
  // All-identity transform = Basic: a k-cell query has variance
  // 2*lambda^2*k.
  const data::Schema schema = OrdinalSchema(16);
  auto transform = wavelet::HnTransform::Create(schema, {0});
  ASSERT_TRUE(transform.ok());
  query::RangeQuery q(1);
  ASSERT_TRUE(q.SetRange(schema, 0, 3, 9).ok());  // 7 cells
  auto variance = ExactQueryNoiseVariance(*transform, schema, 2.0, q);
  ASSERT_TRUE(variance.ok());
  EXPECT_DOUBLE_EQ(*variance, 2.0 * 4.0 * 7.0);
}

TEST(ExactVarianceTest, NeverExceedsTheorem3Bound) {
  // Mixed 2-D schema: the exact variance of every query in a random
  // workload stays below sigma^2 * prod H (Theorem 3).
  std::vector<data::Attribute> attrs;
  attrs.push_back(data::Attribute::Ordinal("O", 16));
  attrs.push_back(data::Attribute::Nominal(
      "N", data::Hierarchy::Balanced({2, 3}).value()));
  const data::Schema schema(std::move(attrs));
  auto transform = wavelet::HnTransform::Create(schema);
  ASSERT_TRUE(transform.ok());
  const double lambda = 5.0;
  const double bound =
      2.0 * lambda * lambda * transform->VarianceBoundFactor();

  query::WorkloadOptions wopts;
  wopts.num_queries = 300;
  auto workload = query::GenerateWorkload(schema, wopts);
  ASSERT_TRUE(workload.ok());
  for (const auto& q : *workload) {
    auto variance = ExactQueryNoiseVariance(*transform, schema, lambda, q);
    ASSERT_TRUE(variance.ok());
    EXPECT_LE(*variance, bound * (1.0 + 1e-9));
    EXPECT_GE(*variance, 0.0);
  }
}

// The decisive test: the calculator must match the measured noise variance
// of the real mechanism (tight tolerance, many trials).
class ExactVarianceMeasurementTest
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ExactVarianceMeasurementTest, MatchesMeasuredVariance) {
  rng::Xoshiro256pp gen(GetParam());
  // Random small mixed schema.
  std::vector<data::Attribute> attrs;
  attrs.push_back(data::Attribute::Ordinal(
      "O", gen.NextUint64InRange(2, 10)));
  attrs.push_back(data::Attribute::Nominal(
      "N", data::Hierarchy::Balanced(
               {gen.NextUint64InRange(2, 3), gen.NextUint64InRange(2, 3)})
               .value()));
  const data::Schema schema(std::move(attrs));

  matrix::FrequencyMatrix m(schema.DomainSizes());
  for (std::size_t i = 0; i < m.size(); ++i) {
    m[i] = static_cast<double>(gen.NextUint64InRange(0, 20));
  }

  // Random query.
  query::WorkloadOptions wopts;
  wopts.num_queries = 1;
  wopts.seed = GetParam() + 100;
  auto workload = query::GenerateWorkload(schema, wopts);
  ASSERT_TRUE(workload.ok());
  const query::RangeQuery& q = workload->front();

  const mechanism::PriveletMechanism privelet;
  const double epsilon = 1.0;
  auto transform = wavelet::HnTransform::Create(schema);
  ASSERT_TRUE(transform.ok());
  const double lambda = 2.0 * transform->GeneralizedSensitivity() / epsilon;
  auto predicted = ExactQueryNoiseVariance(*transform, schema, lambda, q);
  ASSERT_TRUE(predicted.ok());

  const double truth =
      query::PublishingSession::FromMatrix(schema, m)->Answer(q);
  std::vector<double> noise;
  constexpr std::size_t kTrials = 1200;
  for (std::size_t seed = 0; seed < kTrials; ++seed) {
    auto release =
        query::PublishingSession::Publish(schema, privelet, m, epsilon, seed);
    ASSERT_TRUE(release.ok());
    noise.push_back(release->Answer(q) - truth);
  }
  const double measured = SampleVariance(noise);
  // 1200 samples of (sums of) Laplace noise: sample variance concentrates
  // within ~15% of the truth with overwhelming probability.
  EXPECT_NEAR(measured / *predicted, 1.0, 0.25)
      << "predicted " << *predicted << " measured " << measured;
}

INSTANTIATE_TEST_SUITE_P(Seeds, ExactVarianceMeasurementTest,
                         ::testing::Range<std::uint64_t>(0, 6));

// The noisy prefix table accumulates in binary64. Its rounding error
// grows like (adds per entry) x 2^-53 x sum|x| (Higham 1993), which must
// stay far below the Laplace noise each answer already carries: on a cube
// of total > 1e9, every table answer matches a long-double direct box sum
// over the noisy matrix within 1e-4 of the answer's predicted noise
// standard deviation.
TEST(ExactVarianceTest, DoubleTableErrorIsNegligibleAgainstNoise) {
  std::vector<data::Attribute> attrs;
  attrs.push_back(data::Attribute::Ordinal("X", 64));
  attrs.push_back(data::Attribute::Ordinal("Y", 48));
  attrs.push_back(data::Attribute::Ordinal("Z", 40));
  const data::Schema schema(std::move(attrs));
  rng::Xoshiro256pp gen(29);
  matrix::FrequencyMatrix m(schema.DomainSizes());
  for (std::size_t i = 0; i < m.size(); ++i) {
    m[i] = static_cast<double>(gen.NextUint64InRange(0, 20000));
  }
  ASSERT_GE(m.Total(), 1e9);

  const double epsilon = 1.0;
  auto noisy = mechanism::PriveletMechanism().Publish(schema, m, epsilon, 3);
  ASSERT_TRUE(noisy.ok()) << noisy.status().ToString();
  auto transform = wavelet::HnTransform::Create(schema);
  ASSERT_TRUE(transform.ok());
  const double lambda = 2.0 * transform->GeneralizedSensitivity() / epsilon;
  auto session = query::PublishingSession::FromMatrix(schema, *noisy);
  ASSERT_TRUE(session.ok()) << session.status().ToString();

  query::WorkloadOptions wopts;
  wopts.num_queries = 200;
  wopts.seed = 31;
  auto workload = query::GenerateWorkload(schema, wopts);
  ASSERT_TRUE(workload.ok());
  double worst = 0.0;
  std::vector<std::size_t> lo, hi;
  for (const query::RangeQuery& q : *workload) {
    q.ResolveBounds(schema, &lo, &hi);
    long double direct = 0.0L;
    std::vector<std::size_t> coords = lo;
    for (bool done = false; !done;) {
      direct += noisy->At(coords);
      done = true;
      for (std::size_t axis = coords.size(); axis-- > 0;) {
        if (coords[axis] < hi[axis]) {
          ++coords[axis];
          done = false;
          break;
        }
        coords[axis] = lo[axis];
      }
    }
    auto variance = ExactQueryNoiseVariance(*transform, schema, lambda, q);
    ASSERT_TRUE(variance.ok());
    const double error = static_cast<double>(
        std::fabs(static_cast<long double>(session->Answer(q)) - direct));
    worst = std::max(worst, error / std::sqrt(*variance));
  }
  EXPECT_LE(worst, 1e-4) << "worst |table - direct| / sigma";
}

TEST(ExactVarianceTest, WrapperUsesMechanismCalibration) {
  const data::Schema schema = OrdinalSchema(64);
  query::RangeQuery q(1);
  ASSERT_TRUE(q.SetRange(schema, 0, 0, 63).ok());
  // Full range on a Haar axis touches only the base coefficient:
  // a0 = 64, w0 = 64 -> factor 1 -> variance = 2*lambda^2, lambda = 2*7.
  auto variance = PriveletPlusQueryVariance(schema, {}, 1.0, q);
  ASSERT_TRUE(variance.ok());
  EXPECT_DOUBLE_EQ(*variance, 2.0 * 14.0 * 14.0);
}

TEST(ExactVarianceTest, RejectsBadArguments) {
  const data::Schema schema = OrdinalSchema(8);
  query::RangeQuery q(1);
  EXPECT_FALSE(PriveletPlusQueryVariance(schema, {}, 0.0, q).ok());
  EXPECT_FALSE(PriveletPlusQueryVariance(schema, {"Nope"}, 1.0, q).ok());
}

TEST(WorkloadPlannerTest, OrdersSubsetsConsistentlyWithBounds) {
  // Small domain + large domain: the planner must put the small attribute
  // in SA and keep the large one under the wavelet for a generic workload.
  std::vector<data::Attribute> attrs;
  attrs.push_back(data::Attribute::Ordinal("Small", 4));
  attrs.push_back(data::Attribute::Ordinal("Large", 256));
  const data::Schema schema(std::move(attrs));

  query::WorkloadOptions wopts;
  wopts.num_queries = 200;
  auto workload = query::GenerateWorkload(schema, wopts);
  ASSERT_TRUE(workload.ok());

  auto plan = PlanSaForWorkload(schema, *workload, 1.0);
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan->sa_names, (std::vector<std::string>{"Small"}));

  auto all = EvaluateAllSaSubsets(schema, *workload, 1.0);
  ASSERT_TRUE(all.ok());
  ASSERT_EQ(all->size(), 4u);
  // Sorted ascending.
  for (std::size_t i = 1; i < all->size(); ++i) {
    EXPECT_LE((*all)[i - 1].expected_variance, (*all)[i].expected_variance);
  }
}

TEST(WorkloadPlannerTest, PlanBeatsOrMatchesHeuristicOnItsWorkload) {
  // By construction the planner's best subset minimizes expected variance,
  // so it is at least as good as the paper's per-attribute rule.
  std::vector<data::Attribute> attrs;
  attrs.push_back(data::Attribute::Ordinal("A", 32));
  attrs.push_back(data::Attribute::Nominal(
      "B", data::Hierarchy::Balanced({2, 4}).value()));
  const data::Schema schema(std::move(attrs));
  query::WorkloadOptions wopts;
  wopts.num_queries = 150;
  auto workload = query::GenerateWorkload(schema, wopts);
  ASSERT_TRUE(workload.ok());

  auto all = EvaluateAllSaSubsets(schema, *workload, 1.0);
  ASSERT_TRUE(all.ok());
  const double best = all->front().expected_variance;
  for (const auto& plan : *all) {
    EXPECT_GE(plan.expected_variance, best);
  }
}

TEST(WorkloadPlannerTest, RejectsBadInput) {
  const data::Schema schema = OrdinalSchema(8);
  EXPECT_FALSE(PlanSaForWorkload(schema, {}, 1.0).ok());
  query::RangeQuery q(1);
  EXPECT_FALSE(PlanSaForWorkload(schema, {q}, -1.0).ok());
}

}  // namespace
}  // namespace privelet::analysis
