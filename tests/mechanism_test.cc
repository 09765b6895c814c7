// Tests for the publishing mechanisms: Basic (Dwork et al.) and
// Privelet / Privelet+. Covers argument validation, determinism, noise
// calibration, near-exactness at huge ε, Privelet+ SA handling, the
// paper's closed-form variance-bound examples, and the release buffer
// (no slack, out-of-core bytes equal to in-core).
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <memory>
#include <vector>

#include "privelet/analysis/bounds.h"
#include "privelet/analysis/mechanism_planner.h"
#include "privelet/analysis/query_variance.h"
#include "privelet/analysis/workload_planner.h"
#include "privelet/common/math_util.h"
#include "privelet/common/thread_pool.h"
#include "privelet/data/census_generator.h"
#include "privelet/matrix/frequency_matrix.h"
#include "privelet/mechanism/basic.h"
#include "privelet/mechanism/fourier_marginals.h"
#include "privelet/mechanism/hay.h"
#include "privelet/mechanism/privelet_mechanism.h"
#include "privelet/query/range_query.h"
#include "privelet/rng/xoshiro256pp.h"

namespace privelet::mechanism {
namespace {

data::Schema OneDimensionalSchema(std::size_t domain) {
  std::vector<data::Attribute> attrs;
  attrs.push_back(data::Attribute::Ordinal("A", domain));
  return data::Schema(std::move(attrs));
}

data::Schema MixedSchema() {
  std::vector<data::Attribute> attrs;
  attrs.push_back(data::Attribute::Ordinal("Ord", 8));
  attrs.push_back(data::Attribute::Nominal(
      "Nom", data::Hierarchy::Balanced({2, 3}).value()));
  return data::Schema(std::move(attrs));
}

matrix::FrequencyMatrix RandomMatrix(const data::Schema& schema,
                                     std::uint64_t seed) {
  matrix::FrequencyMatrix m(schema.DomainSizes());
  rng::Xoshiro256pp gen(seed);
  for (std::size_t i = 0; i < m.size(); ++i) {
    m[i] = static_cast<double>(gen.NextUint64InRange(0, 50));
  }
  return m;
}

TEST(BasicMechanismTest, RejectsBadArguments) {
  BasicMechanism basic;
  const data::Schema schema = OneDimensionalSchema(8);
  const matrix::FrequencyMatrix m(schema.DomainSizes());
  EXPECT_FALSE(basic.Publish(schema, m, 0.0, 1).ok());
  EXPECT_FALSE(basic.Publish(schema, m, -1.0, 1).ok());
  matrix::FrequencyMatrix wrong({9});
  EXPECT_FALSE(basic.Publish(schema, wrong, 1.0, 1).ok());
}

TEST(BasicMechanismTest, PreservesShapeAndIsDeterministic) {
  BasicMechanism basic;
  const data::Schema schema = MixedSchema();
  const matrix::FrequencyMatrix m = RandomMatrix(schema, 3);
  auto a = basic.Publish(schema, m, 1.0, 99);
  auto b = basic.Publish(schema, m, 1.0, 99);
  auto c = basic.Publish(schema, m, 1.0, 100);
  ASSERT_TRUE(a.ok() && b.ok() && c.ok());
  EXPECT_EQ(a->dims(), m.dims());
  EXPECT_TRUE(matrix::ValuesEqual(a->values(), b->values()));
  EXPECT_FALSE(matrix::ValuesEqual(a->values(), c->values()));
}

TEST(BasicMechanismTest, PerCellNoiseVarianceMatchesCalibration) {
  // Laplace(2/ε) per cell: variance 8/ε². Estimate across seeds.
  BasicMechanism basic;
  const data::Schema schema = OneDimensionalSchema(64);
  matrix::FrequencyMatrix m(schema.DomainSizes());  // zeros
  const double epsilon = 1.0;
  std::vector<double> noise;
  for (std::uint64_t seed = 0; seed < 400; ++seed) {
    auto noisy = basic.Publish(schema, m, epsilon, seed);
    ASSERT_TRUE(noisy.ok());
    for (std::size_t i = 0; i < noisy->size(); ++i) {
      noise.push_back((*noisy)[i]);
    }
  }
  EXPECT_NEAR(Mean(noise), 0.0, 0.1);
  EXPECT_NEAR(SampleVariance(noise) / 8.0, 1.0, 0.1);
}

TEST(BasicMechanismTest, VarianceBoundIs8MOverEps2) {
  BasicMechanism basic;
  const data::Schema schema = OneDimensionalSchema(16);
  auto bound = basic.NoiseVarianceBound(schema, 1.0);
  ASSERT_TRUE(bound.ok());
  // Sec. VI-D example: |A| = 16 -> 128/ε².
  EXPECT_DOUBLE_EQ(*bound, 128.0);
}

TEST(PriveletTest, HugeEpsilonReconstructsAlmostExactly) {
  PriveletMechanism privelet;
  const data::Schema schema = MixedSchema();
  const matrix::FrequencyMatrix m = RandomMatrix(schema, 7);
  auto noisy = privelet.Publish(schema, m, 1e9, 1);
  ASSERT_TRUE(noisy.ok());
  for (std::size_t i = 0; i < m.size(); ++i) {
    EXPECT_NEAR((*noisy)[i], m[i], 1e-4) << "entry " << i;
  }
}

TEST(PriveletTest, DeterministicInSeed) {
  PriveletMechanism privelet;
  const data::Schema schema = MixedSchema();
  const matrix::FrequencyMatrix m = RandomMatrix(schema, 7);
  auto a = privelet.Publish(schema, m, 0.5, 11);
  auto b = privelet.Publish(schema, m, 0.5, 11);
  auto c = privelet.Publish(schema, m, 0.5, 12);
  ASSERT_TRUE(a.ok() && b.ok() && c.ok());
  EXPECT_TRUE(matrix::ValuesEqual(a->values(), b->values()));
  EXPECT_FALSE(matrix::ValuesEqual(a->values(), c->values()));
}

TEST(PriveletTest, CensusShapedReleasePinsNoSlack) {
  // The census coefficients outgrow the cube (Age pads 101 -> 128, the
  // nominal axes gain their internal nodes), so every working matrix of
  // the last inverse pass is larger than the release: the release must
  // get a buffer of its own size, not a recycled one with slack.
  auto schema = data::MakeCensusSchema(data::CensusCountry::kBrazil, 4);
  ASSERT_TRUE(schema.ok());
  const matrix::FrequencyMatrix m = RandomMatrix(*schema, 9);
  for (const auto& mech :
       {PriveletPlusMechanism(), PriveletPlusMechanism({"Gender"})}) {
    auto noisy = mech.Publish(*schema, m, 1.0, 3);
    ASSERT_TRUE(noisy.ok()) << mech.name();
    EXPECT_EQ(noisy->dims(), m.dims()) << mech.name();
    EXPECT_EQ(noisy->capacity(), noisy->size()) << mech.name();
  }
}

TEST(PriveletTest, OutOfCorePublishMatchesInCore) {
  // A 4 KiB budget puts every working matrix in a scratch file, which is
  // never recycled; the release must not depend on that.
  std::vector<data::Attribute> attrs;
  attrs.push_back(data::Attribute::Ordinal("Ord", 200));
  attrs.push_back(data::Attribute::Nominal(
      "Nom", data::Hierarchy::Balanced({4, 4}).value()));
  const data::Schema schema(std::move(attrs));
  const matrix::FrequencyMatrix m = RandomMatrix(schema, 13);
  matrix::EngineOptions streamed;
  streamed.max_memory_bytes = std::size_t{1} << 12;
  common::ThreadPool four(4);
  for (common::ThreadPool* pool : {static_cast<common::ThreadPool*>(nullptr),
                                   &four}) {
    for (PriveletPlusMechanism mech :
         {PriveletPlusMechanism(), PriveletPlusMechanism({"Ord"})}) {
      mech.set_thread_pool(pool);
      auto in_core = mech.Publish(schema, m, 0.7, 5);
      mech.set_engine_options(streamed);
      auto out_of_core = mech.Publish(schema, m, 0.7, 5);
      ASSERT_TRUE(in_core.ok() && out_of_core.ok()) << mech.name();
      ASSERT_EQ(in_core->dims(), out_of_core->dims());
      EXPECT_EQ(0, std::memcmp(in_core->values().data(),
                               out_of_core->values().data(),
                               m.size() * sizeof(double)))
          << mech.name() << (pool != nullptr ? ", 4 threads" : ", serial");
    }
  }
}

TEST(PriveletTest, LaplaceMagnitudeIsTwoRhoOverEpsilon) {
  PriveletMechanism privelet;
  const data::Schema schema = MixedSchema();
  // rho = P(Ord8) * P(Nom h=3) = 4 * 3 = 12; λ = 2*12/ε.
  auto lambda = privelet.LaplaceMagnitude(schema, 0.5);
  ASSERT_TRUE(lambda.ok());
  EXPECT_DOUBLE_EQ(*lambda, 48.0);
}

TEST(PriveletTest, VarianceBoundMatchesPaperEq4) {
  // One-dimensional ordinal, |A| = 512: Eq. 4 gives 4400/ε².
  PriveletMechanism privelet;
  const data::Schema schema = OneDimensionalSchema(512);
  auto bound = privelet.NoiseVarianceBound(schema, 1.0);
  ASSERT_TRUE(bound.ok());
  EXPECT_DOUBLE_EQ(*bound, 4400.0);
}

TEST(PriveletTest, VarianceBoundMatchesPaperEq6) {
  // One nominal attribute with h = 3: Eq. 6 gives 32h²/ε² = 288/ε².
  PriveletMechanism privelet;
  std::vector<data::Attribute> attrs;
  attrs.push_back(data::Attribute::Nominal(
      "Occupation", data::Hierarchy::Balanced({16, 32}).value()));
  const data::Schema schema(std::move(attrs));
  auto bound = privelet.NoiseVarianceBound(schema, 1.0);
  ASSERT_TRUE(bound.ok());
  EXPECT_DOUBLE_EQ(*bound, 288.0);
}

TEST(PriveletTest, VarianceBoundMatchesPaperSmallDomainExample) {
  // Sec. VI-D: single ordinal |A| = 16 -> 600/ε² (vs Basic's 128/ε²).
  PriveletMechanism privelet;
  const data::Schema schema = OneDimensionalSchema(16);
  auto bound = privelet.NoiseVarianceBound(schema, 1.0);
  ASSERT_TRUE(bound.ok());
  EXPECT_DOUBLE_EQ(*bound, 600.0);
}

TEST(PriveletPlusTest, SaNamesResolveAndValidate) {
  PriveletPlusMechanism plus({"Nom"});
  const data::Schema schema = MixedSchema();
  auto sa = plus.ResolveSa(schema);
  ASSERT_TRUE(sa.ok());
  EXPECT_EQ(*sa, (std::vector<std::size_t>{1}));
  PriveletPlusMechanism bogus({"NoSuchAttr"});
  EXPECT_FALSE(bogus.ResolveSa(schema).ok());
  EXPECT_FALSE(bogus.Publish(schema, RandomMatrix(schema, 1), 1.0, 1).ok());
}

TEST(PriveletPlusTest, NamesDescribeConfiguration) {
  EXPECT_EQ(PriveletMechanism().name(), "Privelet");
  EXPECT_EQ(PriveletPlusMechanism({"Age", "Gender"}).name(),
            "Privelet+{Age,Gender}");
  EXPECT_EQ(BasicMechanism().name(), "Basic");
}

TEST(PriveletPlusTest, AllAttributesInSaMatchesBasicBound) {
  // SA = all attributes: Eq. 7 degenerates to 8m/ε² (Basic).
  PriveletPlusMechanism plus({"Ord", "Nom"});
  BasicMechanism basic;
  const data::Schema schema = MixedSchema();
  auto plus_bound = plus.NoiseVarianceBound(schema, 0.75);
  auto basic_bound = basic.NoiseVarianceBound(schema, 0.75);
  ASSERT_TRUE(plus_bound.ok() && basic_bound.ok());
  EXPECT_DOUBLE_EQ(*plus_bound, *basic_bound);
}

TEST(PriveletPlusTest, CensusSaChoiceBeatsBothExtremes) {
  // For the Brazil census schema, SA = {Age, Gender} (the paper's choice)
  // must beat both Privelet (SA = ∅) and Basic (SA = all) in Eq. 7.
  auto schema = data::MakeCensusSchema(data::CensusCountry::kBrazil, 0);
  ASSERT_TRUE(schema.ok());
  const double eps = 1.0;
  auto hybrid = PriveletPlusMechanism({"Age", "Gender"})
                    .NoiseVarianceBound(*schema, eps);
  auto pure = PriveletMechanism().NoiseVarianceBound(*schema, eps);
  auto basic = BasicMechanism().NoiseVarianceBound(*schema, eps);
  ASSERT_TRUE(hybrid.ok() && pure.ok() && basic.ok());
  EXPECT_LT(*hybrid, *pure);
  EXPECT_LT(*hybrid, *basic);
}

TEST(PriveletPlusTest, HugeEpsilonReconstructsWithSa) {
  PriveletPlusMechanism plus({"Ord"});
  const data::Schema schema = MixedSchema();
  const matrix::FrequencyMatrix m = RandomMatrix(schema, 5);
  auto noisy = plus.Publish(schema, m, 1e9, 2);
  ASSERT_TRUE(noisy.ok());
  for (std::size_t i = 0; i < m.size(); ++i) {
    EXPECT_NEAR((*noisy)[i], m[i], 1e-4);
  }
}

TEST(PriveletPlusTest, TotalCountNoiseMatchesExactVariance) {
  // The published total is the full-domain range count; across seeds its
  // noise must match the closed-form exact query variance — a calibrated
  // moment check instead of a "looks roughly preserved" band.
  PriveletMechanism privelet;
  const data::Schema schema = MixedSchema();
  const matrix::FrequencyMatrix m = RandomMatrix(schema, 9);
  const double true_total = m.Total();
  const query::RangeQuery full(schema.num_attributes());
  const double exact_variance =
      analysis::PriveletPlusQueryVariance(schema, {}, 1.0, full).value();

  constexpr std::size_t kTrials = 400;
  std::vector<double> noise;
  noise.reserve(kTrials);
  for (std::uint64_t seed = 0; seed < kTrials; ++seed) {
    auto noisy = privelet.Publish(schema, m, 1.0, seed);
    ASSERT_TRUE(noisy.ok());
    noise.push_back(noisy->Total() - true_total);
  }
  EXPECT_NEAR(Mean(noise), 0.0,
              4.0 * std::sqrt(exact_variance / kTrials));
  // 4-sigma band on the sample variance (Laplace mixtures: Var(s²) ~
  // 5σ⁴/n).
  EXPECT_NEAR(SampleVariance(noise) / exact_variance, 1.0,
              4.0 * std::sqrt(5.0 / kTrials));
}

TEST(EpsilonValidationTest, NonFiniteAndSignedZeroBudgetsAreRejected) {
  // +inf would publish the exact counts and NaN a release of NaNs; -0.0
  // compares equal to 0. Every entry point taking ε refuses all three.
  const data::Schema schema = OneDimensionalSchema(8);
  const matrix::FrequencyMatrix m = RandomMatrix(schema, 1);
  const data::Schema binary = [] {
    std::vector<data::Attribute> attrs;
    attrs.push_back(data::Attribute::Ordinal("X", 2));
    attrs.push_back(data::Attribute::Ordinal("Y", 2));
    return data::Schema(std::move(attrs));
  }();
  const matrix::FrequencyMatrix binary_m = RandomMatrix(binary, 2);
  const query::RangeQuery full(schema.num_attributes());
  const std::vector<query::RangeQuery> workload = {full};

  std::vector<std::unique_ptr<Mechanism>> mechanisms;
  mechanisms.push_back(std::make_unique<BasicMechanism>());
  mechanisms.push_back(std::make_unique<PriveletMechanism>());
  mechanisms.push_back(
      std::make_unique<PriveletPlusMechanism>(std::vector<std::string>{"A"}));
  mechanisms.push_back(std::make_unique<HayHierarchicalMechanism>());
  const FourierMarginalMechanism fourier(
      std::vector<std::vector<std::size_t>>{{0}});

  const auto invalid = [](const Status& status) {
    return status.code() == StatusCode::kInvalidArgument;
  };
  for (const double epsilon : {std::numeric_limits<double>::infinity(),
                               std::numeric_limits<double>::quiet_NaN(),
                               -0.0}) {
    SCOPED_TRACE(epsilon);
    for (const auto& mech : mechanisms) {
      EXPECT_TRUE(invalid(mech->Publish(schema, m, epsilon, 1).status()))
          << mech->name();
      EXPECT_TRUE(invalid(mech->NoiseVarianceBound(schema, epsilon).status()))
          << mech->name();
    }
    EXPECT_TRUE(invalid(fourier.Publish(binary_m, epsilon, 1).status()));
    EXPECT_TRUE(
        invalid(fourier.MarginalEntryVarianceBound(2, 1, epsilon).status()));
    EXPECT_TRUE(invalid(
        analysis::PlanMechanismForWorkload(schema, workload, epsilon)
            .status()));
    EXPECT_TRUE(invalid(
        analysis::EvaluateAllSaSubsets(schema, workload, epsilon).status()));
    EXPECT_TRUE(invalid(
        analysis::PriveletPlusVarianceBound(schema, {}, epsilon).status()));
    EXPECT_TRUE(invalid(
        analysis::PriveletPlusQueryVariance(schema, {}, epsilon, full)
            .status()));
    EXPECT_TRUE(invalid(
        analysis::BasicQueryVariance(schema, epsilon, full).status()));
  }
}

}  // namespace
}  // namespace privelet::mechanism
