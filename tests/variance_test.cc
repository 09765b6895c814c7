// Statistical verification of the paper's utility guarantees: the noise
// variance of range-count answers published by each mechanism stays within
// its theoretical bound (Lemma 3 for Haar, Lemma 5 for nominal, Theorem 3
// for the HN composition, Corollary 1 for Privelet+), and the qualitative
// claims hold (Privelet beats Basic on wide queries; Basic beats Privelet
// on small domains).
#include <gtest/gtest.h>

#include <vector>

#include "privelet/common/math_util.h"
#include "privelet/data/attribute.h"
#include "privelet/matrix/frequency_matrix.h"
#include "privelet/mechanism/basic.h"
#include "privelet/mechanism/privelet_mechanism.h"
#include "privelet/query/publishing_session.h"
#include "privelet/query/range_query.h"
#include "privelet/rng/xoshiro256pp.h"

namespace privelet::mechanism {
namespace {

constexpr double kEpsilon = 1.0;
constexpr std::size_t kTrials = 300;

// Measures the empirical noise variance of `query` under `mechanism`
// across kTrials seeds.
double MeasureQueryNoiseVariance(const Mechanism& mechanism,
                                 const data::Schema& schema,
                                 const matrix::FrequencyMatrix& m,
                                 const query::RangeQuery& q) {
  const double truth =
      query::PublishingSession::FromMatrix(schema, m)->Answer(q);
  std::vector<double> noise;
  noise.reserve(kTrials);
  for (std::size_t seed = 0; seed < kTrials; ++seed) {
    auto release = query::PublishingSession::Publish(schema, mechanism, m,
                                                     kEpsilon, seed);
    EXPECT_TRUE(release.ok());
    noise.push_back(release->Answer(q) - truth);
  }
  return SampleVariance(noise);
}

matrix::FrequencyMatrix RandomMatrix(const data::Schema& schema,
                                     std::uint64_t seed) {
  matrix::FrequencyMatrix m(schema.DomainSizes());
  rng::Xoshiro256pp gen(seed);
  for (std::size_t i = 0; i < m.size(); ++i) {
    m[i] = static_cast<double>(gen.NextUint64InRange(0, 30));
  }
  return m;
}

// With 300 samples, the sample variance of (sums of) Laplace noise
// concentrates well within a factor of ~1.4 of its mean; the theoretical
// bounds additionally have slack, so bound * 1.5 is a safe ceiling that
// still catches calibration mistakes (which are off by >= 2x in practice).
constexpr double kStatSlack = 1.5;

TEST(VarianceBoundTest, HaarLemma3OnFullRange) {
  std::vector<data::Attribute> attrs;
  attrs.push_back(data::Attribute::Ordinal("A", 64));
  const data::Schema schema(std::move(attrs));
  const matrix::FrequencyMatrix m = RandomMatrix(schema, 1);
  PriveletMechanism privelet;
  const double bound = privelet.NoiseVarianceBound(schema, kEpsilon).value();

  query::RangeQuery full(1);
  ASSERT_TRUE(full.SetRange(schema, 0, 0, 63).ok());
  EXPECT_LT(MeasureQueryNoiseVariance(privelet, schema, m, full),
            bound * kStatSlack);

  query::RangeQuery half(1);
  ASSERT_TRUE(half.SetRange(schema, 0, 11, 45).ok());
  EXPECT_LT(MeasureQueryNoiseVariance(privelet, schema, m, half),
            bound * kStatSlack);
}

TEST(VarianceBoundTest, NominalLemma5OnSubtreeQueries) {
  std::vector<data::Attribute> attrs;
  attrs.push_back(data::Attribute::Nominal(
      "N", data::Hierarchy::Balanced({4, 4}).value()));
  const data::Schema schema(std::move(attrs));
  const matrix::FrequencyMatrix m = RandomMatrix(schema, 2);
  PriveletMechanism privelet;
  const double bound = privelet.NoiseVarianceBound(schema, kEpsilon).value();

  const data::Hierarchy& h = schema.attribute(0).hierarchy();
  // One query per hierarchy node (the paper's nominal query model).
  for (std::size_t node = 1; node < h.num_nodes(); node += 3) {
    query::RangeQuery q(1);
    ASSERT_TRUE(q.SetHierarchyNode(schema, 0, node).ok());
    EXPECT_LT(MeasureQueryNoiseVariance(privelet, schema, m, q),
              bound * kStatSlack)
        << "node " << node;
  }
}

TEST(VarianceBoundTest, HnTheorem3OnMixedSchema) {
  std::vector<data::Attribute> attrs;
  attrs.push_back(data::Attribute::Ordinal("O", 16));
  attrs.push_back(data::Attribute::Nominal(
      "N", data::Hierarchy::Balanced({2, 3}).value()));
  const data::Schema schema(std::move(attrs));
  const matrix::FrequencyMatrix m = RandomMatrix(schema, 3);
  PriveletMechanism privelet;
  const double bound = privelet.NoiseVarianceBound(schema, kEpsilon).value();

  query::RangeQuery q(2);
  ASSERT_TRUE(q.SetRange(schema, 0, 2, 13).ok());
  ASSERT_TRUE(q.SetHierarchyNode(schema, 1, 1).ok());
  EXPECT_LT(MeasureQueryNoiseVariance(privelet, schema, m, q),
            bound * kStatSlack);
}

TEST(VarianceBoundTest, PriveletPlusCorollary1) {
  std::vector<data::Attribute> attrs;
  attrs.push_back(data::Attribute::Ordinal("Small", 4));   // in SA
  attrs.push_back(data::Attribute::Ordinal("Large", 32));  // wavelet
  const data::Schema schema(std::move(attrs));
  const matrix::FrequencyMatrix m = RandomMatrix(schema, 4);
  PriveletPlusMechanism plus({"Small"});
  const double bound = plus.NoiseVarianceBound(schema, kEpsilon).value();

  query::RangeQuery q(2);
  ASSERT_TRUE(q.SetRange(schema, 0, 0, 3).ok());
  ASSERT_TRUE(q.SetRange(schema, 1, 3, 28).ok());
  EXPECT_LT(MeasureQueryNoiseVariance(plus, schema, m, q),
            bound * kStatSlack);
}

TEST(VarianceBoundTest, BasicVarianceGrowsWithCoverage) {
  std::vector<data::Attribute> attrs;
  attrs.push_back(data::Attribute::Ordinal("A", 128));
  const data::Schema schema(std::move(attrs));
  const matrix::FrequencyMatrix m = RandomMatrix(schema, 5);
  BasicMechanism basic;

  query::RangeQuery narrow(1), wide(1);
  ASSERT_TRUE(narrow.SetRange(schema, 0, 0, 3).ok());     // 4 cells
  ASSERT_TRUE(wide.SetRange(schema, 0, 0, 127).ok());     // 128 cells
  const double narrow_var =
      MeasureQueryNoiseVariance(basic, schema, m, narrow);
  const double wide_var = MeasureQueryNoiseVariance(basic, schema, m, wide);
  // Theory: 8k/ε²: 32 vs 1024. Demand at least a 10x observed gap.
  EXPECT_GT(wide_var / narrow_var, 10.0);
  EXPECT_LT(wide_var, 8.0 * 128.0 * kStatSlack);
  EXPECT_LT(narrow_var, 8.0 * 4.0 * kStatSlack);
}

TEST(VarianceBoundTest, PriveletBeatsBasicOnWideQueries) {
  // The paper's headline: on large domains and wide ranges, Privelet's
  // polylog variance beats Basic's Θ(m).
  std::vector<data::Attribute> attrs;
  attrs.push_back(data::Attribute::Ordinal("A", 1024));
  const data::Schema schema(std::move(attrs));
  const matrix::FrequencyMatrix m = RandomMatrix(schema, 6);

  query::RangeQuery wide(1);
  ASSERT_TRUE(wide.SetRange(schema, 0, 0, 1023).ok());
  const double basic_var =
      MeasureQueryNoiseVariance(BasicMechanism(), schema, m, wide);
  const double privelet_var =
      MeasureQueryNoiseVariance(PriveletMechanism(), schema, m, wide);
  EXPECT_LT(privelet_var, basic_var / 2.0);
}

TEST(VarianceBoundTest, BasicBeatsPriveletOnTinyDomains) {
  // Sec. VI-D's motivation for the hybrid: on small domains Basic wins.
  std::vector<data::Attribute> attrs;
  attrs.push_back(data::Attribute::Ordinal("A", 8));
  const data::Schema schema(std::move(attrs));
  const matrix::FrequencyMatrix m = RandomMatrix(schema, 7);

  query::RangeQuery q(1);
  ASSERT_TRUE(q.SetRange(schema, 0, 1, 5).ok());
  const double basic_var =
      MeasureQueryNoiseVariance(BasicMechanism(), schema, m, q);
  const double privelet_var =
      MeasureQueryNoiseVariance(PriveletMechanism(), schema, m, q);
  EXPECT_LT(basic_var, privelet_var);
}

}  // namespace
}  // namespace privelet::mechanism
