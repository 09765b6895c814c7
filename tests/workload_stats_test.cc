// Statistical checks on the evaluation protocol itself (paper Sec. VII-A):
// the workload generator's predicate-count distribution, attribute
// selection uniformity, interval-endpoint distribution, and the coverage /
// selectivity definitions the figures are bucketed by.
#include <gtest/gtest.h>

#include <vector>

#include "privelet/data/census_generator.h"
#include "privelet/matrix/frequency_matrix.h"
#include "privelet/query/publishing_session.h"
#include "privelet/query/workload.h"

namespace privelet::query {
namespace {

data::Schema FourAttributeSchema() {
  std::vector<data::Attribute> attrs;
  attrs.push_back(data::Attribute::Ordinal("A", 10));
  attrs.push_back(data::Attribute::Ordinal("B", 10));
  attrs.push_back(data::Attribute::Ordinal("C", 10));
  attrs.push_back(data::Attribute::Ordinal("D", 10));
  return data::Schema(std::move(attrs));
}

TEST(WorkloadStatsTest, PredicateCountIsUniformOneToFour) {
  const data::Schema schema = FourAttributeSchema();
  WorkloadOptions options;
  options.num_queries = 20'000;
  auto workload = GenerateWorkload(schema, options);
  ASSERT_TRUE(workload.ok());
  std::vector<std::size_t> histogram(5, 0);
  for (const RangeQuery& q : *workload) ++histogram[q.NumPredicates()];
  EXPECT_EQ(histogram[0], 0u);
  for (std::size_t k = 1; k <= 4; ++k) {
    // Uniform in [1, 4]: expect 5000 each, within ~5 sigma.
    EXPECT_NEAR(static_cast<double>(histogram[k]), 5000.0, 350.0)
        << "k = " << k;
  }
}

TEST(WorkloadStatsTest, AttributesChosenUniformly) {
  const data::Schema schema = FourAttributeSchema();
  WorkloadOptions options;
  options.num_queries = 20'000;
  options.min_predicates = 1;
  options.max_predicates = 1;  // isolate the attribute choice
  auto workload = GenerateWorkload(schema, options);
  ASSERT_TRUE(workload.ok());
  std::vector<std::size_t> hits(4, 0);
  for (const RangeQuery& q : *workload) {
    for (std::size_t a = 0; a < 4; ++a) {
      if (q.range(a).has_value()) ++hits[a];
    }
  }
  for (std::size_t a = 0; a < 4; ++a) {
    EXPECT_NEAR(static_cast<double>(hits[a]), 5000.0, 350.0) << "attr " << a;
  }
}

TEST(WorkloadStatsTest, IntervalWidthsSpanTheDomain) {
  // Two independent uniform endpoints: mean width of [min,max] on a
  // domain of size D is about D/3.
  const data::Schema schema = FourAttributeSchema();
  WorkloadOptions options;
  options.num_queries = 20'000;
  options.min_predicates = 1;
  options.max_predicates = 1;
  auto workload = GenerateWorkload(schema, options);
  ASSERT_TRUE(workload.ok());
  double total_width = 0.0;
  std::size_t count = 0;
  bool saw_point = false, saw_full = false;
  for (const RangeQuery& q : *workload) {
    for (std::size_t a = 0; a < 4; ++a) {
      if (!q.range(a).has_value()) continue;
      const std::size_t width = q.range(a)->width();
      total_width += static_cast<double>(width);
      ++count;
      if (width == 1) saw_point = true;
      if (width == 10) saw_full = true;
    }
  }
  EXPECT_TRUE(saw_point);
  EXPECT_TRUE(saw_full);
  // E[width] = D/3 + 2/3 - ... for discrete uniform endpoints on 10
  // values: E[max-min]+1 = 99/30 + 1 = 4.3.
  EXPECT_NEAR(total_width / static_cast<double>(count), 4.3, 0.15);
}

TEST(WorkloadStatsTest, CoverageAndSelectivityAgreeOnUniformData) {
  // On perfectly uniform data, selectivity == coverage for every query.
  const data::Schema schema = FourAttributeSchema();
  matrix::FrequencyMatrix m(schema.DomainSizes());
  for (std::size_t i = 0; i < m.size(); ++i) m[i] = 3.0;
  const double n = m.Total();

  WorkloadOptions options;
  options.num_queries = 500;
  auto workload = GenerateWorkload(schema, options);
  ASSERT_TRUE(workload.ok());
  auto session = PublishingSession::FromMatrix(schema, m);
  ASSERT_TRUE(session.ok());
  for (const RangeQuery& q : *workload) {
    const double selectivity = session->Answer(q) / n;
    EXPECT_NEAR(selectivity, q.Coverage(schema), 1e-9);
  }
}

TEST(WorkloadStatsTest, CensusWorkloadCoverageSpansQuintiles) {
  // The figure harnesses bucket by coverage quintiles; the generated
  // distribution must actually span several orders of magnitude, or the
  // plots would be degenerate.
  auto schema = data::MakeCensusSchema(data::CensusCountry::kBrazil, 126);
  ASSERT_TRUE(schema.ok());
  WorkloadOptions options;
  options.num_queries = 4'000;
  auto workload = GenerateWorkload(*schema, options);
  ASSERT_TRUE(workload.ok());
  double min_cov = 1.0, max_cov = 0.0;
  for (const RangeQuery& q : *workload) {
    const double cov = q.Coverage(*schema);
    min_cov = std::min(min_cov, cov);
    max_cov = std::max(max_cov, cov);
  }
  EXPECT_LT(min_cov, 1e-5);
  EXPECT_GT(max_cov, 0.5);
}

}  // namespace
}  // namespace privelet::query
