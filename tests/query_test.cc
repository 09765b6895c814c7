// Tests for range-count queries, the workload generator (paper Sec. VII-A
// protocol), and the prefix-sum evaluators against the brute-force oracle.
#include <gtest/gtest.h>

#include <vector>

#include "privelet/data/census_generator.h"
#include "privelet/matrix/frequency_matrix.h"
#include "privelet/query/publishing_session.h"
#include "privelet/query/range_query.h"
#include "privelet/query/workload.h"
#include "privelet/rng/xoshiro256pp.h"
#include "reference/brute_force.h"

namespace privelet::query {
namespace {

data::Schema SmallSchema() {
  std::vector<data::Attribute> attrs;
  attrs.push_back(data::Attribute::Ordinal("X", 6));
  attrs.push_back(data::Attribute::Nominal(
      "Y", data::Hierarchy::Balanced({2, 3}).value()));
  return data::Schema(std::move(attrs));
}

TEST(RangeQueryTest, SetRangeValidation) {
  const data::Schema schema = SmallSchema();
  RangeQuery q(2);
  EXPECT_TRUE(q.SetRange(schema, 0, 1, 4).ok());
  EXPECT_FALSE(q.SetRange(schema, 0, 4, 1).ok());   // inverted
  EXPECT_FALSE(q.SetRange(schema, 0, 0, 6).ok());   // out of domain
  EXPECT_FALSE(q.SetRange(schema, 5, 0, 1).ok());   // bad attribute
}

TEST(RangeQueryTest, HierarchyNodePredicates) {
  const data::Schema schema = SmallSchema();
  const data::Hierarchy& h = schema.attribute(1).hierarchy();
  RangeQuery q(2);
  // The second level-2 node covers leaves [3, 6).
  const auto level2 = h.NodesAtLevel(2);
  ASSERT_TRUE(q.SetHierarchyNode(schema, 1, level2[1]).ok());
  ASSERT_TRUE(q.range(1).has_value());
  EXPECT_EQ(q.range(1)->lo, 3u);
  EXPECT_EQ(q.range(1)->hi, 5u);
  // A leaf node covers a single value.
  ASSERT_TRUE(q.SetHierarchyNode(schema, 1, h.leaf_node(2)).ok());
  EXPECT_EQ(q.range(1)->lo, 2u);
  EXPECT_EQ(q.range(1)->hi, 2u);
}

TEST(RangeQueryTest, HierarchyNodeRejectsOrdinalAttr) {
  const data::Schema schema = SmallSchema();
  RangeQuery q(2);
  EXPECT_FALSE(q.SetHierarchyNode(schema, 0, 1).ok());
}

TEST(RangeQueryTest, CoverageMultipliesAxisFractions) {
  const data::Schema schema = SmallSchema();
  RangeQuery q(2);
  EXPECT_DOUBLE_EQ(q.Coverage(schema), 1.0);  // no predicates
  ASSERT_TRUE(q.SetRange(schema, 0, 0, 2).ok());  // 3/6
  EXPECT_DOUBLE_EQ(q.Coverage(schema), 0.5);
  ASSERT_TRUE(q.SetRange(schema, 1, 0, 0).ok());  // 1/6
  EXPECT_DOUBLE_EQ(q.Coverage(schema), 0.5 / 6.0);
  EXPECT_EQ(q.NumPredicates(), 2u);
}

TEST(RangeQueryTest, ResolveBoundsFillsUnconstrainedAxes) {
  const data::Schema schema = SmallSchema();
  RangeQuery q(2);
  ASSERT_TRUE(q.SetRange(schema, 0, 2, 3).ok());
  std::vector<std::size_t> lo, hi;
  q.ResolveBounds(schema, &lo, &hi);
  EXPECT_EQ(lo, (std::vector<std::size_t>{2, 0}));
  EXPECT_EQ(hi, (std::vector<std::size_t>{3, 5}));
}

TEST(WorkloadTest, RespectsPredicateCountRange) {
  auto schema = data::MakeCensusSchema(data::CensusCountry::kBrazil, 30);
  ASSERT_TRUE(schema.ok());
  WorkloadOptions options;
  options.num_queries = 500;
  auto workload = GenerateWorkload(*schema, options);
  ASSERT_TRUE(workload.ok());
  ASSERT_EQ(workload->size(), 500u);
  bool saw_one = false, saw_four = false;
  for (const RangeQuery& q : *workload) {
    const std::size_t preds = q.NumPredicates();
    EXPECT_GE(preds, 1u);
    EXPECT_LE(preds, 4u);
    if (preds == 1) saw_one = true;
    if (preds == 4) saw_four = true;
  }
  EXPECT_TRUE(saw_one);
  EXPECT_TRUE(saw_four);
}

TEST(WorkloadTest, NominalPredicatesAreSubtreeRanges) {
  auto schema = data::MakeCensusSchema(data::CensusCountry::kBrazil, 30);
  ASSERT_TRUE(schema.ok());
  const data::Hierarchy& occ = schema->attribute(2).hierarchy();
  WorkloadOptions options;
  options.num_queries = 2000;
  auto workload = GenerateWorkload(*schema, options);
  ASSERT_TRUE(workload.ok());
  for (const RangeQuery& q : *workload) {
    const auto& range = q.range(2);
    if (!range.has_value()) continue;
    // The range must be the leaf span of some non-root hierarchy node.
    bool found = false;
    for (std::size_t id = 1; id < occ.num_nodes() && !found; ++id) {
      found = occ.node(id).leaf_begin == range->lo &&
              occ.node(id).leaf_end == range->hi + 1;
    }
    EXPECT_TRUE(found) << "range [" << range->lo << "," << range->hi << "]";
  }
}

TEST(WorkloadTest, DeterministicInSeed) {
  const data::Schema schema = SmallSchema();
  WorkloadOptions options;
  options.num_queries = 50;
  auto a = GenerateWorkload(schema, options);
  auto b = GenerateWorkload(schema, options);
  options.seed = 8;
  auto c = GenerateWorkload(schema, options);
  ASSERT_TRUE(a.ok() && b.ok() && c.ok());
  bool differs = false;
  for (std::size_t i = 0; i < 50; ++i) {
    for (std::size_t attr = 0; attr < 2; ++attr) {
      EXPECT_EQ((*a)[i].range(attr), (*b)[i].range(attr));
      if ((*a)[i].range(attr) != (*c)[i].range(attr)) differs = true;
    }
  }
  EXPECT_TRUE(differs);
}

TEST(WorkloadTest, PredicateCapAtAttributeCount) {
  std::vector<data::Attribute> attrs;
  attrs.push_back(data::Attribute::Ordinal("Solo", 10));
  const data::Schema schema(std::move(attrs));
  WorkloadOptions options;
  options.num_queries = 20;
  auto workload = GenerateWorkload(schema, options);
  ASSERT_TRUE(workload.ok());
  for (const RangeQuery& q : *workload) EXPECT_EQ(q.NumPredicates(), 1u);
}

// Session correctness: prefix-sum answers equal brute force on random
// matrices and workloads. The entries are small integers, so the binary64
// table is exact and the answers compare equal.
class EvaluatorPropertyTest : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(EvaluatorPropertyTest, MatchesBruteForce) {
  rng::Xoshiro256pp gen(GetParam());
  const data::Schema schema = SmallSchema();
  matrix::FrequencyMatrix m(schema.DomainSizes());
  for (std::size_t i = 0; i < m.size(); ++i) {
    m[i] = static_cast<double>(gen.NextUint64InRange(0, 7));
  }
  WorkloadOptions options;
  options.num_queries = 100;
  options.seed = GetParam();
  auto workload = GenerateWorkload(schema, options);
  ASSERT_TRUE(workload.ok());

  auto session = PublishingSession::FromMatrix(schema, m);
  ASSERT_TRUE(session.ok());
  for (const RangeQuery& q : *workload) {
    EXPECT_EQ(session->Answer(q), reference::BruteForceAnswer(schema, m, q));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EvaluatorPropertyTest,
                         ::testing::Range<std::uint64_t>(0, 8));

}  // namespace
}  // namespace privelet::query
