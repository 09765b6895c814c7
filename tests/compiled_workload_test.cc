// CompiledWorkload's contract is bit-identity: for any workload, AnswerAll
// must return exactly the doubles the per-query path
// (PublishingSession::Answer) produces — compiling is a pure layout and
// performance move. These tests sweep random workloads over 1-3
// dimensional tables, the empty-corner edge cases (predicates touching
// the domain edge drop corners), and split AnswerInto ranges.
#include <gtest/gtest.h>

#include <cstddef>
#include <vector>

#include "privelet/data/attribute.h"
#include "privelet/data/schema.h"
#include "privelet/matrix/frequency_matrix.h"
#include "privelet/query/compiled_workload.h"
#include "privelet/query/publishing_session.h"
#include "privelet/query/range_query.h"
#include "privelet/rng/xoshiro256pp.h"

namespace privelet::query {
namespace {

data::Schema MakeSchema(const std::vector<std::size_t>& sizes) {
  std::vector<data::Attribute> attrs;
  for (std::size_t i = 0; i < sizes.size(); ++i) {
    attrs.push_back(
        data::Attribute::Ordinal("a" + std::to_string(i), sizes[i]));
  }
  return data::Schema(std::move(attrs));
}

matrix::FrequencyMatrix NoisyMatrix(const data::Schema& schema,
                                    std::uint64_t seed) {
  matrix::FrequencyMatrix m(schema.DomainSizes());
  rng::Xoshiro256pp gen(seed);
  for (std::size_t i = 0; i < m.size(); ++i) {
    // Irregular magnitudes so a wrong corner order or dropped sign would
    // actually change the rounding, not vanish in symmetry.
    m[i] = gen.NextDouble() * 1000.0 - 500.0 + 1.0 / (1.0 + i);
  }
  return m;
}

std::vector<RangeQuery> RandomQueries(const data::Schema& schema,
                                      std::size_t count, std::uint64_t seed) {
  rng::Xoshiro256pp gen(seed);
  const std::vector<std::size_t> sizes = schema.DomainSizes();
  std::vector<RangeQuery> queries;
  for (std::size_t q = 0; q < count; ++q) {
    RangeQuery query(sizes.size());
    for (std::size_t attr = 0; attr < sizes.size(); ++attr) {
      switch (gen.NextUint64InRange(0, 3)) {
        case 0:  // unconstrained
          break;
        case 1: {  // pinned to the low edge: drops a corner at compile
          const std::size_t hi = gen.NextUint64InRange(0, sizes[attr] - 1);
          EXPECT_TRUE(query.SetRange(schema, attr, 0, hi).ok());
          break;
        }
        default: {
          const std::size_t lo = gen.NextUint64InRange(0, sizes[attr] - 1);
          const std::size_t hi = gen.NextUint64InRange(lo, sizes[attr] - 1);
          EXPECT_TRUE(query.SetRange(schema, attr, lo, hi).ok());
          break;
        }
      }
    }
    queries.push_back(std::move(query));
  }
  return queries;
}

TEST(CompiledWorkloadTest, BitIdenticalToPerQueryAnswers) {
  const std::vector<std::vector<std::size_t>> shapes = {
      {257}, {64, 33}, {16, 9, 11}};
  for (const auto& shape : shapes) {
    const data::Schema schema = MakeSchema(shape);
    const matrix::FrequencyMatrix m = NoisyMatrix(schema, 7 + shape.size());
    const PublishingSession session =
        PublishingSession::FromMatrix(schema, m).value();
    const matrix::PrefixSumTable& table = session.prefix_table();
    const std::vector<RangeQuery> queries =
        RandomQueries(schema, 100, 11 * shape.size());

    std::vector<double> direct;
    for (const RangeQuery& query : queries) {
      direct.push_back(session.Answer(query));
    }

    const CompiledWorkload workload =
        CompiledWorkload::Compile(queries, table.dims());
    EXPECT_EQ(workload.num_queries(), queries.size());
    const std::vector<double> compiled = workload.AnswerAll(table);
    ASSERT_EQ(compiled.size(), direct.size());
    for (std::size_t i = 0; i < direct.size(); ++i) {
      EXPECT_EQ(compiled[i], direct[i])
          << "dims=" << shape.size() << " query " << i;
    }
  }
}

TEST(CompiledWorkloadTest, EdgePredicatesDropCorners) {
  // In 2-d, a query pinned to both low edges keeps only 1 of 4 corners;
  // the all-cells query keeps 1; a general query keeps all 4.
  const data::Schema schema = MakeSchema({8, 8});
  const matrix::FrequencyMatrix m = NoisyMatrix(schema, 3);
  const PublishingSession session =
      PublishingSession::FromMatrix(schema, m).value();
  const matrix::PrefixSumTable& table = session.prefix_table();

  RangeQuery both_edges(2);
  ASSERT_TRUE(both_edges.SetRange(schema, 0, 0, 3).ok());
  ASSERT_TRUE(both_edges.SetRange(schema, 1, 0, 5).ok());
  RangeQuery all_cells(2);  // unconstrained = full domain = both low edges
  RangeQuery interior(2);
  ASSERT_TRUE(interior.SetRange(schema, 0, 2, 5).ok());
  ASSERT_TRUE(interior.SetRange(schema, 1, 1, 6).ok());

  const std::vector<RangeQuery> queries = {both_edges, all_cells, interior};
  const CompiledWorkload workload =
      CompiledWorkload::Compile(queries, table.dims());
  EXPECT_EQ(workload.num_corners(), 1u + 1u + 4u);

  const std::vector<double> answers = workload.AnswerAll(table);
  for (std::size_t i = 0; i < queries.size(); ++i) {
    EXPECT_EQ(answers[i], session.Answer(queries[i])) << "query " << i;
  }
}

TEST(CompiledWorkloadTest, EmptyWorkloadAndZeroCornerTail) {
  const data::Schema schema = MakeSchema({16, 16});
  const matrix::FrequencyMatrix m = NoisyMatrix(schema, 5);
  const PublishingSession session =
      PublishingSession::FromMatrix(schema, m).value();
  const matrix::PrefixSumTable& table = session.prefix_table();

  const CompiledWorkload empty =
      CompiledWorkload::Compile({}, table.dims());
  EXPECT_EQ(empty.num_queries(), 0u);
  EXPECT_TRUE(empty.AnswerAll(table).empty());

  // A workload ending in single-corner queries: the last queries' corner
  // runs are one entry long.
  std::vector<RangeQuery> queries;
  RangeQuery interior(2);
  ASSERT_TRUE(interior.SetRange(schema, 0, 3, 9).ok());
  queries.push_back(interior);
  queries.push_back(RangeQuery(2));  // all-cells
  queries.push_back(RangeQuery(2));
  const CompiledWorkload workload =
      CompiledWorkload::Compile(queries, table.dims());
  const std::vector<double> answers = workload.AnswerAll(table);
  ASSERT_EQ(answers.size(), 3u);
  for (std::size_t i = 0; i < queries.size(); ++i) {
    EXPECT_EQ(answers[i], session.Answer(queries[i]));
  }
}

TEST(CompiledWorkloadTest, SplitAnswerIntoRangesMatchFullEvaluation) {
  // AnswerInto over disjoint subranges (how PublishingSession fans a
  // batch across the pool) must equal one full AnswerAll.
  const data::Schema schema = MakeSchema({32, 24});
  const matrix::FrequencyMatrix m = NoisyMatrix(schema, 9);
  const PublishingSession session =
      PublishingSession::FromMatrix(schema, m).value();
  const matrix::PrefixSumTable& table = session.prefix_table();
  const std::vector<RangeQuery> queries = RandomQueries(schema, 77, 13);
  const CompiledWorkload workload =
      CompiledWorkload::Compile(queries, table.dims());

  const std::vector<double> whole = workload.AnswerAll(table);
  std::vector<double> pieces(queries.size());
  for (std::size_t begin = 0; begin < queries.size(); begin += 10) {
    const std::size_t end = std::min(begin + 10, queries.size());
    workload.AnswerInto(table, begin, end, pieces.data() + begin);
  }
  EXPECT_EQ(pieces, whole);
}

TEST(CompiledWorkloadTest, LargeThreeDimensionalWorkloadFoldsExactly) {
  // Thousands of corners over a 3-d table, with every corner-dropping
  // edge case mixed in.
  const data::Schema schema = MakeSchema({40, 40, 5});
  const matrix::FrequencyMatrix m = NoisyMatrix(schema, 21);
  const PublishingSession session =
      PublishingSession::FromMatrix(schema, m).value();
  const matrix::PrefixSumTable& table = session.prefix_table();
  const std::vector<RangeQuery> queries = RandomQueries(schema, 900, 17);
  const CompiledWorkload workload =
      CompiledWorkload::Compile(queries, table.dims());
  ASSERT_GT(workload.num_corners(), 2048u);

  const std::vector<double> compiled = workload.AnswerAll(table);
  for (std::size_t i = 0; i < queries.size(); ++i) {
    EXPECT_EQ(compiled[i], session.Answer(queries[i])) << "query " << i;
  }
}

}  // namespace
}  // namespace privelet::query
