// Seeded randomized property tests: random schemas, matrices, and query
// batches, cross-checked against BruteForceAnswer (the O(m) oracle) —
// PublishingSession::Answer and AnswerAll must both agree with it to the
// last bit — plus HN forward/inverse round-trips, serial vs pooled, on
// every generated schema.
#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <string>
#include <utility>
#include <vector>

#include "privelet/common/thread_pool.h"
#include "privelet/data/attribute.h"
#include "privelet/data/hierarchy.h"
#include "privelet/data/schema.h"
#include "privelet/matrix/frequency_matrix.h"
#include "privelet/query/publishing_session.h"
#include "privelet/query/range_query.h"
#include "privelet/rng/xoshiro256pp.h"
#include "privelet/wavelet/hn_transform.h"
#include "reference/brute_force.h"

namespace privelet {
namespace {

data::Schema RandomSchema(rng::Xoshiro256pp& gen) {
  const std::size_t num_attrs = gen.NextUint64InRange(1, 3);
  std::vector<data::Attribute> attrs;
  for (std::size_t a = 0; a < num_attrs; ++a) {
    const std::string name = "A" + std::to_string(a);
    if (gen.NextDouble() < 0.5) {
      attrs.push_back(data::Attribute::Ordinal(
          name, gen.NextUint64InRange(1, 12)));
    } else {
      const std::size_t f1 = gen.NextUint64InRange(2, 4);
      const std::size_t f2 = gen.NextUint64InRange(2, 4);
      attrs.push_back(data::Attribute::Nominal(
          name, data::Hierarchy::Balanced({f1, f2}).value()));
    }
  }
  return data::Schema(std::move(attrs));
}

matrix::FrequencyMatrix RandomMatrix(const data::Schema& schema,
                                     rng::Xoshiro256pp& gen) {
  matrix::FrequencyMatrix m(schema.DomainSizes());
  for (std::size_t i = 0; i < m.size(); ++i) {
    m[i] = static_cast<double>(gen.NextUint64InRange(0, 20));
  }
  return m;
}

query::RangeQuery RandomQuery(const data::Schema& schema,
                              rng::Xoshiro256pp& gen) {
  query::RangeQuery q(schema.num_attributes());
  for (std::size_t a = 0; a < schema.num_attributes(); ++a) {
    const data::Attribute& attr = schema.attribute(a);
    const double kind = gen.NextDouble();
    if (kind < 0.3) continue;  // unconstrained
    if (attr.is_nominal() && kind < 0.6) {
      // Subtree predicate through the hierarchy (roll-up form).
      const std::size_t node =
          gen.NextUint64InRange(0, attr.hierarchy().num_nodes() - 1);
      EXPECT_TRUE(q.SetHierarchyNode(schema, a, node).ok());
      continue;
    }
    std::size_t lo = gen.NextUint64InRange(0, attr.domain_size() - 1);
    std::size_t hi = gen.NextUint64InRange(0, attr.domain_size() - 1);
    if (lo > hi) std::swap(lo, hi);
    EXPECT_TRUE(q.SetRange(schema, a, lo, hi).ok());
  }
  return q;
}

TEST(PropertyTest, SessionAgreesWithBruteForceOracle) {
  rng::Xoshiro256pp gen(20260729);
  common::ThreadPool pool(2);
  for (int iter = 0; iter < 40; ++iter) {
    const data::Schema schema = RandomSchema(gen);
    const matrix::FrequencyMatrix m = RandomMatrix(schema, gen);
    auto session = query::PublishingSession::FromMatrix(schema, m, &pool);
    ASSERT_TRUE(session.ok());

    std::vector<query::RangeQuery> queries;
    for (int k = 0; k < 15; ++k) queries.push_back(RandomQuery(schema, gen));
    const std::vector<double> batch = session->AnswerAll(queries);

    for (std::size_t k = 0; k < queries.size(); ++k) {
      const double oracle =
          reference::BruteForceAnswer(schema, m, queries[k]);
      // Entries are small integers, so the binary64 table is exact and
      // both entry points must agree with the oracle to the last bit.
      ASSERT_EQ(session->Answer(queries[k]), oracle)
          << "iter " << iter << " query " << k;
      ASSERT_EQ(batch[k], oracle) << "iter " << iter << " query " << k;
    }
  }
}

TEST(PropertyTest, HnRoundTripRecoversDataSerialAndPooled) {
  rng::Xoshiro256pp gen(777);
  common::ThreadPool pool(3);
  for (int iter = 0; iter < 25; ++iter) {
    const data::Schema schema = RandomSchema(gen);
    const matrix::FrequencyMatrix m = RandomMatrix(schema, gen);
    auto transform = wavelet::HnTransform::Create(schema);
    ASSERT_TRUE(transform.ok());

    auto coeffs = transform->Forward(m);
    ASSERT_TRUE(coeffs.ok());
    auto back = transform->Inverse(*coeffs);
    ASSERT_TRUE(back.ok());
    ASSERT_EQ(back->dims(), m.dims());
    for (std::size_t i = 0; i < m.size(); ++i) {
      ASSERT_NEAR((*back)[i], m[i], 1e-8) << "iter " << iter << " cell " << i;
    }

    // The pooled pass must agree with the serial pass bit for bit.
    auto pooled_coeffs = transform->Forward(m, &pool);
    ASSERT_TRUE(pooled_coeffs.ok());
    ASSERT_TRUE(matrix::ValuesEqual(pooled_coeffs->coeffs.values(),
                                    coeffs->coeffs.values()))
        << "iter " << iter;
    auto pooled_back = transform->Inverse(*pooled_coeffs, &pool);
    ASSERT_TRUE(pooled_back.ok());
    ASSERT_TRUE(matrix::ValuesEqual(pooled_back->values(), back->values()))
        << "iter " << iter;
  }
}

TEST(PropertyTest, WeightIterationMatchesPointLookups) {
  // ForEachCoefficientInRange's running products must equal the O(d)
  // WeightAt lookup at every flat index, for arbitrary split points.
  rng::Xoshiro256pp gen(31337);
  for (int iter = 0; iter < 15; ++iter) {
    const data::Schema schema = RandomSchema(gen);
    auto transform = wavelet::HnTransform::Create(schema);
    ASSERT_TRUE(transform.ok());
    matrix::FrequencyMatrix m(schema.DomainSizes());
    auto coeffs = transform->Forward(m);
    ASSERT_TRUE(coeffs.ok());

    const std::size_t total = coeffs->coeffs.size();
    const std::size_t split = gen.NextUint64InRange(0, total);
    std::size_t visited = 0;
    auto check = [&](std::size_t flat, double weight) {
      ASSERT_DOUBLE_EQ(weight, coeffs->WeightAt(flat)) << "flat " << flat;
      ++visited;
    };
    coeffs->ForEachCoefficientInRange(0, split, check);
    coeffs->ForEachCoefficientInRange(split, total, check);
    EXPECT_EQ(visited, total) << "iter " << iter;
  }
}

}  // namespace
}  // namespace privelet
