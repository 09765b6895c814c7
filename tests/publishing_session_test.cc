// PublishingSession: batched answering matches single-query answering and
// the brute-force oracle, error paths surface as Status, and a shared
// session stays consistent under concurrent AnswerAll callers (the tsan
// job runs this suite).
#include <gtest/gtest.h>

#include <cstddef>
#include <thread>
#include <vector>

#include "privelet/common/thread_pool.h"
#include "privelet/data/attribute.h"
#include "privelet/data/hierarchy.h"
#include "privelet/data/schema.h"
#include "privelet/matrix/frequency_matrix.h"
#include "privelet/mechanism/privelet_mechanism.h"
#include "privelet/query/evaluator.h"
#include "privelet/query/publishing_session.h"
#include "privelet/rng/xoshiro256pp.h"

namespace privelet::query {
namespace {

data::Schema MixedSchema() {
  std::vector<data::Attribute> attrs;
  attrs.push_back(data::Attribute::Ordinal("Ord", 32));
  attrs.push_back(data::Attribute::Nominal(
      "Nom", data::Hierarchy::Balanced({3, 3}).value()));
  return data::Schema(std::move(attrs));
}

matrix::FrequencyMatrix RandomMatrix(const data::Schema& schema,
                                     std::uint64_t seed) {
  matrix::FrequencyMatrix m(schema.DomainSizes());
  rng::Xoshiro256pp gen(seed);
  for (std::size_t i = 0; i < m.size(); ++i) {
    m[i] = static_cast<double>(gen.NextUint64InRange(0, 25));
  }
  return m;
}

std::vector<RangeQuery> MakeQueries(const data::Schema& schema,
                                    std::size_t count, std::uint64_t seed) {
  rng::Xoshiro256pp gen(seed);
  std::vector<RangeQuery> queries;
  queries.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    RangeQuery q(schema.num_attributes());
    for (std::size_t a = 0; a < schema.num_attributes(); ++a) {
      if (gen.NextDouble() < 0.3) continue;  // unconstrained axis
      const std::size_t domain = schema.attribute(a).domain_size();
      std::size_t lo = gen.NextUint64InRange(0, domain - 1);
      std::size_t hi = gen.NextUint64InRange(0, domain - 1);
      if (lo > hi) std::swap(lo, hi);
      EXPECT_TRUE(q.SetRange(schema, a, lo, hi).ok());
    }
    queries.push_back(std::move(q));
  }
  return queries;
}

TEST(PublishingSessionTest, FromMatrixAnswersMatchOracle) {
  const data::Schema schema = MixedSchema();
  const matrix::FrequencyMatrix m = RandomMatrix(schema, 3);
  auto session = PublishingSession::FromMatrix(schema, m);
  ASSERT_TRUE(session.ok());
  const auto queries = MakeQueries(schema, 40, 11);
  const std::vector<double> batch = session->AnswerAll(queries);
  ASSERT_EQ(batch.size(), queries.size());
  for (std::size_t i = 0; i < queries.size(); ++i) {
    const double oracle = BruteForceAnswer(schema, m, queries[i]);
    EXPECT_NEAR(batch[i], oracle, 1e-9) << "query " << i;
    EXPECT_NEAR(session->Answer(queries[i]), oracle, 1e-9) << "query " << i;
  }
}

TEST(PublishingSessionTest, FromMatrixRejectsDimMismatch) {
  const data::Schema schema = MixedSchema();
  matrix::FrequencyMatrix wrong({5, 5});
  EXPECT_FALSE(PublishingSession::FromMatrix(schema, std::move(wrong)).ok());
}

TEST(PublishingSessionTest, PublishWrapsAMechanismRelease) {
  const data::Schema schema = MixedSchema();
  const matrix::FrequencyMatrix m = RandomMatrix(schema, 4);
  mechanism::PriveletMechanism privelet;
  auto session =
      PublishingSession::Publish(schema, privelet, m, /*epsilon=*/1.0,
                                 /*seed=*/17);
  ASSERT_TRUE(session.ok());
  // The wrapped table is exactly the prefix table of what the mechanism
  // publishes for the same seed, and answers come from it.
  auto direct = privelet.Publish(schema, m, 1.0, 17);
  ASSERT_TRUE(direct.ok());
  const matrix::PrefixSumTable<double> direct_table(*direct);
  EXPECT_TRUE(matrix::ValuesEqual(session->prefix_table().raw_sums(),
                                  direct_table.raw_sums()));
  const auto queries = MakeQueries(schema, 10, 5);
  const auto answers = session->AnswerAll(queries);
  QueryEvaluator reference(schema, *direct);
  for (std::size_t i = 0; i < queries.size(); ++i) {
    EXPECT_EQ(answers[i], reference.Answer(queries[i]));
  }
  EXPECT_FALSE(
      PublishingSession::Publish(schema, privelet, m, -1.0, 17).ok());
}

TEST(PublishingSessionTest, StreamedPublishBuildsItsTableInTheScratchRelease) {
  // Under a memory budget the release is scratch-backed; the session's
  // table must stay in that mapping (not land on the heap) and still be
  // the in-core publish's, bit for bit.
  const data::Schema schema = MixedSchema();
  const matrix::FrequencyMatrix m = RandomMatrix(schema, 12);
  mechanism::PriveletMechanism in_core;
  auto expected = PublishingSession::Publish(schema, in_core, m, 1.0, 29);
  ASSERT_TRUE(expected.ok());
  EXPECT_FALSE(expected->prefix_table().is_scratch());

  matrix::EngineOptions options;
  options.max_memory_bytes = 16 * 1024;
  mechanism::PriveletMechanism streamed;
  streamed.set_engine_options(options);
  common::ThreadPool pool(2);
  auto session = PublishingSession::Publish(schema, streamed, m, 1.0, 29,
                                            &pool, options);
  ASSERT_TRUE(session.ok());
  EXPECT_TRUE(session->prefix_table().is_scratch());
  EXPECT_EQ(session->metadata().publish_mode, PublishMode::kStreamed);
  EXPECT_TRUE(matrix::ValuesEqual(session->prefix_table().raw_sums(),
                                  expected->prefix_table().raw_sums()));
  const auto queries = MakeQueries(schema, 60, 31);
  EXPECT_EQ(session->AnswerAll(queries), expected->AnswerAll(queries));
}

TEST(PublishingSessionTest, PooledAnswerAllMatchesSerial) {
  const data::Schema schema = MixedSchema();
  const matrix::FrequencyMatrix m = RandomMatrix(schema, 6);
  common::ThreadPool pool(4);
  auto serial_session = PublishingSession::FromMatrix(schema, m);
  auto pooled_session = PublishingSession::FromMatrix(schema, m, &pool);
  ASSERT_TRUE(serial_session.ok() && pooled_session.ok());
  const auto queries = MakeQueries(schema, 200, 23);
  EXPECT_EQ(serial_session->AnswerAll(queries),
            pooled_session->AnswerAll(queries));
}

TEST(PublishingSessionTest, ConcurrentAnswerAllCallersAgree) {
  // The stress the tsan preset watches: one shared session, its own worker
  // pool, and several external caller threads hammering AnswerAll and
  // Answer simultaneously.
  const data::Schema schema = MixedSchema();
  const matrix::FrequencyMatrix m = RandomMatrix(schema, 8);
  common::ThreadPool pool(4);
  auto session = PublishingSession::FromMatrix(schema, m, &pool);
  ASSERT_TRUE(session.ok());

  const auto queries = MakeQueries(schema, 100, 42);
  const std::vector<double> expected = session->AnswerAll(queries);

  constexpr std::size_t kCallers = 4;
  constexpr int kRounds = 20;
  std::vector<int> mismatches(kCallers, 0);
  std::vector<std::thread> callers;
  for (std::size_t c = 0; c < kCallers; ++c) {
    callers.emplace_back([&, c] {
      for (int round = 0; round < kRounds; ++round) {
        if (session->AnswerAll(queries) != expected) ++mismatches[c];
        const std::size_t pick = (c * kRounds + round) % queries.size();
        if (session->Answer(queries[pick]) != expected[pick]) {
          ++mismatches[c];
        }
      }
    });
  }
  for (auto& t : callers) t.join();
  for (std::size_t c = 0; c < kCallers; ++c) {
    EXPECT_EQ(mismatches[c], 0) << "caller " << c;
  }
}

}  // namespace
}  // namespace privelet::query
