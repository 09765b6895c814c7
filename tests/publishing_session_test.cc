// PublishingSession: batched answering matches single-query answering and
// the brute-force oracle, error paths surface as Status, copies share one
// table, and a shared session stays consistent under concurrent AnswerAll
// callers (the tsan job runs this suite).
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "privelet/common/thread_pool.h"
#include "privelet/data/attribute.h"
#include "privelet/data/hierarchy.h"
#include "privelet/data/schema.h"
#include "privelet/matrix/frequency_matrix.h"
#include "privelet/mechanism/privelet_mechanism.h"
#include "privelet/query/publishing_session.h"
#include "privelet/rng/xoshiro256pp.h"
#include "privelet/storage/session_io.h"
#include "reference/brute_force.h"
#include "scratch_copy.h"

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
    // Small integer entries: the binary64 table is exact.
    const double oracle = reference::BruteForceAnswer(schema, m, queries[i]);
    EXPECT_EQ(batch[i], oracle) << "query " << i;
    EXPECT_EQ(session->Answer(queries[i]), oracle) << "query " << i;
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
  const matrix::PrefixSumTable direct_table(*direct);
  EXPECT_TRUE(matrix::ValuesEqual(session->prefix_table().raw_sums(),
                                  direct_table.raw_sums()));
  const auto queries = MakeQueries(schema, 10, 5);
  const auto answers = session->AnswerAll(queries);
  auto reference = PublishingSession::FromMatrix(schema, *direct);
  ASSERT_TRUE(reference.ok());
  for (std::size_t i = 0; i < queries.size(); ++i) {
    EXPECT_EQ(answers[i], reference->Answer(queries[i]));
  }
  EXPECT_FALSE(
      PublishingSession::Publish(schema, privelet, m, -1.0, 17).ok());
}

TEST(PublishingSessionTest, StreamedPublishBuildsItsTableInTheScratchRelease) {
  // From a scratch-backed input the release is scratch-backed under the
  // input's budget; the session's table must stay in that mapping (not
  // land on the heap), record the budget, and still be the in-core
  // publish's, bit for bit — and so must its saved file.
  const data::Schema schema = MixedSchema();
  const matrix::FrequencyMatrix m = RandomMatrix(schema, 12);
  mechanism::PriveletMechanism mech;
  auto expected = PublishingSession::Publish(schema, mech, m, 1.0, 29);
  ASSERT_TRUE(expected.ok());
  EXPECT_FALSE(expected->prefix_table().is_scratch());
  EXPECT_FALSE(expected->prefix_table().budget().out_of_core());

  constexpr std::size_t kBudget = 16 * 1024;
  common::ThreadPool pool(2);
  auto session = PublishingSession::Publish(
      schema, mech, testutil::ScratchCopy(m, kBudget), 1.0, 29, &pool);
  ASSERT_TRUE(session.ok());
  EXPECT_TRUE(session->prefix_table().is_scratch());
  EXPECT_EQ(session->prefix_table().budget().max_memory_bytes, kBudget);
  EXPECT_TRUE(matrix::ValuesEqual(session->prefix_table().raw_sums(),
                                  expected->prefix_table().raw_sums()));
  const auto queries = MakeQueries(schema, 60, 31);
  EXPECT_EQ(session->AnswerAll(queries), expected->AnswerAll(queries));

  const std::string in_core_path = testing::TempDir() + "/ps_in_core.pvls";
  const std::string streamed_path = testing::TempDir() + "/ps_streamed.pvls";
  ASSERT_TRUE(storage::SaveSession(in_core_path, *expected).ok());
  ASSERT_TRUE(storage::SaveSession(streamed_path, *session).ok());
  auto in_core_file = storage::LoadSession(in_core_path);
  auto streamed_file = storage::LoadSession(streamed_path);
  ASSERT_TRUE(in_core_file.ok() && streamed_file.ok());
  EXPECT_TRUE(matrix::ValuesEqual(streamed_file->prefix_table().raw_sums(),
                                  in_core_file->prefix_table().raw_sums()));
  std::remove(in_core_path.c_str());
  std::remove(streamed_path.c_str());
}

TEST(PublishingSessionTest, CopiesShareOneTableInMemoryAndMapped) {
  // Copying a table is deep, so a session copy shares its original's:
  // in memory and mapped, the copy reads the same entries and answers
  // bit for bit like the original (and the mapped session like the
  // in-memory one it was saved from).
  const data::Schema schema = MixedSchema();
  const matrix::FrequencyMatrix m = RandomMatrix(schema, 21);
  mechanism::PriveletMechanism privelet;
  auto in_memory = PublishingSession::Publish(schema, privelet, m, 1.0, 23);
  ASSERT_TRUE(in_memory.ok());
  const std::string path = testing::TempDir() + "/session_copy.pvls";
  ASSERT_TRUE(storage::SaveSession(path, *in_memory).ok());
  auto mapped = storage::MapSession(path);
  ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
  std::remove(path.c_str());  // the mapping keeps the pages alive

  const auto queries = MakeQueries(schema, 50, 37);
  const std::vector<double> want = in_memory->AnswerAll(queries);
  for (const PublishingSession* original : {&*in_memory, &*mapped}) {
    const PublishingSession copy = *original;
    EXPECT_EQ(copy.prefix_table().raw_sums().data(),
              original->prefix_table().raw_sums().data());
    EXPECT_TRUE(matrix::ValuesEqual(copy.AnswerAll(queries), want));
    EXPECT_TRUE(matrix::ValuesEqual(original->AnswerAll(queries), want));
    std::vector<double> single;
    for (const RangeQuery& q : queries) single.push_back(copy.Answer(q));
    EXPECT_TRUE(matrix::ValuesEqual(single, want));
  }
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
