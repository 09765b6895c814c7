#include "privelet/query/publishing_session.h"

#include <utility>

namespace privelet::query {

PublishingSession::PublishingSession(
    std::shared_ptr<const data::Schema> schema,
    std::shared_ptr<const matrix::PrefixSumTable> table,
    ReleaseMetadata metadata, common::ThreadPool* pool,
    std::shared_ptr<const void> mapping)
    : schema_(std::move(schema)),
      mapping_(std::move(mapping)),
      table_(std::move(table)),
      metadata_(std::move(metadata)),
      pool_(pool) {}

Result<PublishingSession> PublishingSession::Publish(
    const data::Schema& schema, const mechanism::Mechanism& mech,
    const matrix::FrequencyMatrix& m, double epsilon, std::uint64_t seed,
    common::ThreadPool* pool) {
  PRIVELET_ASSIGN_OR_RETURN(matrix::FrequencyMatrix published,
                            mech.Publish(schema, m, epsilon, seed));
  ReleaseMetadata metadata{std::string(mech.name()), epsilon,
                           /*plan=*/std::nullopt};
  return FromParts(schema, matrix::PrefixSumTable(std::move(published), pool),
                   std::move(metadata), pool);
}

Result<PublishingSession> PublishingSession::FromMatrix(
    const data::Schema& schema, const matrix::FrequencyMatrix& published,
    common::ThreadPool* pool) {
  if (published.dims() != schema.DomainSizes()) {
    return Status::InvalidArgument(
        "published matrix dims do not match the schema");
  }
  return FromParts(schema, matrix::PrefixSumTable(published, pool),
                   ReleaseMetadata{}, pool);
}

Result<PublishingSession> PublishingSession::FromParts(
    const data::Schema& schema, matrix::PrefixSumTable table,
    ReleaseMetadata metadata, common::ThreadPool* pool) {
  if (table.dims() != schema.DomainSizes()) {
    return Status::InvalidArgument(
        "prefix-sum table dims do not match the schema");
  }
  return PublishingSession(
      std::make_shared<const data::Schema>(schema),
      std::make_shared<const matrix::PrefixSumTable>(std::move(table)),
      std::move(metadata), pool);
}

namespace {

// Per-thread bound scratch for the single-query entry point: keeps it
// allocation-free (after each thread's first call) without shared
// mutable state, so concurrent Answer calls do not race.
struct BoundScratch {
  std::vector<std::size_t> lo, hi;
};

BoundScratch& ThreadBoundScratch() {
  static thread_local BoundScratch scratch;
  return scratch;
}

}  // namespace

double PublishingSession::Answer(const RangeQuery& query) const {
  BoundScratch& scratch = ThreadBoundScratch();
  query.ResolveBounds(table_->dims(), &scratch.lo, &scratch.hi);
  return table_->RangeSum(scratch.lo, scratch.hi);
}

std::vector<double> PublishingSession::AnswerAll(
    std::span<const RangeQuery> queries) const {
  std::vector<double> answers(queries.size());
  common::ParallelFor(pool_, queries.size(), /*grain=*/0,
                      [&](std::size_t begin, std::size_t end) {
                        std::vector<std::size_t> lo, hi;
                        for (std::size_t i = begin; i < end; ++i) {
                          queries[i].ResolveBounds(table_->dims(), &lo, &hi);
                          answers[i] = table_->RangeSum(lo, hi);
                        }
                      });
  return answers;
}

CompiledWorkload PublishingSession::Compile(
    std::span<const RangeQuery> queries) const {
  return CompiledWorkload::Compile(queries, table_->dims());
}

std::vector<double> PublishingSession::AnswerCompiled(
    const CompiledWorkload& workload) const {
  std::vector<double> answers(workload.num_queries());
  common::ParallelFor(pool_, workload.num_queries(), /*grain=*/0,
                      [&](std::size_t begin, std::size_t end) {
                        workload.AnswerInto(*table_, begin, end,
                                            answers.data() + begin);
                      });
  return answers;
}

}  // namespace privelet::query
