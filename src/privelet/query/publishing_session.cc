#include "privelet/query/publishing_session.h"

#include <utility>

namespace privelet::query {

PublishingSession::PublishingSession(
    std::shared_ptr<const data::Schema> schema,
    std::shared_ptr<const QueryEvaluator> evaluator, ReleaseMetadata metadata,
    common::ThreadPool* pool, std::shared_ptr<const void> mapping)
    : schema_(std::move(schema)),
      mapping_(std::move(mapping)),
      evaluator_(std::move(evaluator)),
      metadata_(std::move(metadata)),
      pool_(pool) {}

Result<PublishingSession> PublishingSession::Publish(
    const data::Schema& schema, const mechanism::Mechanism& mech,
    const matrix::FrequencyMatrix& m, double epsilon, std::uint64_t seed,
    common::ThreadPool* pool, const matrix::EngineOptions& options) {
  PRIVELET_ASSIGN_OR_RETURN(matrix::FrequencyMatrix published,
                            mech.Publish(schema, m, epsilon, seed));
  ReleaseMetadata metadata{std::string(mech.name()), epsilon,
                           options.out_of_core() ? PublishMode::kStreamed
                                                 : PublishMode::kInCore,
                           /*plan=*/std::nullopt};
  return FromParts(
      schema,
      matrix::PrefixSumTable<double>(std::move(published), pool, options),
      std::move(metadata), pool);
}

Result<PublishingSession> PublishingSession::FromMatrix(
    const data::Schema& schema, const matrix::FrequencyMatrix& published,
    common::ThreadPool* pool, const matrix::EngineOptions& options) {
  if (published.dims() != schema.DomainSizes()) {
    return Status::InvalidArgument(
        "published matrix dims do not match the schema");
  }
  return FromParts(schema,
                   matrix::PrefixSumTable<double>(published, pool, options),
                   ReleaseMetadata{}, pool);
}

Result<PublishingSession> PublishingSession::FromParts(
    const data::Schema& schema, matrix::PrefixSumTable<double> table,
    ReleaseMetadata metadata, common::ThreadPool* pool) {
  if (table.dims() != schema.DomainSizes()) {
    return Status::InvalidArgument(
        "prefix-sum table dims do not match the schema");
  }
  auto schema_ptr = std::make_shared<const data::Schema>(schema);
  auto evaluator =
      std::make_shared<const QueryEvaluator>(*schema_ptr, std::move(table));
  return PublishingSession(std::move(schema_ptr), std::move(evaluator),
                           std::move(metadata), pool);
}

double PublishingSession::Answer(const RangeQuery& query) const {
  return evaluator_->Answer(query);
}

std::vector<double> PublishingSession::AnswerAll(
    std::span<const RangeQuery> queries) const {
  std::vector<double> answers(queries.size());
  common::ParallelFor(pool_, queries.size(), /*grain=*/0,
                      [&](std::size_t begin, std::size_t end) {
                        std::vector<std::size_t> lo, hi;
                        for (std::size_t i = begin; i < end; ++i) {
                          answers[i] = evaluator_->Answer(queries[i], &lo, &hi);
                        }
                      });
  return answers;
}

CompiledWorkload PublishingSession::Compile(
    std::span<const RangeQuery> queries) const {
  return CompiledWorkload::Compile(queries, evaluator_->table().dims());
}

std::vector<double> PublishingSession::AnswerCompiled(
    const CompiledWorkload& workload) const {
  std::vector<double> answers(workload.num_queries());
  common::ParallelFor(pool_, workload.num_queries(), /*grain=*/0,
                      [&](std::size_t begin, std::size_t end) {
                        workload.AnswerInto(evaluator_->table(), begin, end,
                                            answers.data() + begin);
                      });
  return answers;
}

}  // namespace privelet::query
