#include "privelet/query/publishing_session.h"

#include <utility>

namespace privelet::query {

PublishingSession::PublishingSession(
    std::shared_ptr<const data::Schema> schema,
    std::shared_ptr<const matrix::FrequencyMatrix> published,
    std::shared_ptr<const QueryEvaluator> evaluator, ReleaseMetadata metadata,
    common::ThreadPool* pool, const matrix::EngineOptions& options,
    std::shared_ptr<const void> mapping)
    : schema_(std::move(schema)),
      published_(std::move(published)),
      mapping_(std::move(mapping)),
      evaluator_(std::move(evaluator)),
      metadata_(std::move(metadata)),
      options_(options),
      pool_(pool) {}

PublishingSession PublishingSession::BuildOwned(
    data::Schema schema, matrix::FrequencyMatrix published,
    std::optional<matrix::PrefixSumTable<double>> table,
    ReleaseMetadata metadata, common::ThreadPool* pool,
    const matrix::EngineOptions& options) {
  auto schema_ptr = std::make_shared<const data::Schema>(std::move(schema));
  auto matrix_ptr = std::make_shared<const matrix::FrequencyMatrix>(
      std::move(published));
  auto evaluator = table.has_value()
                       ? std::make_shared<const QueryEvaluator>(
                             *schema_ptr, std::move(*table))
                       : std::make_shared<const QueryEvaluator>(
                             *schema_ptr, *matrix_ptr, pool, options);
  return PublishingSession(std::move(schema_ptr), std::move(matrix_ptr),
                           std::move(evaluator), std::move(metadata), pool,
                           options);
}

Result<PublishingSession> PublishingSession::Publish(
    const data::Schema& schema, const mechanism::Mechanism& mech,
    const matrix::FrequencyMatrix& m, double epsilon, std::uint64_t seed,
    common::ThreadPool* pool, const matrix::EngineOptions& options) {
  PRIVELET_ASSIGN_OR_RETURN(matrix::FrequencyMatrix published,
                            mech.Publish(schema, m, epsilon, seed));
  ReleaseMetadata metadata{std::string(mech.name()), epsilon, seed,
                           options.out_of_core() ? PublishMode::kStreamed
                                                 : PublishMode::kInCore,
                           /*plan=*/std::nullopt};
  return BuildOwned(schema, std::move(published), std::nullopt,
                    std::move(metadata), pool, options);
}

Result<PublishingSession> PublishingSession::FromMatrix(
    const data::Schema& schema, matrix::FrequencyMatrix published,
    common::ThreadPool* pool, const matrix::EngineOptions& options) {
  if (published.dims() != schema.DomainSizes()) {
    return Status::InvalidArgument(
        "published matrix dims do not match the schema");
  }
  return BuildOwned(schema, std::move(published), std::nullopt,
                    ReleaseMetadata{}, pool, options);
}

Result<PublishingSession> PublishingSession::FromParts(
    const data::Schema& schema, matrix::FrequencyMatrix published,
    matrix::PrefixSumTable<double> table, ReleaseMetadata metadata,
    common::ThreadPool* pool, const matrix::EngineOptions& options) {
  if (published.dims() != schema.DomainSizes()) {
    return Status::InvalidArgument(
        "published matrix dims do not match the schema");
  }
  if (table.dims() != published.dims()) {
    return Status::InvalidArgument(
        "prefix-sum table dims do not match the published matrix");
  }
  return BuildOwned(schema, std::move(published), std::move(table),
                    std::move(metadata), pool, options);
}

const matrix::FrequencyMatrix& PublishingSession::published() const {
  PRIVELET_CHECK(published_ != nullptr,
                 "mapped session does not materialize the release matrix");
  return *published_;
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
