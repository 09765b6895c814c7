#include "privelet/storage/session_io.h"

#include <algorithm>
#include <memory>
#include <optional>
#include <span>
#include <utility>

#include "privelet/common/residency.h"

namespace privelet::query {

// Defined here rather than in publishing_session.cc: these members are
// the only place the query layer touches storage types, and keeping
// their definitions in storage/ preserves the one-way layer order.

storage::ReleaseSnapshot PublishingSession::ToSnapshot() const {
  storage::ReleaseSnapshot snapshot;
  snapshot.schema = schema();
  snapshot.mechanism = metadata_.mechanism;
  snapshot.epsilon = metadata_.epsilon;
  snapshot.seed = metadata_.seed;
  snapshot.published = published();
  snapshot.prefix = prefix_table();
  snapshot.plan = metadata_.plan;
  return snapshot;
}

Result<PublishingSession> PublishingSession::FromSnapshot(
    storage::ReleaseSnapshot snapshot, common::ThreadPool* pool) {
  ReleaseMetadata metadata{std::move(snapshot.mechanism), snapshot.epsilon,
                           snapshot.seed, PublishMode::kUnknown,
                           std::move(snapshot.plan)};
  if (snapshot.prefix.has_value()) {
    return FromParts(snapshot.schema, std::move(snapshot.published),
                     std::move(*snapshot.prefix), std::move(metadata), pool);
  }
  // No adoptable table in the snapshot: rebuild it from the matrix. The
  // build is bit-deterministic across pools and ISA levels, so the
  // session still answers exactly like the one that was saved.
  if (snapshot.published.dims() != snapshot.schema.DomainSizes()) {
    return Status::InvalidArgument(
        "published matrix dims do not match the schema");
  }
  return BuildOwned(std::move(snapshot.schema), std::move(snapshot.published),
                    std::nullopt, std::move(metadata), pool,
                    matrix::EngineOptions{});
}

Result<PublishingSession> PublishingSession::FromMapped(
    std::shared_ptr<const storage::MappedSnapshot> mapped,
    common::ThreadPool* pool) {
  if (mapped == nullptr) {
    return Status::InvalidArgument("FromMapped requires a mapped snapshot");
  }
  ReleaseMetadata metadata{mapped->mechanism(), mapped->epsilon(),
                           mapped->seed(), PublishMode::kUnknown,
                           mapped->plan()};
  // The schema lives inside the mapped snapshot; the aliasing constructor
  // shares its lifetime without a copy.
  std::shared_ptr<const data::Schema> schema(mapped, &mapped->schema());
  // Zero-copy adoption of a binary64 table; a legacy accumulator (x87
  // extended) takes a deterministic rebuild straight from the mapped
  // matrix values instead (still no matrix materialization).
  matrix::PrefixSumTable<double> table =
      mapped->has_prefix_table()
          ? matrix::PrefixSumTable<double>::View(mapped->dims(),
                                                 mapped->prefix_table())
          : matrix::PrefixSumTable<double>(mapped->dims(),
                                           mapped->matrix_values(), pool);
  auto evaluator =
      std::make_shared<const QueryEvaluator>(*schema, std::move(table));
  return PublishingSession(std::move(schema), /*published=*/nullptr,
                           std::move(evaluator), std::move(metadata), pool,
                           std::move(mapped));
}

}  // namespace privelet::query

namespace privelet::storage {

Status SaveSession(const std::string& path,
                   const query::PublishingSession& session) {
  if (!session.has_published()) {
    return Status::InvalidArgument(
        "cannot save a mapped session — it serves from an existing "
        "snapshot file");
  }
  ReleaseSnapshotView view;
  view.schema = &session.schema();
  view.mechanism = session.metadata().mechanism;
  view.epsilon = session.metadata().epsilon;
  view.seed = session.metadata().seed;
  view.published = &session.published();
  view.prefix = &session.prefix_table();
  const std::optional<query::PlanRecord>& plan = session.metadata().plan;
  view.plan = plan.has_value() ? &*plan : nullptr;
  return WriteSnapshot(path, view);
}

Result<query::PublishingSession> PublishToFile(
    const std::string& path, const data::Schema& schema,
    const mechanism::Mechanism& mech, const matrix::FrequencyMatrix& m,
    double epsilon, std::uint64_t seed, common::ThreadPool* pool,
    const matrix::EngineOptions& options, const query::PlanRecord* plan) {
  PRIVELET_ASSIGN_OR_RETURN(matrix::FrequencyMatrix published,
                            mech.Publish(schema, m, epsilon, seed));
  if (published.dims() != schema.DomainSizes()) {
    return Status::InvalidArgument(
        "published matrix dims do not match the schema");
  }

  // Serving table: scratch-backed when out of core, passing the noisy
  // matrix along so the build's release-behind covers both mappings.
  std::optional<matrix::PrefixSumTable<double>> table;
  if (options.out_of_core()) {
    PRIVELET_ASSIGN_OR_RETURN(
        auto scratch_table,
        matrix::PrefixSumTable<double>::BuildScratch(
            published.dims(), published.values(), pool, options, &published));
    table.emplace(std::move(scratch_table));
  } else {
    table.emplace(published.dims(), published.values(), pool, options);
  }

  // Stream both payload sections to disk in fixed chunks, releasing the
  // pages already written behind the cursor. Chunking cannot change the
  // file bytes (SnapshotStreamWriter's contract), so this produces
  // exactly the file SaveSession would.
  SnapshotStreamWriter writer;
  SnapshotStreamWriter::Header header;
  header.schema = &schema;
  header.mechanism = mech.name();
  header.epsilon = epsilon;
  header.seed = seed;
  header.plan = plan;
  PRIVELET_RETURN_IF_ERROR(writer.Begin(path, header));
  constexpr std::size_t kStreamChunkCells = std::size_t{1} << 16;
  const std::span<const double> values = published.values();
  {
    common::ResidencyGovernor governor(options.max_memory_bytes,
                                       [&] { published.ReleaseResidency(); });
    for (std::size_t i = 0; i < values.size(); i += kStreamChunkCells) {
      const std::size_t count = std::min(kStreamChunkCells, values.size() - i);
      PRIVELET_RETURN_IF_ERROR(writer.AppendValues(values.subspan(i, count)));
      governor.OnBytesProcessed(count * sizeof(double));
    }
  }
  PRIVELET_RETURN_IF_ERROR(writer.BeginPrefixTable());
  const std::span<const double> sums = table->raw_sums();
  {
    common::ResidencyGovernor governor(options.max_memory_bytes,
                                       [&] { table->ReleaseResidency(); });
    for (std::size_t i = 0; i < sums.size(); i += kStreamChunkCells) {
      const std::size_t count = std::min(kStreamChunkCells, sums.size() - i);
      PRIVELET_RETURN_IF_ERROR(
          writer.AppendTableEntries(sums.subspan(i, count)));
      governor.OnBytesProcessed(count * sizeof(double));
    }
  }
  PRIVELET_RETURN_IF_ERROR(writer.Finish());

  query::ReleaseMetadata metadata{
      std::string(mech.name()), epsilon, seed,
      options.out_of_core() ? query::PublishMode::kStreamed
                            : query::PublishMode::kInCore,
      plan != nullptr ? std::optional<query::PlanRecord>(*plan)
                      : std::nullopt};
  return query::PublishingSession::FromParts(schema, std::move(published),
                                             std::move(*table),
                                             std::move(metadata), pool, options);
}

Result<query::PublishingSession> LoadSession(const std::string& path,
                                             common::ThreadPool* pool) {
  PRIVELET_ASSIGN_OR_RETURN(ReleaseSnapshot snapshot, ReadSnapshot(path));
  return query::PublishingSession::FromSnapshot(std::move(snapshot), pool);
}

Result<query::PublishingSession> MapSession(const std::string& path,
                                            common::ThreadPool* pool) {
  PRIVELET_ASSIGN_OR_RETURN(MappedSnapshot mapped, MappedSnapshot::Open(path));
  return query::PublishingSession::FromMapped(
      std::make_shared<const MappedSnapshot>(std::move(mapped)), pool);
}

}  // namespace privelet::storage
